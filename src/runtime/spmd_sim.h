#pragma once

#include <algorithm>
#include <chrono>
#include <memory>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "runtime/bytecode.h"
#include "runtime/engine.h"
#include "runtime/interp.h"
#include "runtime/reliable_transport.h"
#include "spmd/lowering.h"
#include "support/arena.h"
#include "target/target_kind.h"
#include "support/cancellation.h"
#include "support/fault.h"
#include "support/interned_events.h"

namespace phpf {

/// Functional simulator of the SPMD execution of a lowered program on a
/// distributed-memory machine (our stand-in for the paper's 16-node
/// SP2).
///
/// Every simulated processor has its own copy of every element, held in
/// lane-major banks (element-major, one lane per processor); distributed
/// arrays are valid only where owned (or received), privatized variables
/// live as genuinely private per-processor copies. Statements execute,
/// compiled to register bytecode (runtime/bytecode.h), in global
/// lockstep under their computation-partitioning guards; a read of data
/// the processor does not hold triggers the matching communication op,
/// transfers the value from its owner, and accounts the message. A read
/// with no covering comm op aborts — an insufficient communication plan
/// is a hard error, which is exactly the property the tests exercise.
///
/// Message accounting groups element transfers by (comm op, iteration
/// vector at the op's placement level): one group is one vectorized
/// message event, directly comparable with the analytic cost model's
/// event counts.
///
/// Every statement instance is one phase on one thread: the validity
/// scan finds the executors missing an operand, the misses are applied
/// in place (each fetched copy becomes valid on its receiver and every
/// transfer is accounted), the value chunk runs — once on the oracle
/// when every lane provably computes its value, else once per executor
/// lane — and only then are the lhs copies stored and the
/// non-executors' copies invalidated. Fetching writes only copies of
/// operands, never the statement's own target, so every executor reads
/// pre-statement state (SPMD semantics).
/// Per-processor accounting of one simulated run: what each processor
/// executed, skipped (its computation-partitioning guard was false), and
/// moved. The imbalance across processors is the load-balance signal the
/// run report surfaces.
struct ProcSimMetrics {
    std::int64_t stmtsExecuted = 0;
    std::int64_t stmtsSkipped = 0;  ///< guard evaluated false
    std::int64_t recvElements = 0;
    std::int64_t sentElements = 0;
};

/// Fault-injection and recovery configuration of one simulated run.
/// Defaults leave the whole layer off: a default-constructed config
/// costs the hot path one branch per statement instance and nothing
/// else (bench/bench_fault_overhead.cpp enforces ≈0 overhead).
struct SimRecoveryConfig {
    /// Fault source; null disables injection entirely. The simulator
    /// resolves the net.* sites into a reliable transport and the
    /// proc.crash site into checkpoint-restore recovery.
    const FaultInjector* faults = nullptr;
    /// Checkpoint the full simulator state every N statement instances
    /// (0 = only the initial checkpoint, taken whenever recovery can be
    /// needed). A crash restores the latest checkpoint and replays —
    /// deterministically, so results and all metrics stay bit-identical
    /// to the fault-free run.
    int checkpointEvery = 0;
    /// proc.crash restore budget; exceeding it surfaces a SimFault.
    int maxRecoveries = 64;
    /// Retry/backoff/timeout budget of the reliable transport.
    TransportConfig transport;
    /// Polled at statement boundaries: a cancelled token (deadline or
    /// explicit) stops the run with a SimFault at site "sim.cancel",
    /// leaving no partially merged phase behind.
    CancelToken cancel;
};

class SpmdSimulator {
public:
    /// `elemBytes` is the machine element size used for byte accounting
    /// (CostModel::elemBytes; REAL = 8 on the modelled SP2). The `int`
    /// thread count and the SimEngine parameter are ignored (the
    /// simulator runs on the calling thread; runtime/engine.h).
    ///
    /// `relaxedMerge` opts into combining commutative reductions
    /// (sum/max/min) from the per-processor partial accumulators in
    /// linear processor order instead of broadcasting the oracle's
    /// sequentially-ordered value, and lets reduction-accumulate
    /// statements write their private accumulator in-phase instead of
    /// through the ordered merge barrier. Max/min and integer sums stay
    /// exact; floating-point sums may differ from the oracle by
    /// reassociation. Still deterministic.
    /// `targetKind` selects the machine the accounting describes.
    /// Functional semantics are target-independent (the same lowering
    /// executes; a shared-memory "coherence read" moves the same value a
    /// message-passing "transfer" does), so results are bit-identical
    /// across targets. Under SharedMemory the simulator additionally
    /// counts barrier epochs (each vectorized sync event is one
    /// producers-then-consumers barrier) and does
    /// not arm the lossy-network transport — there is no network inside
    /// one SMP node (proc.crash recovery still applies).
    explicit SpmdSimulator(const SpmdLowering& low, int elemBytes = 8,
                           int /*threads*/ = 1, SimRecoveryConfig recovery = {},
                           SimEngine = SimEngine::Bytecode,
                           bool relaxedMerge = false,
                           TargetKind targetKind = TargetKind::MessagePassing);

    /// Throws SimFault when injected faults exhaust the recovery budget
    /// or the recovery cancel token fires; any other outcome (including
    /// every recovered fault) leaves results and metrics bit-identical
    /// to a fault-free run.
    void run();

    /// Opt into telemetry before run(). `metrics` (nullable) receives
    /// per-phase latency histograms (sim.phase.eval_us /
    /// sim.phase.merge_us / sim.checkpoint_us) — histogram references
    /// are resolved here once, so the hot path never does a name
    /// lookup. A lane-uniform phase costs tens of nanoseconds, about
    /// one clock read, so the eval/merge histograms sample 1 in
    /// kTelemetrySample phases; checkpoints are rare and timed
    /// unconditionally. A null pointer (the default) keeps the
    /// zero-overhead behaviour.
    void setTelemetry(obs::MetricRegistry* metrics);

    /// Opt into the per-statement profiler before run(). Counts
    /// (instances, per-proc executions, transfers, events) are exact
    /// and deterministic; wall time is
    /// 1-in-kSampleEvery sampled (deterministic sample *counts*,
    /// host-dependent durations). The armed overhead budget is <2%
    /// (bench/bench_profile_overhead.cpp enforces it).
    void enableProfiling() {
        profile_ = std::make_unique<obs::StmtProfile>(prog_.stmtCount(),
                                                      procCount_);
    }
    /// The profile of the last run; null unless enableProfiling() was
    /// called.
    [[nodiscard]] const obs::StmtProfile* profile() const {
        return profile_.get();
    }

    [[nodiscard]] int procCount() const { return procCount_; }
    /// Always 1: the simulation runs on the calling thread. Kept with
    /// workerBusySec() and the constructor's thread parameter for
    /// callers written against the retired worker pool.
    [[nodiscard]] int threads() const { return 1; }
    /// True when the relaxed commutative reduction merge is active.
    [[nodiscard]] bool relaxedMerge() const { return relaxed_; }
    /// Wall-clock seconds of the last run() (initial distribution
    /// included).
    [[nodiscard]] double wallSec() const { return wallSec_; }
    /// Always 0 (no worker pool); see threads().
    [[nodiscard]] double workerBusySec() const { return 0.0; }

    /// Machine model this run's accounting describes.
    [[nodiscard]] TargetKind targetKind() const { return targetKind_; }
    /// Shared-memory target only: barrier epochs executed (one per
    /// distinct vectorized sync event, reduction combiner trees
    /// included). Always 0 under MessagePassing.
    [[nodiscard]] std::int64_t barrierEvents() const { return barrierEvents_; }

    /// Vectorized message events (see class comment).
    [[nodiscard]] std::int64_t messageEvents() const { return events_.size(); }
    /// Raw element transfers (element granularity).
    [[nodiscard]] std::int64_t elementTransfers() const { return transfers_; }
    [[nodiscard]] double bytesMoved() const {
        return static_cast<double>(transfers_ * elemBytes_);
    }
    [[nodiscard]] int elemBytes() const { return elemBytes_; }
    /// Message events attributed to one comm op.
    [[nodiscard]] std::int64_t eventsOfOp(int opId) const;
    /// Element transfers attributed to one comm op.
    [[nodiscard]] std::int64_t elementsOfOp(int opId) const;

    /// Per-processor execution/communication accounting of the last run.
    [[nodiscard]] const std::vector<ProcSimMetrics>& procMetrics() const {
        return procMetrics_;
    }
    /// max/mean statements-executed ratio across processors (1.0 =
    /// perfectly balanced; 0.0 when nothing executed).
    [[nodiscard]] double imbalanceRatio() const;

    /// The oracle (sequential reference) interpreter; seed inputs here
    /// before run(). Inputs are mirrored to every processor's banks as
    /// initially-valid data (original HPF arrays start replicated until
    /// first distributed write; this models "already distributed" input
    /// without charging initial distribution).
    [[nodiscard]] Interpreter& oracle() { return oracle_; }

    /// Value of `name` on processor `proc` (flat element index).
    [[nodiscard]] double valueOn(int proc, const std::string& name,
                                 std::int64_t flat = 0) const;
    [[nodiscard]] bool validOn(int proc, const std::string& name,
                               std::int64_t flat = 0) const;

    /// Compare every valid per-processor copy of `name` with the oracle;
    /// returns the max absolute difference. A copy that differs from
    /// the oracle through a NaN (on either side) counts as an infinite
    /// difference.
    [[nodiscard]] double maxErrorVsOracle(const std::string& name) const;

    [[nodiscard]] std::int64_t statementsExecutedAllProcs() const {
        return procStmts_;
    }
    /// Proc-statements the loop driver ran: lane-uniform innermost loop
    /// bodies executed on per-iteration address increments (see
    /// runLoopKernel). A subset of statementsExecutedAllProcs();
    /// deterministic.
    [[nodiscard]] std::int64_t loopKernelInstances() const {
        return loopKernelInstances_;
    }

    /// True when a fault spec armed any part of the recovery layer.
    [[nodiscard]] bool faultLayerActive() const {
        return transport_ != nullptr || crashSite_ != nullptr;
    }
    /// Reliable-transport accounting (null when no net.* site armed).
    [[nodiscard]] const TransportStats* transportStats() const {
        return transport_ != nullptr ? &transport_->stats() : nullptr;
    }
    /// Successful proc.crash recoveries of the last run.
    [[nodiscard]] int recoveries() const { return recoveries_; }
    /// Checkpoints taken during the last run (initial one included).
    [[nodiscard]] std::int64_t checkpointsTaken() const {
        return checkpointsTaken_;
    }

private:
    struct GotoSignal {
        int label;
    };
    /// Thrown when the proc.crash site fires at a statement boundary;
    /// run() restores the latest checkpoint and resumes.
    struct CrashSignal {};

    /// One active control construct (Do or If) on the execution path.
    /// The stack mirrors the C++ call stack of execStmt; a checkpoint
    /// copies it (plus the boundary statement) as its resume path. Loop
    /// frames capture the bounds *as evaluated at loop entry*, so a
    /// resumed loop iterates exactly as the original would have.
    struct CtrlFrame {
        const Stmt* stmt = nullptr;
        bool taken = false;  ///< If: branch in execution
        std::int64_t iv = 0, ub = 0, step = 1;  ///< Do: current/captured
    };

    /// Full simulator state at one statement boundary. Restoring it and
    /// replaying is deterministic: the banks and the oracle store define
    /// all values, the event set / counters define all accounting, and
    /// the resume path
    /// pins the control position — so a recovered run re-produces the
    /// fault-free run bit for bit.
    struct Checkpoint {
        std::vector<double> soa;
        std::vector<char> soaValid;
        Store oracleStore;
        std::int64_t oracleExecuted = 0;
        std::vector<ProcSimMetrics> procMetrics;
        std::int64_t transfers = 0;
        std::int64_t procStmts = 0;
        std::int64_t loopKernelInstances = 0;
        std::int64_t instances = 0;
        InternedEventSet events;
        std::vector<std::int64_t> eventsPerOp;
        std::vector<std::int64_t> elemsPerOp;
        std::int64_t barrierEvents = 0;
        /// Relaxed-merge loop-entry accumulator snapshots (by CommOp
        /// id), so a recovered relaxed run replays identically.
        std::vector<double> combineInit;
        /// Enclosing Do/If frames + the boundary statement last; empty
        /// = start of the program.
        std::vector<CtrlFrame> path;
        /// Profiler state (sample ticks included), so a recovered run
        /// reproduces the fault-free profile bit for bit. Null when
        /// profiling is off.
        std::unique_ptr<obs::StmtProfile> profile;
    };

    /// A reduction's global combine applied at the end of one loop nest.
    struct CombinePlan {
        const CommOp* op = nullptr;
        const ReductionInfo* red = nullptr;
    };

    /// Precomputed per-statement execution plan: everything executorsOf
    /// and the eval phase would otherwise rediscover on every statement
    /// instance (guard descriptors, Union contributor descriptors,
    /// compiled code, reduction roles, loop-end combines). Indexed by
    /// Stmt::id.
    struct StmtPlan {
        const StmtExec* exec = nullptr;  ///< Assign / If
        bool isReductionAcc = false;     ///< Assign: reduction accumulate
        /// Union guard: executor descriptors of the contributing
        /// owner-computes statements of the same loop body.
        std::vector<const RefDesc*> unionSrcs;
        std::vector<CombinePlan> combines;  ///< Do: loop-end combines
        /// Compiled guard subscripts, index forms, and value chunk of
        /// this statement; the chunk's fetch slots are the VarRef/
        /// ArrayRef nodes the executors read (value positions of
        /// rhs/cond; subscripts resolve on the oracle).
        bc::StmtCode code;
        /// Per fetch slot: the covering communication op (null when the
        /// slot's data is always local) and its compiled
        /// source-descriptor subscript forms, so per-phase miss
        /// resolution never walks a subscript tree.
        std::vector<const CommOp*> slotOp;
        std::vector<std::vector<bc::IndexForm>> slotSrcForms;
        /// The OwnerOf executor descriptor pins every grid dimension (no
        /// Replicated dims), so the executor set is one processor
        /// computed directly — no grid-set enumeration.
        bool execSingleton = false;
        /// Per fetch slot: the comm op's source descriptor is a
        /// singleton (same condition as execSingleton).
        std::vector<char> slotSrcSingleton;
        /// Every lane provably computes the oracle's value — the
        /// statement is not a reduction accumulation and no
        /// fetched symbol is divergent (per-processor copies of every
        /// read symbol equal the oracle whenever valid). Such instances
        /// skip the per-lane VM run: the oracle's scalar result is
        /// broadcast to the executors.
        bool laneUniform = false;
        /// Do: an innermost loop the loop driver runs (see
        /// planLoopKernel for the eligibility rules).
        bool loopKernel = false;
        /// Assign in a loop-driver body: per fetch slot, then the lhs,
        /// the coefficient of the loop variable in the element index (0
        /// for scalars); and whether the singleton executor depends on
        /// the loop variable.
        std::vector<std::int64_t> ivCoeff;
        bool execVaries = false;
    };

    void buildPlans();
    void execBlock(const std::vector<Stmt*>& block);
    /// execBlock starting at `start` (resume + goto continuation).
    void execBlockFrom(const std::vector<Stmt*>& block, size_t start);
    void execStmt(const Stmt* s);
    /// Per-instance accounting every executed Assign/If pays: proc
    /// statements, guard accounting, and the profiler's instance row.
    void beginInstance(const Stmt* s, const std::vector<int>& execs);
    /// The one execution path of an Assign/If instance, given each
    /// fetch slot's store element index and, for an Assign, the lhs
    /// element index after them (`elems`). The merge phase scans slot
    /// validity and applies the misses in place (slot-major lane order,
    /// one transfer per processor and element, per-instance event memo;
    /// every transfer rides the armed transport). The eval phase runs
    /// the value chunk and stores an Assign's result on the executors:
    /// a lane-uniform statement runs the chunk once on the oracle and
    /// broadcasts its value, a divergent Assign runs it once per
    /// executor lane (laneValues). Armed telemetry and the profiler
    /// tick their eval and merge samplers once per instance. Returns
    /// the oracle chunk's value.
    double runInstance(const Stmt* s, const StmtPlan& plan,
                       const std::vector<int>& execs,
                       const std::int64_t* elems);
    /// Apply the misses the last scanSlots found, in place.
    void applyMisses(const StmtPlan& plan, const std::vector<int>& execs);
    /// Run a divergent statement's chunk on every executor lane (slot
    /// rows from the last scanSlots, every executor valid after
    /// applyMisses); lane i's value is left in laneRegs_[i].
    void laneValues(const StmtPlan& plan, const std::vector<int>& execs);
    /// Store `iv` into loop variable of `s` on the oracle and every
    /// processor.
    void setLoopVar(const Stmt* s, std::int64_t iv);
    /// Iterations iv, iv+step, ... up to `ub` of Do statement `s`:
    /// through the loop driver when the loop is eligible, else one body
    /// statement at a time.
    void runIterations(const Stmt* s, std::int64_t iv, std::int64_t ub,
                       std::int64_t step);
    /// Loop driver: evaluates every body statement's index forms once
    /// at loop entry, then advances each element index by its
    /// per-iteration increment and recomputes a singleton owner only
    /// when its form depends on the loop variable; every instance runs
    /// runInstance. Returns false, having executed nothing, when
    /// the loop has no iterations or an index would leave its array —
    /// the per-statement path then runs (and reports) it.
    bool runLoopKernel(const Stmt* s, std::int64_t lb, std::int64_t ub,
                       std::int64_t step);
    /// Eligibility of innermost Do `s` for the loop driver: a body of
    /// unlabelled lane-uniform Assigns guarded All or singleton OwnerOf,
    /// every slot/lhs/executor index form affine, and no body statement
    /// assigning the loop variable or any symbol those forms read.
    /// Fills the body plans' ivCoeff/execVaries when eligible.
    bool planLoopKernel(const Stmt* s);
    /// Debug check: the driver's element indices equal the forms
    /// evaluated on the oracle.
    bool loopInputsMatch(const Stmt* s, const StmtPlan& plan,
                         const std::int64_t* elems);
    /// One iteration of Do statement `s`'s body, with the forward-goto
    /// continuation handling.
    void execLoopBody(const Stmt* s);
    /// Loop-end global reduction combines of `s` (a Do statement).
    void runCombines(const Stmt* s);
    /// Statement-boundary hook of the recovery layer: cancellation,
    /// proc.crash polling, periodic checkpoints. Only called when
    /// boundaryArmed_.
    void boundary(const Stmt* s);
    void takeCheckpoint(const Stmt* boundaryStmt);
    void restoreCheckpoint();
    /// Re-enter `block` along the checkpoint's resume path at `depth`.
    void resumeInto(const std::vector<Stmt*>& block, size_t depth);
    /// Resume a Do frame: finish the checkpointed iteration via the
    /// path, then iterate on with the frame's captured bounds.
    void resumeDo(const CtrlFrame& f, size_t depth);
    /// Set of linear proc ids executing statement `s` now. Returns a
    /// reference to a per-instance scratch (or the constant all-procs
    /// set); valid until the next call.
    [[nodiscard]] const std::vector<int>& executorsOf(const Stmt* s);
    /// Evaluate the index forms of statement `s` on the oracle: flat
    /// index and store element index of every fetch slot, then of an
    /// Assign's lhs, into slotFlat_/slotElem_.
    void resolveSlotIndices(const Stmt* s, const StmtPlan& plan);
    /// Check every fetch slot (store element indices `elems`) on the
    /// executors: SoA row, pre-resolve each slot some executor misses,
    /// and flag the slots every executor holds. Returns true when no
    /// executor misses any slot.
    bool scanSlots(const StmtPlan& plan, const std::vector<int>& execs,
                   const std::int64_t* elems);
    /// The statement's value chunk run once on the oracle's store.
    [[nodiscard]] double oracleValue(const StmtPlan& plan,
                                     const std::int64_t* elems);
    /// Sampling window of one eval or merge phase for the armed
    /// observers. startPhase advances the telemetry and profiler ticks
    /// (so the sample schedule is one per phase whether or not it is
    /// timed) and reads the clock only for a sampled phase; stop()
    /// records the elapsed time into whichever sampler chose it.
    struct PhaseClock {
        obs::Histogram* hist = nullptr;
        obs::StmtProfile* prof = nullptr;
        bool merge = false;
        std::chrono::steady_clock::time_point t0;
        void stop() const {
            if (hist != nullptr || prof != nullptr) record();
        }
        void record() const;
    };
    [[nodiscard]] PhaseClock startPhase(bool merge) {
        // Telemetry is opt-in (the histograms are resolved once in
        // setTelemetry): unarmed runs pay two null checks per phase.
        // Armed runs sample 1 in kTelemetrySample phases — timing a
        // phase costs more than the phase. The profiler keeps its own
        // ticks (checkpointed with the profile), so its sample schedule
        // is deterministic even across recovery.
        PhaseClock c;
        c.merge = merge;
        obs::Histogram* hist = merge ? mergeHist_ : evalHist_;
        if (hist != nullptr &&
            ((merge ? mergeTick_ : evalTick_)++ & (kTelemetrySample - 1)) == 0)
            c.hist = hist;
        if (profile_ != nullptr &&
            (merge ? profile_->sampleMerge() : profile_->sampleEval()))
            c.prof = profile_.get();
        if (c.hist != nullptr || c.prof != nullptr)
            c.t0 = std::chrono::steady_clock::now();
        return c;
    }
    /// Resolve slot's miss once per instance, before any miss is
    /// applied (every missing lane gets the identical value and source
    /// processor).
    void resolveSlotMiss(const StmtPlan& plan, int slot, int firstProc);
    /// SoA row base (element * procCount) of (sym, flat). The banks
    /// share the oracle store's element layout, so the row is
    /// bounds-checked through Store::elemIndexOf like any store access.
    [[nodiscard]] std::int64_t soaRowOf(SymbolId sym,
                                        std::int64_t flat) const {
        return oracle_.store().elemIndexOf(sym, flat) * procCount_;
    }
    /// Write `v` valid to every processor's copy of scalar/element
    /// (sym, flat) in the SoA banks (loop-variable and combine
    /// broadcasts).
    void soaBroadcast(SymbolId sym, std::int64_t flat, double v) {
        const std::int64_t row = soaRowOf(sym, flat);
        std::fill(soa_.begin() + row, soa_.begin() + row + procCount_, v);
        std::fill(soaValid_.begin() + row,
                  soaValid_.begin() + row + procCount_,
                  static_cast<char>(1));
    }
    /// Account one element transfer's message event.
    void noteEvent(const CommOp* op);
    /// Per-proc executed/skipped accounting for one statement instance.
    /// Accumulates into flat delta counters (one int per processor, not
    /// a ProcSimMetrics sweep); flushAccounting materializes them.
    void accountExecutors(const std::vector<int>& execs);
    /// Fold the executed/skipped deltas into procMetrics_. Called
    /// wherever procMetrics_ must be externally coherent: checkpoint
    /// capture, run end (normal and fault exits).
    void flushAccounting();
    /// The single processor of a fully-pinned descriptor
    /// (execSingleton / slotSrcSingleton plans).
    [[nodiscard]] int singleProcOfBc(const RefDesc& desc,
                                     const std::vector<bc::IndexForm>& forms);
    /// The owner set of `desc` through its precompiled subscript forms
    /// (one per grid dim, only Partitioned dims present).
    void evalDescIntoBc(const RefDesc& desc,
                        const std::vector<bc::IndexForm>& forms,
                        GridSet& out) const;
    /// Relaxed merge: combine one reduction from the per-processor
    /// partial accumulators in linear processor order.
    [[nodiscard]] double combineRelaxed(const CombinePlan& c) const;
    /// True when `op` may combine relaxed (commutative, and exact for
    /// max/min and integer sums).
    [[nodiscard]] static bool relaxedCombinable(ReductionInfo::Op op) {
        return op == ReductionInfo::Op::Sum || op == ReductionInfo::Op::Max ||
               op == ReductionInfo::Op::Min;
    }

    const SpmdLowering& low_;
    const Program& prog_;
    Interpreter oracle_;
    int procCount_;
    int elemBytes_;
    bool relaxed_;
    TargetKind targetKind_;
    std::int64_t barrierEvents_ = 0;  ///< shm only; see barrierEvents()
    std::vector<ProcSimMetrics> procMetrics_;
    std::int64_t transfers_ = 0;
    std::int64_t procStmts_ = 0;
    std::int64_t loopKernelInstances_ = 0;
    double wallSec_ = 0.0;
    InternedEventSet events_;
    std::vector<std::int64_t> eventsPerOp_;  ///< by CommOp::id (dense)
    std::vector<std::int64_t> elemsPerOp_;   ///< by CommOp::id (dense)

    // --- precomputed execution plan (built once in the constructor) ---
    std::vector<StmtPlan> plans_;               ///< by Stmt::id
    std::vector<const CommOp*> opByRef_;        ///< by Expr::id
    std::vector<std::vector<SymbolId>> opCtxVars_;  ///< by CommOp::id
    std::vector<int> allProcs_;
    /// Bytecode compile-side IR (affine term lists); owns nothing the
    /// compiled StmtCodes point at — safe to keep for arena statistics.
    Arena bcArena_;
    int maxRegs_ = 0;  ///< widest chunk register file across statements

    // --- per-instance scratch (no per-statement allocs) ---
    std::vector<int> execsScratch_;
    GridSet gsScratch_;
    std::vector<int> coordsScratch_;
    std::vector<char> flagsScratch_;
    std::vector<std::int64_t> ctxScratch_;
    /// Per-instance flat index and store element index of each fetch
    /// slot, then of an Assign's lhs (resolved once on the oracle).
    std::vector<std::int64_t> slotFlat_;
    std::vector<std::int64_t> slotElem_;
    std::vector<double> oracleRegs_;  ///< scalar VM register scratch
    /// Lane VM register banks, numRegs x procCount doubles (lane stride
    /// is the processor count).
    std::vector<double> laneRegs_;
    /// The per-processor state, lane-major. Element e of processor p
    /// lives at [e * procCount + p] (e = Store::elemIndexOf on the
    /// oracle's store), so one fetch reads procCount contiguous lanes
    /// and invalidating every copy of an element is a procCount-byte
    /// memset.
    std::vector<double> soa_;
    std::vector<char> soaValid_;
    /// Per-instance slot scratch: SoA row base of each fetch slot, and
    /// the once-per-instance miss memo (resolved value + source
    /// processor).
    std::vector<std::int64_t> slotRow_;
    std::vector<double> slotMissV_;
    std::vector<int> slotMissSrc_;
    /// Per-instance: every executor lane of the slot held a valid copy
    /// at the scan, so applyMisses skips the slot.
    std::vector<char> slotAllValid_;
    /// Guard-accounting deltas since the last flushAccounting(): number
    /// of accounted statement instances, how many of those executed on
    /// every processor (guard All — one counter, no per-proc sweep),
    /// and per-processor executed counts for the rest
    /// (skipped = instances - denseAccounted - executed).
    std::int64_t accountedInstances_ = 0;
    std::int64_t denseAccounted_ = 0;
    std::vector<std::int64_t> execDelta_;
    /// executorsOf scratch for singleton owner sets (always size 1).
    std::vector<int> singleProcScratch_;
    /// Per-instance noteEvent memo: an op whose stamp equals the
    /// current instance's stamp already recorded its event (the event
    /// context is frozen for the whole instance, so a repeat is a
    /// guaranteed duplicate).
    std::vector<std::uint64_t> opStamp_;
    std::uint64_t mergeStamp_ = 0;
    /// Relaxed merge: loop-entry accumulator snapshot by CommOp id.
    std::vector<double> combineInit_;
    /// Loop driver: each body statement's slot and lhs element indices
    /// at the current iteration (statement after statement, as
    /// runInstance reads them), their per-iteration increments, and
    /// each body statement's singleton executor (-1 for guard All).
    std::vector<std::int64_t> loopElem_;
    std::vector<std::int64_t> loopElemStep_;
    std::vector<int> loopOwner_;

    // --- fault injection & recovery (all null/false when disabled) ---
    SimRecoveryConfig rcfg_;
    std::unique_ptr<ReliableTransport> transport_;
    FaultSite* crashSite_ = nullptr;
    /// True when boundary() has any work (crash site, periodic
    /// checkpoints, or an armed cancel token): the only per-statement
    /// cost of the disabled layer is this one branch.
    bool boundaryArmed_ = false;
    /// Maintain ctrl_ frames (true iff a checkpoint can be taken).
    bool trackCtrl_ = false;
    std::int64_t instances_ = 0;  ///< statement-boundary counter
    int recoveries_ = 0;
    std::int64_t checkpointsTaken_ = 0;
    std::vector<CtrlFrame> ctrl_;  ///< live Do/If frames (see CtrlFrame)
    std::unique_ptr<Checkpoint> ckpt_;

    // --- telemetry (all null when not opted in via setTelemetry) ---
    /// 1-in-N phase sampling for the eval/merge histograms (power of
    /// two; the armed-but-idle overhead budget is <2% of the run: at
    /// 1-in-64 the two clock reads and atomic histogram updates of a
    /// sample cost ~5% of a TOMCATV run).
    static constexpr std::uint32_t kTelemetrySample = 1024;
    std::uint32_t evalTick_ = 0;
    std::uint32_t mergeTick_ = 0;
    obs::Histogram* evalHist_ = nullptr;    ///< sim.phase.eval_us
    obs::Histogram* mergeHist_ = nullptr;   ///< sim.phase.merge_us
    obs::Histogram* ckptHist_ = nullptr;    ///< sim.checkpoint_us

    // --- per-statement profiler (null when not opted in) ---
    std::unique_ptr<obs::StmtProfile> profile_;
};

}  // namespace phpf
