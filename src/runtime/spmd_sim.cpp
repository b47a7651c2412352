#include "runtime/spmd_sim.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>

#include "ir/printer.h"
#include "obs/flight_recorder.h"
#include "runtime/vm.h"
#include "support/diagnostics.h"

namespace phpf {

namespace {

/// Calls fn(linearProc) for every processor in `gs`, last grid dimension
/// fastest (the enumeration order the executor/owner sets are defined
/// in). `fn` returns false to stop early; `coords` is caller-provided
/// scratch so the walk never allocates.
template <typename Fn>
void forEachGridProc(const GridSet& gs, const ProcGrid& grid,
                     std::vector<int>& coords, Fn&& fn) {
    const int rank = grid.rank();
    coords.assign(static_cast<size_t>(rank), 0);
    for (int d = 0; d < rank; ++d)
        if (gs.coord[static_cast<size_t>(d)] >= 0)
            coords[static_cast<size_t>(d)] = gs.coord[static_cast<size_t>(d)];
    for (;;) {
        if (!fn(grid.linearize(coords))) return;
        int d = rank - 1;
        for (; d >= 0; --d) {
            if (gs.coord[static_cast<size_t>(d)] >= 0) continue;  // pinned
            if (++coords[static_cast<size_t>(d)] < grid.extent(d)) break;
            coords[static_cast<size_t>(d)] = 0;
        }
        if (d < 0) return;
    }
}

/// Index of the first zero byte in v[0..n), or -1 when every byte is
/// set. Validity bytes are strictly 0/1, so an 8-byte chunk of valid
/// lanes compares equal to kAllValid8 — the common fully-valid row is
/// n/8 compares with no per-byte scan.
constexpr std::uint64_t kAllValid8 = 0x0101010101010101ull;

inline int firstZeroByte(const char* v, int n) {
    int c = 0;
    for (; c + 8 <= n; c += 8) {
        std::uint64_t chunk;
        std::memcpy(&chunk, v + c, sizeof chunk);
        if (chunk == kAllValid8) continue;
        for (int l = c;; ++l)
            if (v[l] == 0) return l;
    }
    for (; c < n; ++c)
        if (v[c] == 0) return c;
    return -1;
}

/// Pops the back of `v` on scope exit when non-null; keeps the control
/// stack balanced on every exit path (return, GotoSignal, CrashSignal).
template <typename V>
class FramePop {
public:
    explicit FramePop(V* v) : v_(v) {}
    ~FramePop() {
        if (v_ != nullptr) v_->pop_back();
    }
    FramePop(const FramePop&) = delete;
    FramePop& operator=(const FramePop&) = delete;

private:
    V* v_;
};

}  // namespace

SpmdSimulator::SpmdSimulator(const SpmdLowering& low, int elemBytes,
                             int threads, SimRecoveryConfig recovery,
                             SimEngine, bool relaxedMerge,
                             TargetKind targetKind)
    : low_(low), prog_(low.program()), oracle_(prog_),
      procCount_(low.dataMapping().grid().totalProcs()),
      elemBytes_(elemBytes),
      threads_(resolveThreadCount(threads, procCount_)),
      relaxed_(relaxedMerge), targetKind_(targetKind) {
    rcfg_ = std::move(recovery);
    if (rcfg_.faults != nullptr && rcfg_.faults->enabled()) {
        const FaultInjector& inj = *rcfg_.faults;
        // No network inside one SMP node: the net.* sites stay unarmed
        // under the shared-memory target (proc.crash still applies).
        if (targetKind_ != TargetKind::SharedMemory &&
            (inj.find(faultsite::kNetDrop) != nullptr ||
             inj.find(faultsite::kNetDup) != nullptr ||
             inj.find(faultsite::kNetDelay) != nullptr))
            transport_ =
                std::make_unique<ReliableTransport>(inj, rcfg_.transport);
        crashSite_ = inj.find(faultsite::kProcCrash);
    }
    // Control frames are needed exactly when a checkpoint can be taken.
    trackCtrl_ = crashSite_ != nullptr || rcfg_.checkpointEvery > 0;
    boundaryArmed_ = trackCtrl_ || rcfg_.cancel.armed();
    procMetrics_.assign(static_cast<size_t>(procCount_), ProcSimMetrics{});
    execDelta_.assign(static_cast<size_t>(procCount_), 0);
    if (threads_ > 1)
        pool_ = std::make_unique<LockstepPool>(threads_, "sim-worker");
    workers_.resize(static_cast<size_t>(threads_));

    allProcs_.resize(static_cast<size_t>(procCount_));
    std::iota(allProcs_.begin(), allProcs_.end(), 0);
    singleProcScratch_.assign(1, 0);
    flagsScratch_.assign(static_cast<size_t>(procCount_), 0);

    const size_t nOps = low_.commOps().size();
    opStamp_.assign(std::max<size_t>(nOps, 1), 0);
    eventsPerOp_.assign(nOps, 0);
    elemsPerOp_.assign(nOps, 0);
    opByRef_.assign(static_cast<size_t>(prog_.exprCount()), nullptr);
    opCtxVars_.resize(nOps);
    for (const CommOp& op : low_.commOps()) {
        PHPF_ASSERT(op.id >= 0 && static_cast<size_t>(op.id) < nOps,
                    "comm op ids must be dense");
        if (!op.isReductionCombine)
            opByRef_[static_cast<size_t>(op.ref->id)] = &op;
        // The iteration-vector context of the op's events: loop indices
        // of the enclosing loops at or above the placement level.
        for (const Stmt* l : prog_.enclosingLoops(op.atStmt)) {
            if (l->loopNestingLevel() > op.placementLevel) break;
            opCtxVars_[static_cast<size_t>(op.id)].push_back(l->loopVar);
        }
    }
    combineInit_.assign(nOps, 0.0);
    buildPlans();
    size_t maxSlots = 1;
    for (const StmtPlan& p : plans_)
        maxSlots = std::max(maxSlots, p.code.slots.size());
    // One more entry for an Assign's lhs after its slots.
    slotFlat_.assign(maxSlots + 1, 0);
    slotElem_.assign(maxSlots + 1, 0);
    slotRow_.assign(maxSlots, 0);
    slotMissV_.assign(maxSlots, 0.0);
    slotMissSrc_.assign(maxSlots, -1);
    slotMissResolved_.assign(maxSlots, 0);
    slotAllValid_.assign(maxSlots, 0);
    const size_t lanes = static_cast<size_t>(procCount_) *
                         static_cast<size_t>(oracle_.store().totalElems());
    soa_.assign(lanes, 0.0);
    soaValid_.assign(lanes, 0);
    oracleRegs_.assign(static_cast<size_t>(std::max(maxRegs_, 1)), 0.0);
    // SoA lane banks: one bank of procCount doubles per register, per
    // worker (a worker's lane chunk never exceeds procCount).
    for (WorkerScratch& w : workers_)
        w.regs.assign(static_cast<size_t>(std::max(maxRegs_, 1)) *
                          static_cast<size_t>(procCount_),
                      0.0);
}

void SpmdSimulator::setTelemetry(obs::MetricRegistry* metrics,
                                 obs::Tracer* tracer) {
    metrics_ = metrics;
    tracer_ = tracer;
    evalHist_ =
        metrics != nullptr ? &metrics->histogram("sim.phase.eval_us") : nullptr;
    mergeHist_ = metrics != nullptr ? &metrics->histogram("sim.phase.merge_us")
                                    : nullptr;
    ckptHist_ =
        metrics != nullptr ? &metrics->histogram("sim.checkpoint_us") : nullptr;
}

void SpmdSimulator::buildPlans() {
    plans_.resize(static_cast<size_t>(prog_.stmtCount()));
    for (const auto& r : low_.reductions()) {
        if (r.stmt != nullptr)
            plans_[static_cast<size_t>(r.stmt->id)].isReductionAcc = true;
        if (r.locStmt != nullptr)
            plans_[static_cast<size_t>(r.locStmt->id)].isReductionAcc = true;
    }
    prog_.forEachStmt([&](const Stmt* s) {
        StmtPlan& plan = plans_[static_cast<size_t>(s->id)];
        switch (s->kind) {
            case StmtKind::Assign:
            case StmtKind::If: {
                plan.exec = &low_.execOf(s);
                if (plan.exec->guard != StmtExec::Guard::Union) break;
                // Section 2.1 / 4: executed by the union of all
                // processors executing any other statement inside the
                // loop for this iteration. Only statements in the same
                // iteration context (enclosing loops a subset of ours)
                // contribute — their owner descriptors are evaluable
                // right when the instance executes.
                const auto loops = prog_.enclosingLoops(s);
                if (loops.empty()) break;
                const Stmt* innermost = loops.back();
                prog_.forEachStmt([&](const Stmt* t) {
                    if (t == s || t->kind != StmtKind::Assign) return;
                    if (!Program::isInsideLoop(t, innermost)) return;
                    if (prog_.enclosingLoops(t).size() != loops.size())
                        return;
                    const StmtExec& tex = low_.execOf(t);
                    if (tex.guard != StmtExec::Guard::OwnerOf) return;
                    plan.unionSrcs.push_back(&tex.execDesc);
                });
                break;
            }
            case StmtKind::Do: {
                // Global combines for reductions whose nest ends here,
                // in comm-op order.
                for (const CommOp& op : low_.commOps()) {
                    if (!op.isReductionCombine) continue;
                    const ReductionInfo* red = nullptr;
                    for (const auto& r : low_.reductions())
                        if (r.stmt == op.atStmt) red = &r;
                    if (red == nullptr || red->loops.front() != s) continue;
                    plan.combines.push_back(CombinePlan{&op, red});
                }
                break;
            }
            case StmtKind::Goto:
            case StmtKind::Continue:
                break;
        }
        if (s->kind == StmtKind::Assign || s->kind == StmtKind::If) {
            plan.code = bc::compileStmt(prog_, s, plan.exec, plan.unionSrcs,
                                        bcArena_);
            vm::validate(plan.code.value,
                         static_cast<int>(plan.code.slots.size()));
            maxRegs_ = std::max(maxRegs_, plan.code.value.numRegs);
            // Source-descriptor forms per fetch slot, so per-phase miss
            // resolution evaluates a few affine terms instead of the
            // descriptor's subscript trees.
            plan.slotOp.resize(plan.code.slots.size(), nullptr);
            plan.slotSrcForms.resize(plan.code.slots.size());
            plan.slotSrcSingleton.resize(plan.code.slots.size(), 0);
            const auto isSingleton = [](const RefDesc& d) {
                for (const RefDim& dim : d.dims)
                    if (dim.kind == RefDim::Kind::Replicated) return false;
                return true;
            };
            plan.execSingleton = plan.exec->guard == StmtExec::Guard::OwnerOf &&
                                 isSingleton(plan.exec->execDesc);
            for (size_t i = 0; i < plan.code.slots.size(); ++i) {
                const CommOp* op = opByRef_[static_cast<size_t>(
                    plan.code.slots[i].ref->id)];
                plan.slotOp[i] = op;
                if (op != nullptr) {
                    plan.slotSrcForms[i] =
                        bc::compileDescForms(prog_, op->srcDesc, bcArena_);
                    plan.slotSrcSingleton[i] =
                        isSingleton(op->srcDesc) ? 1 : 0;
                }
            }
        }
    });
    // Lane-uniformity analysis. A symbol is *divergent* when valid
    // per-processor copies of it may differ from the oracle's value:
    // reduction accumulators (each processor accumulates privately),
    // and transitively any symbol assigned from a divergent read. A
    // phase whose statement is not an accumulation and fetches only
    // non-divergent symbols computes the oracle's value on every lane
    // (a valid copy of a non-divergent symbol always equals the oracle,
    // and a miss resolves from a valid copy), so the per-lane VM run is
    // redundant — only the communication accounting is.
    std::vector<char> divergent(prog_.symbols.size(), 0);
    for (const auto& r : low_.reductions()) {
        if (r.scalar != kNoSymbol) divergent[static_cast<size_t>(r.scalar)] = 1;
        if (r.locScalar != kNoSymbol)
            divergent[static_cast<size_t>(r.locScalar)] = 1;
        if (r.stmt != nullptr)
            divergent[static_cast<size_t>(r.stmt->lhs->sym)] = 1;
        if (r.locStmt != nullptr)
            divergent[static_cast<size_t>(r.locStmt->lhs->sym)] = 1;
    }
    bool changed = true;
    while (changed) {
        changed = false;
        prog_.forEachStmt([&](const Stmt* s) {
            if (s->kind != StmtKind::Assign) return;
            if (divergent[static_cast<size_t>(s->lhs->sym)] != 0) return;
            for (const bc::FetchSlot& r :
                 plans_[static_cast<size_t>(s->id)].code.slots) {
                if (divergent[static_cast<size_t>(r.sym)] == 0) continue;
                divergent[static_cast<size_t>(s->lhs->sym)] = 1;
                changed = true;
                break;
            }
        });
    }
    prog_.forEachStmt([&](const Stmt* s) {
        if (s->kind != StmtKind::Assign && s->kind != StmtKind::If) return;
        StmtPlan& plan = plans_[static_cast<size_t>(s->id)];
        bool uniform = !plan.isReductionAcc;
        for (const bc::FetchSlot& r : plan.code.slots)
            if (divergent[static_cast<size_t>(r.sym)] != 0) uniform = false;
        plan.laneUniform = uniform;
    });
    prog_.forEachStmt([&](const Stmt* s) {
        if (s->kind == StmtKind::Do)
            plans_[static_cast<size_t>(s->id)].loopKernel = planLoopKernel(s);
    });
}

bool SpmdSimulator::planLoopKernel(const Stmt* s) {
    if (s->body.empty()) return false;
    // Symbols the body's index forms read, and symbols the body assigns.
    std::vector<SymbolId> read;
    std::vector<SymbolId> assigned;
    // The loop-variable coefficient of an affine form (recording the
    // symbols it reads); nullopt for a non-affine form.
    const auto ivCoeff =
        [&](const bc::IndexForm& f) -> std::optional<std::int64_t> {
        if (!f.affine) return std::nullopt;
        std::int64_t c = 0;
        for (const bc::IndexForm::Term& t : f.terms) {
            read.push_back(t.sym);
            if (t.sym == s->loopVar) c += t.coeff;
        }
        return c;
    };
    for (const Stmt* b : s->body) {
        if (b->kind != StmtKind::Assign || b->label >= 0) return false;
        StmtPlan& plan = plans_[static_cast<size_t>(b->id)];
        const StmtExec::Guard guard = plan.exec->guard;
        if (!plan.laneUniform || guard == StmtExec::Guard::Union ||
            (guard == StmtExec::Guard::OwnerOf && !plan.execSingleton))
            return false;
        const size_t n = plan.code.slots.size();
        plan.ivCoeff.assign(n + 1, 0);
        plan.execVaries = false;
        if (guard == StmtExec::Guard::OwnerOf)
            for (size_t g = 0; g < plan.code.execIndex.size(); ++g) {
                if (plan.exec->execDesc.dims[g].kind !=
                    RefDim::Kind::Partitioned)
                    continue;
                const auto c = ivCoeff(plan.code.execIndex[g]);
                if (!c) return false;
                plan.execVaries = plan.execVaries || *c != 0;
            }
        for (size_t i = 0; i < n; ++i) {
            if (!plan.code.slots[i].isArray) continue;
            const auto c = ivCoeff(plan.code.slotIndex[i]);
            if (!c) return false;
            plan.ivCoeff[i] = *c;
        }
        if (b->lhs->kind == ExprKind::ArrayRef) {
            const auto c = ivCoeff(plan.code.lhsIndex);
            if (!c) return false;
            plan.ivCoeff[n] = *c;
        } else {
            assigned.push_back(b->lhs->sym);
        }
    }
    for (const SymbolId a : assigned)
        if (a == s->loopVar ||
            std::find(read.begin(), read.end(), a) != read.end())
            return false;
    return true;
}

void SpmdSimulator::evalDescIntoBc(const RefDesc& desc,
                                   const std::vector<bc::IndexForm>& forms,
                                   GridSet& out) const {
    const ProcGrid& grid = low_.dataMapping().grid();
    out.coord.assign(static_cast<size_t>(grid.rank()), -1);
    for (int g = 0; g < grid.rank(); ++g) {
        const RefDim& dim = desc.dims[static_cast<size_t>(g)];
        switch (dim.kind) {
            case RefDim::Kind::Replicated:
                break;
            case RefDim::Kind::Fixed:
                out.coord[static_cast<size_t>(g)] = dim.fixedCoord;
                break;
            case RefDim::Kind::Partitioned: {
                const std::int64_t v = bc::evalIndexForm(
                    forms[static_cast<size_t>(g)], oracle_);
                out.coord[static_cast<size_t>(g)] =
                    dim.dist.ownerOf(v + dim.offset);
                break;
            }
        }
    }
}

int SpmdSimulator::singleProcOfBc(const RefDesc& desc,
                                  const std::vector<bc::IndexForm>& forms) {
    // Every grid dim is Fixed or Partitioned: compute the one
    // coordinate vector directly, skipping the GridSet enumeration.
    const ProcGrid& grid = low_.dataMapping().grid();
    const int rank = grid.rank();
    coordsScratch_.resize(static_cast<size_t>(rank));
    for (int g = 0; g < rank; ++g) {
        const RefDim& dim = desc.dims[static_cast<size_t>(g)];
        coordsScratch_[static_cast<size_t>(g)] =
            dim.kind == RefDim::Kind::Fixed
                ? dim.fixedCoord
                : dim.dist.ownerOf(
                      bc::evalIndexForm(forms[static_cast<size_t>(g)],
                                        oracle_) +
                      dim.offset);
    }
    return grid.linearize(coordsScratch_);
}

const std::vector<int>& SpmdSimulator::executorsOf(const Stmt* s) {
    const StmtPlan& plan = plans_[static_cast<size_t>(s->id)];
    const ProcGrid& grid = low_.dataMapping().grid();
    switch (plan.exec->guard) {
        case StmtExec::Guard::All:
            return allProcs_;
        case StmtExec::Guard::OwnerOf:
            if (plan.execSingleton) {
                singleProcScratch_[0] =
                    singleProcOfBc(plan.exec->execDesc, plan.code.execIndex);
                return singleProcScratch_;
            }
            execsScratch_.clear();
            evalDescIntoBc(plan.exec->execDesc, plan.code.execIndex,
                           gsScratch_);
            forEachGridProc(gsScratch_, grid, coordsScratch_, [&](int p) {
                execsScratch_.push_back(p);
                return true;
            });
            return execsScratch_;
        case StmtExec::Guard::Union: {
            if (plan.unionSrcs.empty()) return allProcs_;
            std::fill(flagsScratch_.begin(), flagsScratch_.end(), 0);
            for (size_t i = 0; i < plan.unionSrcs.size(); ++i) {
                evalDescIntoBc(*plan.unionSrcs[i], plan.code.unionIndex[i],
                               gsScratch_);
                forEachGridProc(gsScratch_, grid, coordsScratch_, [&](int p) {
                    flagsScratch_[static_cast<size_t>(p)] = 1;
                    return true;
                });
            }
            execsScratch_.clear();
            for (int p = 0; p < procCount_; ++p)
                if (flagsScratch_[static_cast<size_t>(p)] != 0)
                    execsScratch_.push_back(p);
            if (execsScratch_.empty()) return allProcs_;
            return execsScratch_;
        }
    }
    return allProcs_;
}

void SpmdSimulator::noteEvent(const CommOp* op) {
    ctxScratch_.clear();
    for (const SymbolId v : opCtxVars_[static_cast<size_t>(op->id)])
        ctxScratch_.push_back(
            static_cast<std::int64_t>(oracle_.store().get(v)));
    if (events_.record(op->id, ctxScratch_)) {
        ++eventsPerOp_[static_cast<size_t>(op->id)];
        // Shared memory: each distinct sync event is one barrier epoch
        // (producers reach the barrier, consumers read the lines).
        if (targetKind_ == TargetKind::SharedMemory) ++barrierEvents_;
        if (profile_ != nullptr) profile_->addEvent();
    }
}

void SpmdSimulator::runLanesInto(WorkerScratch& w, const StmtPlan& plan,
                                 const std::vector<int>& execs, std::int64_t b,
                                 std::int64_t e) {
    const bc::StmtCode& code = plan.code;
    const int lanes = static_cast<int>(e - b);
    if (lanes <= 0) return;
    const int* lp = execs.data() + b;
    const std::int64_t* rows = slotRow_.data();
    const double* soa = soa_.data();
    const char* soaValid = soaValid_.data();
    const char* allValid = slotAllValid_.data();
    // Dense lane sets (guard All) index procs 0..P-1 in order, so a
    // fully-valid slot row is one contiguous copy.
    const bool dense = &execs == &allProcs_;
    vm::runLanes(
        code.value, lanes, w.regs.data(), procCount_,
        [&](double* d, int n, int slot) {
            // Lane-major SoA: every lane of one slot reads from the
            // same procCount-wide contiguous row.
            const std::int64_t row = rows[slot];
            if (allValid[slot] != 0) {
                if (dense) {
                    std::memcpy(d, soa + row + b,
                                static_cast<size_t>(n) * sizeof(double));
                } else {
                    for (int l = 0; l < n; ++l) d[l] = soa[row + lp[l]];
                }
                return;
            }
            for (int l = 0; l < n; ++l) {
                const std::int64_t at = row + lp[l];
                d[l] = soaValid[at] != 0 ? soa[at]
                                         : missLaneBc(w, lp[l], plan, slot);
            }
        });
    std::copy(w.regs.data(), w.regs.data() + lanes, values_.data() + b);
}

double SpmdSimulator::missLaneBc(WorkerScratch& w, int proc,
                                 const StmtPlan& plan, int slot) {
    const bc::FetchSlot& sl = plan.code.slots[static_cast<size_t>(slot)];
    const std::int64_t flat = sl.isArray ? slotFlat_[static_cast<size_t>(slot)]
                                         : 0;
    // A copy this processor already fetched earlier in the same phase
    // (a second slot aliasing the same element at runtime).
    for (const PendingWrite& pw : w.pending)
        if (pw.proc == proc && pw.sym == sl.sym && pw.flat == flat)
            return pw.v;
    PHPF_DASSERT(slotMissResolved_[static_cast<size_t>(slot)] != 0,
                 "lane miss on a slot the phase pre-resolution skipped");
    const double v = slotMissV_[static_cast<size_t>(slot)];
    w.pending.push_back(PendingWrite{proc, sl.sym, flat, v});
    w.misses.push_back(MissRecord{plan.slotOp[static_cast<size_t>(slot)], proc,
                                  slotMissSrc_[static_cast<size_t>(slot)]});
    return v;
}

void SpmdSimulator::resolveSlotMiss(const StmtPlan& plan, int slot,
                                    int firstProc) {
    const bc::FetchSlot& sl = plan.code.slots[static_cast<size_t>(slot)];
    const CommOp* op = plan.slotOp[static_cast<size_t>(slot)];
    PHPF_ASSERT(op != nullptr,
                "processor " + std::to_string(firstProc) +
                    " reads unavailable data with no communication op: " +
                    printExpr(prog_, sl.ref) + " (program " + prog_.name + ")");
    // Owner validity is frozen within a phase (store writes are deferred
    // to the barrier), so one (value, source) resolution is exact for
    // every missing lane — a per-lane scan would find the identical
    // holder in the identical order.
    const std::int64_t row = slotRow_[static_cast<size_t>(slot)];
    double v = 0.0;
    int src = -1;
    if (plan.slotSrcSingleton[static_cast<size_t>(slot)] != 0) {
        const int p = singleProcOfBc(
            op->srcDesc, plan.slotSrcForms[static_cast<size_t>(slot)]);
        if (soaValid_[static_cast<size_t>(row + p)] != 0) {
            v = soa_[static_cast<size_t>(row + p)];
            src = p;
        }
    } else {
        const ProcGrid& grid = low_.dataMapping().grid();
        evalDescIntoBc(op->srcDesc,
                       plan.slotSrcForms[static_cast<size_t>(slot)],
                       gsScratch_);
        forEachGridProc(gsScratch_, grid, coordsScratch_, [&](int p) {
            if (soaValid_[static_cast<size_t>(row + p)] == 0) return true;
            v = soa_[static_cast<size_t>(row + p)];
            src = p;
            return false;
        });
    }
    PHPF_ASSERT(src >= 0, "no owner holds a valid copy of " +
                              printExpr(prog_, sl.ref) + " in program " +
                              prog_.name);
    slotMissV_[static_cast<size_t>(slot)] = v;
    slotMissSrc_[static_cast<size_t>(slot)] = src;
    slotMissResolved_[static_cast<size_t>(slot)] = 1;
}

void SpmdSimulator::storeLanes(SymbolId sym, std::int64_t flat,
                               const std::vector<int>& execs, size_t b,
                               size_t e) {
    const std::int64_t row = soaRowOf(sym, flat);
    for (size_t i = b; i < e; ++i) {
        soa_[static_cast<size_t>(row + execs[i])] = values_[i];
        soaValid_[static_cast<size_t>(row + execs[i])] = 1;
    }
}

void SpmdSimulator::phaseWorker(int worker) {
    WorkerScratch& ws = workers_[static_cast<size_t>(worker)];
    try {
        const std::vector<int>& execs = *phaseExecs_;
        const auto [b, e] = LockstepPool::chunkOf(
            static_cast<std::int64_t>(execs.size()), worker, threads_);
        runLanesInto(ws, *phasePlan_, execs, b, e);
        // Relaxed mode: each executor commits its private reduction
        // accumulator immediately. Only lanes in [b, e) are written, so
        // workers never touch the same processor's copy; any
        // cross-processor read of the accumulator inside the loop would
        // have tripped the no-communication-op assert in strict mode as
        // well.
        if (phaseDirect_ != kNoSymbol)
            storeLanes(phaseDirect_, 0, execs, static_cast<size_t>(b),
                       static_cast<size_t>(e));
    } catch (...) {
        ws.error = std::current_exception();
    }
}

void SpmdSimulator::resolveSlotIndices(const Stmt* s, const StmtPlan& plan) {
    const std::vector<bc::FetchSlot>& slots = plan.code.slots;
    const Store& ref = oracle_.store();
    // Subscripts are iteration-dependent but identical on every
    // executor: resolve them once on the oracle.
    for (size_t i = 0; i < slots.size(); ++i) {
        slotFlat_[i] = slots[i].isArray
                           ? bc::evalIndexForm(plan.code.slotIndex[i], oracle_)
                           : 0;
        slotElem_[i] = ref.elemIndexOf(slots[i].sym, slotFlat_[i]);
    }
    if (s->kind != StmtKind::Assign) return;
    const size_t n = slots.size();
    slotFlat_[n] = s->lhs->kind == ExprKind::ArrayRef
                       ? bc::evalIndexForm(plan.code.lhsIndex, oracle_)
                       : 0;
    slotElem_[n] = ref.elemIndexOf(s->lhs->sym, slotFlat_[n]);
}

bool SpmdSimulator::scanSlots(const StmtPlan& plan,
                              const std::vector<int>& execs,
                              const std::int64_t* elems) {
    const size_t n = plan.code.slots.size();
    const bool dense = &execs == &allProcs_;
    bool clean = true;
    for (size_t i = 0; i < n; ++i) {
        slotRow_[i] = elems[i] * procCount_;
        slotMissResolved_[i] = 0;
        // Pre-resolve every slot some executor will miss: validity is
        // frozen for the whole phase, so the resolution is identical for
        // all lanes, and doing it here (main thread, before the pool)
        // keeps the workers read-only on shared state. A slot every
        // executor holds is flagged so the VM loads it as one contiguous
        // row.
        const char* vrow = soaValid_.data() + slotRow_[i];
        char ok = 1;
        if (dense) {
            const int miss = firstZeroByte(vrow, procCount_);
            if (miss >= 0) {
                ok = 0;
                resolveSlotMiss(plan, static_cast<int>(i), miss);
            }
        } else {
            for (const int p : execs) {
                if (vrow[p] != 0) continue;
                ok = 0;
                resolveSlotMiss(plan, static_cast<int>(i), p);
                break;
            }
        }
        slotAllValid_[i] = ok;
        clean = clean && ok != 0;
    }
    return clean;
}

double SpmdSimulator::oracleValue(const StmtPlan& plan,
                                  const std::int64_t* elems) {
    const double* od = oracle_.store().dataRaw();
    return vm::runScalar(plan.code.value, oracleRegs_.data(),
                         [&](int slot) { return od[elems[slot]]; });
}

void SpmdSimulator::PhaseClock::record() const {
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (hist != nullptr) hist->record(us);
    if (prof == nullptr) return;
    if (merge)
        prof->addMergeSample(us);
    else
        prof->addEvalSample(us);
}

void SpmdSimulator::evalPhase(const StmtPlan& plan,
                              const std::vector<int>& execs,
                              SymbolId directSym) {
    const PhaseClock clock = startPhase(/*merge=*/false);
    const size_t ne = execs.size();
    phaseClean_ = scanSlots(plan, execs, slotElem_.data());
    values_.resize(ne);
    if (pool_ == nullptr || static_cast<int>(ne) < threads_) {
        runLanesInto(workers_[0], plan, execs, 0,
                     static_cast<std::int64_t>(ne));
        if (directSym != kNoSymbol) storeLanes(directSym, 0, execs, 0, ne);
        clock.stop();
        return;
    }
    phaseExecs_ = &execs;
    phasePlan_ = &plan;
    phaseDirect_ = directSym;
    pool_->run(
        [](void* ctx, int worker) {
            static_cast<SpmdSimulator*>(ctx)->phaseWorker(worker);
        },
        this);
    clock.stop();
    for (WorkerScratch& ws : workers_) {
        if (ws.error == nullptr) continue;
        const std::exception_ptr err = ws.error;
        for (WorkerScratch& other : workers_) {
            other.error = nullptr;
            other.pending.clear();
            other.misses.clear();
        }
        std::rethrow_exception(err);
    }
}

void SpmdSimulator::mergeWorkers() {
    const PhaseClock clock = startPhase(/*merge=*/true);
    // Event-context memo: the oracle's scalars are constant for the
    // whole merge, so after noteEvent(op) ran once, repeating it for
    // the same op is a guaranteed duplicate (InternedEventSet::record
    // returns false) — skip the context rebuild and hash probe.
    ++mergeStamp_;
    for (WorkerScratch& ws : workers_) {
        for (const PendingWrite& pw : ws.pending) {
            const std::int64_t at = soaRowOf(pw.sym, pw.flat) + pw.proc;
            soa_[static_cast<size_t>(at)] = pw.v;
            soaValid_[static_cast<size_t>(at)] = 1;
        }
        for (const MissRecord& m : ws.misses) {
            // Lossy-network mode: every element transfer rides the
            // reliable transport. Polled here, on the main thread in
            // deterministic merge order, so a fixed seed reproduces the
            // exact fault schedule for any worker-thread count.
            if (transport_ != nullptr) transport_->deliver("element transfer");
            ++transfers_;
            ++elemsPerOp_[static_cast<size_t>(m.op->id)];
            ++procMetrics_[static_cast<size_t>(m.proc)].recvElements;
            ++procMetrics_[static_cast<size_t>(m.src)].sentElements;
            if (profile_ != nullptr) profile_->addElement();
            std::uint64_t& stamp = opStamp_[static_cast<size_t>(m.op->id)];
            if (stamp != mergeStamp_) {
                noteEvent(m.op);
                stamp = mergeStamp_;
            }
        }
        ws.pending.clear();
        ws.misses.clear();
    }
    clock.stop();
}

void SpmdSimulator::beginInstance(const Stmt* s,
                                  const std::vector<int>& execs) {
    procStmts_ += static_cast<std::int64_t>(execs.size());
    accountExecutors(execs);
    if (profile_ != nullptr) {
        profile_->beginStmt(s->id);
        profile_->addExecutors(execs);
    }
}

void SpmdSimulator::execStmt(const Stmt* s) {
    switch (s->kind) {
        case StmtKind::Assign: {
            if (boundaryArmed_) boundary(s);
            const StmtPlan& plan = plans_[static_cast<size_t>(s->id)];
            const std::vector<int>& execs = executorsOf(s);
            beginInstance(s, execs);
            resolveSlotIndices(s, plan);
            if (plan.laneUniform) {
                uniformKernel(s, plan, execs, slotElem_.data());
                break;
            }
            const size_t lhsAt = plan.code.slots.size();
            const std::int64_t flat = slotFlat_[lhsAt];
            // Relaxed mode: a scalar reduction accumulator is committed
            // by each executor as soon as its lane finishes, skipping
            // the merge-order barrier below. Safe because the combine
            // is commutative and nobody else may read the accumulator
            // mid-loop (no communication op exists for it).
            const bool direct = relaxed_ && plan.isReductionAcc &&
                                s->lhs->kind == ExprKind::VarRef;
            // Evaluate on every executor against the pre-statement state.
            evalPhase(plan, execs, direct ? s->lhs->sym : kNoSymbol);
            if (!phaseClean_ || mergeHist_ != nullptr ||
                profile_ != nullptr)
                mergeWorkers();
            // Apply the statement's effect on the oracle through the
            // same bytecode, so the reference state never pays a tree
            // walk either; the oracle's accounting matches execStmt.
            const double v = oracleValue(plan, slotElem_.data());
            if (!plan.isReductionAcc)
                // Non-executors' copies become stale: one contiguous
                // validity-row clear.
                std::memset(soaValid_.data() + slotElem_[lhsAt] * procCount_,
                            0, static_cast<size_t>(procCount_));
            if (!direct)
                storeLanes(s->lhs->sym, flat, execs, 0, execs.size());
            oracle_.store().set(s->lhs->sym, flat, v);
            oracle_.noteStatementExecuted();
            break;
        }
        case StmtKind::If: {
            if (boundaryArmed_) boundary(s);
            const StmtPlan& plan = plans_[static_cast<size_t>(s->id)];
            const std::vector<int>& execs = executorsOf(s);
            beginInstance(s, execs);
            resolveSlotIndices(s, plan);
            bool taken = false;
            if (plan.laneUniform) {
                taken = uniformKernel(s, plan, execs, slotElem_.data()) != 0.0;
            } else {
                evalPhase(plan, execs);  // predicate comm
                if (!phaseClean_ || mergeHist_ != nullptr ||
                    profile_ != nullptr)
                    mergeWorkers();
                taken = oracleValue(plan, slotElem_.data()) != 0.0;
            }
            if (trackCtrl_) {
                CtrlFrame f;
                f.stmt = s;
                f.taken = taken;
                ctrl_.push_back(f);
            }
            FramePop pop{trackCtrl_ ? &ctrl_ : nullptr};
            if (taken)
                execBlock(s->thenBody);
            else
                execBlock(s->elseBody);
            break;
        }
        case StmtKind::Do: {
            const auto lb = oracle_.evalIndex(s->lb);
            const auto ub = oracle_.evalIndex(s->ub);
            const auto step =
                s->step != nullptr ? oracle_.evalIndex(s->step) : std::int64_t{1};
            if (relaxed_) {
                // Snapshot each commutative accumulator's loop-entry
                // value: the relaxed Sum combine is the exact delta sum
                // init + sum_p (v_p - init), which is order-independent
                // because integer-valued deltas stay exact in doubles.
                for (const CombinePlan& c :
                     plans_[static_cast<size_t>(s->id)].combines)
                    if (relaxedCombinable(c.red->op))
                        combineInit_[static_cast<size_t>(c.op->id)] =
                            oracle_.store().get(c.op->ref->sym);
            }
            if (trackCtrl_) {
                // Bounds captured as evaluated at loop entry; a resumed
                // loop iterates exactly as the original would have.
                CtrlFrame f;
                f.stmt = s;
                f.iv = lb;
                f.ub = ub;
                f.step = step;
                ctrl_.push_back(f);
            }
            {
                FramePop pop{trackCtrl_ ? &ctrl_ : nullptr};
                runIterations(s, lb, ub, step);
            }
            runCombines(s);
            break;
        }
        case StmtKind::Goto:
            throw GotoSignal{s->gotoTarget};
        case StmtKind::Continue:
            break;
    }
}

double SpmdSimulator::uniformKernel(const Stmt* s, const StmtPlan& plan,
                                    const std::vector<int>& execs,
                                    const std::int64_t* elems) {
    // Every lane computes the oracle's value (lane uniformity, see
    // buildPlans): no per-lane VM run, only the communication. The
    // samplers tick as for a deferred eval + merge pair.
    const PhaseClock eval = startPhase(/*merge=*/false);
    const bool clean = scanSlots(plan, execs, elems);
    eval.stop();
    const PhaseClock merge = startPhase(/*merge=*/true);
    if (!clean) applyMisses(plan, execs);
    merge.stop();
    const double v = oracleValue(plan, elems);
    if (s->kind != StmtKind::Assign) return v;
    const std::int64_t elem = elems[plan.code.slots.size()];
    const std::int64_t row = elem * procCount_;
    if (&execs == &allProcs_) {
        std::fill_n(soa_.begin() + row, procCount_, v);
        std::fill_n(soaValid_.begin() + row, procCount_, static_cast<char>(1));
    } else {
        // Non-executors' copies become stale (lane-uniform statements
        // are never reduction accumulations).
        std::memset(soaValid_.data() + row, 0,
                    static_cast<size_t>(procCount_));
        for (const int p : execs) {
            soa_[static_cast<size_t>(row + p)] = v;
            soaValid_[static_cast<size_t>(row + p)] = 1;
        }
    }
    oracle_.store().dataRaw()[elem] = v;
    oracle_.store().validRaw()[elem] = 1;
    oracle_.noteStatementExecuted();
    return v;
}

void SpmdSimulator::applyMisses(const StmtPlan& plan,
                                const std::vector<int>& execs) {
    // Slot-major, lanes in executor order; a slot whose SoA row equals
    // an earlier slot's is skipped (its missing lanes fetched the
    // element there). Mutating a row cannot change a later slot's miss
    // set: an equal row is skipped, a different row is untouched.
    const size_t n = plan.code.slots.size();
    // Event-context memo: the oracle's scalars are constant for the
    // whole instance, so after noteEvent(op) ran once, repeating it for
    // the same op is a guaranteed duplicate.
    ++mergeStamp_;
    for (size_t i = 0; i < n; ++i) {
        if (slotAllValid_[i] != 0) continue;
        bool dup = false;
        for (size_t j = 0; j < i; ++j)
            if (slotRow_[j] == slotRow_[i]) dup = true;
        if (dup) continue;
        const std::int64_t row = slotRow_[i];
        char* vrow = soaValid_.data() + row;
        const double mv = slotMissV_[i];
        const int src = slotMissSrc_[i];
        const CommOp* op = plan.slotOp[i];
        const size_t opId = static_cast<size_t>(op->id);
        for (const int p : execs) {
            if (vrow[p] != 0) continue;
            // Lossy-network mode: every element transfer rides the
            // reliable transport, polled in this deterministic order.
            if (transport_ != nullptr) transport_->deliver("element transfer");
            soa_[static_cast<size_t>(row + p)] = mv;
            vrow[p] = 1;
            ++transfers_;
            ++elemsPerOp_[opId];
            ++procMetrics_[static_cast<size_t>(p)].recvElements;
            ++procMetrics_[static_cast<size_t>(src)].sentElements;
            if (profile_ != nullptr) profile_->addElement();
            std::uint64_t& stamp = opStamp_[opId];
            if (stamp != mergeStamp_) {
                noteEvent(op);
                stamp = mergeStamp_;
            }
        }
    }
}

void SpmdSimulator::setLoopVar(const Stmt* s, std::int64_t iv) {
    oracle_.store().set(s->loopVar, 0, static_cast<double>(iv));
    soaBroadcast(s->loopVar, 0, static_cast<double>(iv));
}

void SpmdSimulator::runIterations(const Stmt* s, std::int64_t iv,
                                  std::int64_t ub, std::int64_t step) {
    if (plans_[static_cast<size_t>(s->id)].loopKernel &&
        runLoopKernel(s, iv, ub, step))
        return;
    for (; step > 0 ? iv <= ub : iv >= ub; iv += step) {
        if (trackCtrl_) ctrl_.back().iv = iv;
        setLoopVar(s, iv);
        execLoopBody(s);
    }
}

bool SpmdSimulator::runLoopKernel(const Stmt* s, std::int64_t lb,
                                  std::int64_t ub, std::int64_t step) {
    if (step == 0) return false;
    const std::int64_t trips =
        step > 0 ? (ub >= lb ? (ub - lb) / step + 1 : 0)
                 : (lb >= ub ? (lb - ub) / -step + 1 : 0);
    if (trips == 0) return false;
    // Every index input at the first iteration, from the oracle. The
    // body assigns none of the symbols the forms read, so an input moves
    // by exactly its loop-variable coefficient times the step. Affine,
    // so an index inside its array at both ends stays inside throughout.
    setLoopVar(s, lb);
    loopElem_.clear();
    loopElemStep_.clear();
    loopOwner_.clear();
    const Store& ref = oracle_.store();
    for (const Stmt* b : s->body) {
        const StmtPlan& plan = plans_[static_cast<size_t>(b->id)];
        resolveSlotIndices(b, plan);
        const size_t n = plan.code.slots.size();
        for (size_t i = 0; i <= n; ++i) {
            const SymbolId sym = i < n ? plan.code.slots[i].sym : b->lhs->sym;
            const std::int64_t d = plan.ivCoeff[i] * step;
            const std::int64_t first = slotFlat_[i];
            const std::int64_t last = first + d * (trips - 1);
            if (std::min(first, last) < 0 ||
                std::max(first, last) >= ref.sizeOf(sym))
                return false;
            loopElem_.push_back(slotElem_[i]);
            loopElemStep_.push_back(d);
        }
        loopOwner_.push_back(
            plan.exec->guard == StmtExec::Guard::OwnerOf
                ? singleProcOfBc(plan.exec->execDesc, plan.code.execIndex)
                : -1);
    }
    std::int64_t iv = lb;
    for (std::int64_t t = 0; t < trips; ++t, iv += step) {
        if (trackCtrl_) ctrl_.back().iv = iv;
        setLoopVar(s, iv);
        const std::int64_t* elems = loopElem_.data();
        for (size_t k = 0; k < s->body.size(); ++k) {
            const Stmt* b = s->body[k];
            const StmtPlan& plan = plans_[static_cast<size_t>(b->id)];
            if (boundaryArmed_) boundary(b);
            const std::vector<int>* execs = &allProcs_;
            if (loopOwner_[k] >= 0) {
                if (plan.execVaries)
                    loopOwner_[k] = singleProcOfBc(plan.exec->execDesc,
                                                   plan.code.execIndex);
                PHPF_DASSERT(loopOwner_[k] ==
                                 singleProcOfBc(plan.exec->execDesc,
                                                plan.code.execIndex),
                             "loop driver executor diverges from its form");
                singleProcScratch_[0] = loopOwner_[k];
                execs = &singleProcScratch_;
            }
            PHPF_DASSERT(loopInputsMatch(b, plan, elems),
                         "loop driver index diverges from its form");
            beginInstance(b, *execs);
            loopKernelInstances_ += static_cast<std::int64_t>(execs->size());
            uniformKernel(b, plan, *execs, elems);
            elems += plan.code.slots.size() + 1;
        }
        for (size_t j = 0; j < loopElem_.size(); ++j)
            loopElem_[j] += loopElemStep_[j];
    }
    return true;
}

bool SpmdSimulator::loopInputsMatch(const Stmt* s, const StmtPlan& plan,
                                    const std::int64_t* elems) {
    resolveSlotIndices(s, plan);
    return std::equal(elems, elems + plan.code.slots.size() + 1,
                      slotElem_.begin());
}

void SpmdSimulator::execLoopBody(const Stmt* s) {
    try {
        execBlock(s->body);
    } catch (GotoSignal& g) {
        for (size_t i = 0; i < s->body.size(); ++i) {
            if (s->body[i]->label == g.label) {
                std::vector<Stmt*> rest(
                    s->body.begin() + static_cast<std::ptrdiff_t>(i),
                    s->body.end());
                execBlock(rest);
                return;
            }
        }
        throw;
    }
}

void SpmdSimulator::runCombines(const Stmt* s) {
    // Apply global combining for reductions whose nest just ended.
    // Their events/transfers are attributed to the loop statement.
    if (profile_ != nullptr &&
        !plans_[static_cast<size_t>(s->id)].combines.empty())
        profile_->setCurrent(s->id);
    for (const CombinePlan& c : plans_[static_cast<size_t>(s->id)].combines) {
        const CommOp& op = *c.op;
        // The combine is a global communication event; it rides the
        // reliable transport like any other transfer.
        if (transport_ != nullptr) transport_->deliver("reduction combine");
        const bool relaxedOp = relaxed_ && relaxedCombinable(c.red->op);
        const double v =
            relaxedOp ? combineRelaxed(c) : oracle_.eval(op.ref);
        // In relaxed mode the combined value is defined by the worker
        // copies, not the oracle's sequential accumulation; write it
        // back so the reference state agrees with the broadcast.
        if (relaxedOp) oracle_.store().set(op.ref->sym, 0, v);
        soaBroadcast(op.ref->sym, 0, v);
        if (c.red->locScalar != kNoSymbol)
            soaBroadcast(c.red->locScalar, 0,
                         oracle_.store().get(c.red->locScalar));
        noteEvent(&op);
        ++transfers_;
        ++elemsPerOp_[static_cast<size_t>(op.id)];
        if (profile_ != nullptr) profile_->addElement();
        // The combine delivers the global result everywhere.
        for (int p = 0; p < procCount_; ++p)
            ++procMetrics_[static_cast<size_t>(p)].recvElements;
    }
}

double SpmdSimulator::combineRelaxed(const CombinePlan& c) const {
    const std::int64_t row = soaRowOf(c.op->ref->sym, 0);
    const auto procVal = [&](int p) {
        return soa_[static_cast<size_t>(row + p)];
    };
    // Only VALID copies participate: a processor whose copy was
    // invalidated (e.g. it did not execute the accumulator's reset
    // assignment) still holds the value from a PREVIOUS reduction nest,
    // not this nest's loop-entry value — combining it would double-count
    // history. Executors always hold valid copies (the direct commit
    // marks them), so at least one copy participates.
    const auto procValid = [&](int p) {
        return soaValid_[static_cast<size_t>(row + p)] != 0;
    };
    switch (c.red->op) {
        case ReductionInfo::Op::Sum: {
            // Delta sum over per-processor accumulator copies. A valid
            // copy on a processor that never executed the reduction
            // statement is exactly the loop-entry value, so its delta
            // is exactly 0.0 and contributes nothing.
            const double init = combineInit_[static_cast<size_t>(c.op->id)];
            double v = init;
            for (int p = 0; p < procCount_; ++p)
                if (procValid(p)) v += procVal(p) - init;
            return v;
        }
        case ReductionInfo::Op::Max: {
            bool seen = false;
            double v = 0.0;
            for (int p = 0; p < procCount_; ++p) {
                if (!procValid(p)) continue;
                v = seen ? std::max(v, procVal(p)) : procVal(p);
                seen = true;
            }
            PHPF_ASSERT(seen, "relaxed Max combine with no valid copy");
            return v;
        }
        case ReductionInfo::Op::Min: {
            bool seen = false;
            double v = 0.0;
            for (int p = 0; p < procCount_; ++p) {
                if (!procValid(p)) continue;
                v = seen ? std::min(v, procVal(p)) : procVal(p);
                seen = true;
            }
            PHPF_ASSERT(seen, "relaxed Min combine with no valid copy");
            return v;
        }
        default:
            break;
    }
    PHPF_ASSERT(false, "combineRelaxed on non-commutative reduction");
    return 0.0;
}

void SpmdSimulator::execBlock(const std::vector<Stmt*>& block) {
    execBlockFrom(block, 0);
}

void SpmdSimulator::execBlockFrom(const std::vector<Stmt*>& block,
                                  size_t start) {
    for (size_t i = start; i < block.size(); ++i) {
        try {
            execStmt(block[i]);
        } catch (GotoSignal& g) {
            bool handled = false;
            for (size_t j = i + 1; j < block.size(); ++j) {
                if (block[j]->label == g.label) {
                    i = j - 1;
                    handled = true;
                    break;
                }
            }
            if (!handled) throw;
        }
    }
}

void SpmdSimulator::boundary(const Stmt* s) {
    if (rcfg_.cancel.cancelled())
        throw SimFault(faultsite::kSimCancel,
                       "simulation cancelled after " +
                           std::to_string(instances_) +
                           " statement instances (deadline or explicit "
                           "cancellation)");
    ++instances_;
    // Crash before checkpointing: the site's poll counter advances even
    // across restores (injector state is deliberately not checkpointed),
    // so a replay eventually gets past a firing poll — no livelock.
    if (FaultInjector::poll(crashSite_)) throw CrashSignal{};
    if (rcfg_.checkpointEvery > 0 && instances_ % rcfg_.checkpointEvery == 0)
        takeCheckpoint(s);
}

void SpmdSimulator::takeCheckpoint(const Stmt* boundaryStmt) {
    std::chrono::steady_clock::time_point t0;
    if (ckptHist_ != nullptr) t0 = std::chrono::steady_clock::now();
    // The checkpoint captures procMetrics_, so fold in the
    // guard-accounting deltas first.
    flushAccounting();
    std::vector<CtrlFrame> path = ctrl_;
    if (boundaryStmt != nullptr) {
        // The boundary statement has not executed yet (the hook runs
        // before any of its side effects), so it re-executes on resume.
        CtrlFrame f;
        f.stmt = boundaryStmt;
        path.push_back(f);
    }
    ckpt_ = std::make_unique<Checkpoint>(Checkpoint{
        soa_, soaValid_, oracle_.store(), oracle_.statementsExecuted(),
        procMetrics_, transfers_, procStmts_, loopKernelInstances_,
        instances_, events_,
        eventsPerOp_, elemsPerOp_, barrierEvents_, combineInit_,
        std::move(path),
        profile_ != nullptr
            ? std::make_unique<obs::StmtProfile>(*profile_)
            : nullptr});
    ++checkpointsTaken_;
    obs::FlightRecorder::global().record(
        "sim.checkpoint", "instances=" + std::to_string(instances_) +
                              " total=" + std::to_string(checkpointsTaken_));
    if (ckptHist_ != nullptr)
        ckptHist_->record(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
}

void SpmdSimulator::restoreCheckpoint() {
    PHPF_ASSERT(ckpt_ != nullptr, "restore without a checkpoint");
    obs::FlightRecorder::global().record(
        "sim.restore", "to_instances=" + std::to_string(ckpt_->instances) +
                           " recovery=" + std::to_string(recoveries_));
    const Checkpoint& ck = *ckpt_;
    soa_ = ck.soa;
    soaValid_ = ck.soaValid;
    oracle_.store() = ck.oracleStore;
    oracle_.setStatementsExecuted(ck.oracleExecuted);
    procMetrics_ = ck.procMetrics;
    transfers_ = ck.transfers;
    procStmts_ = ck.procStmts;
    loopKernelInstances_ = ck.loopKernelInstances;
    instances_ = ck.instances;
    events_ = ck.events;
    eventsPerOp_ = ck.eventsPerOp;
    combineInit_ = ck.combineInit;
    elemsPerOp_ = ck.elemsPerOp;
    barrierEvents_ = ck.barrierEvents;
    if (profile_ != nullptr && ck.profile != nullptr)
        *profile_ = *ck.profile;
    // Accounting since the checkpoint is rolled back with the metrics.
    std::fill(execDelta_.begin(), execDelta_.end(), 0);
    accountedInstances_ = 0;
    denseAccounted_ = 0;
    // The control stack is rebuilt by the resume navigation; worker
    // scratch holds no state at a statement boundary, but clear it
    // defensively.
    ctrl_.clear();
    for (WorkerScratch& w : workers_) {
        w.pending.clear();
        w.misses.clear();
        w.error = nullptr;
    }
}

void SpmdSimulator::resumeInto(const std::vector<Stmt*>& block, size_t depth) {
    const std::vector<CtrlFrame>& path = ckpt_->path;
    PHPF_ASSERT(depth < path.size(), "resume path exhausted");
    const CtrlFrame f = path[depth];  // copy: ckpt_ may be replaced below
    size_t idx = block.size();
    for (size_t i = 0; i < block.size(); ++i) {
        if (block[i] == f.stmt) {
            idx = i;
            break;
        }
    }
    PHPF_ASSERT(idx < block.size(),
                "resume path statement not found in its block");
    if (depth + 1 == path.size()) {
        // The boundary statement itself: the checkpoint preceded its
        // side effects, so re-execute it and the rest of the block.
        execBlockFrom(block, idx);
        return;
    }
    try {
        if (f.stmt->kind == StmtKind::Do) {
            resumeDo(f, depth);
        } else {
            PHPF_ASSERT(f.stmt->kind == StmtKind::If,
                        "resume path frame is neither Do nor If");
            // The If's own evaluation (predicate comm, accounting)
            // happened before the checkpoint; descend straight into the
            // branch that was in execution.
            ctrl_.push_back(f);
            FramePop pop{&ctrl_};
            resumeInto(f.taken ? f.stmt->thenBody : f.stmt->elseBody,
                       depth + 1);
        }
    } catch (GotoSignal& g) {
        for (size_t j = idx + 1; j < block.size(); ++j) {
            if (block[j]->label == g.label) {
                execBlockFrom(block, j);
                return;
            }
        }
        throw;
    }
    execBlockFrom(block, idx + 1);
}

void SpmdSimulator::resumeDo(const CtrlFrame& f, size_t depth) {
    const Stmt* s = f.stmt;
    ctrl_.push_back(f);
    {
        FramePop pop{&ctrl_};
        // The checkpointed iteration: its loop-variable stores are
        // already part of the restored state; finish it from the
        // recorded position.
        try {
            resumeInto(s->body, depth + 1);
        } catch (GotoSignal& g) {
            bool handled = false;
            for (size_t i = 0; i < s->body.size(); ++i) {
                if (s->body[i]->label == g.label) {
                    std::vector<Stmt*> rest(
                        s->body.begin() + static_cast<std::ptrdiff_t>(i),
                        s->body.end());
                    execBlock(rest);
                    handled = true;
                    break;
                }
            }
            if (!handled) throw;
        }
        runIterations(s, f.iv + f.step, f.ub, f.step);
    }
    runCombines(s);
}

void SpmdSimulator::run() {
    const auto t0 = std::chrono::steady_clock::now();
    // Distribute initial (oracle-seeded) data: owners hold their
    // elements, replicated data is everywhere.
    const ProcGrid& grid = low_.dataMapping().grid();
    const Store& input = oracle_.store();
    GridSet owners;
    std::vector<std::int64_t> idx;
    for (const Symbol& sym : prog_.symbols) {
        const ArrayMap& map = low_.dataMapping().mapOf(sym.id);
        if (!sym.isArray()) {
            soaBroadcast(sym.id, 0, input.get(sym.id));
            continue;
        }
        // Enumerate elements and place them on their owners.
        // Elements in flat (column-major) order: an odometer over the
        // subscripts, first dimension fastest.
        const std::int64_t n = input.sizeOf(sym.id);
        if (n == 0) continue;
        idx.resize(static_cast<size_t>(sym.rank()));
        for (int d = 0; d < sym.rank(); ++d)
            idx[static_cast<size_t>(d)] = sym.dims[static_cast<size_t>(d)].lb;
        const std::int64_t base = input.elemIndexOf(sym.id, 0);
        for (std::int64_t elem = base; elem < base + n; ++elem) {
            const double v = input.dataRaw()[elem];
            const std::int64_t row = elem * procCount_;
            map.ownerInto(idx, grid, owners);
            forEachGridProc(owners, grid, coordsScratch_, [&](int p) {
                soa_[static_cast<size_t>(row + p)] = v;
                soaValid_[static_cast<size_t>(row + p)] = 1;
                return true;
            });
            for (size_t d = 0; d < idx.size(); ++d) {
                if (++idx[d] <= sym.dims[d].ub) break;
                idx[d] = sym.dims[d].lb;
            }
        }
    }
    recoveries_ = 0;
    checkpointsTaken_ = 0;
    instances_ = 0;
    ctrl_.clear();
    ckpt_.reset();
    // With crash recovery armed, take the initial checkpoint right after
    // initial distribution — a crash before the first periodic one
    // replays from the start of the program.
    if (crashSite_ != nullptr) takeCheckpoint(nullptr);
    bool resuming = false;
    try {
        for (;;) {
            try {
                if (resuming && !ckpt_->path.empty())
                    resumeInto(prog_.top, 0);
                else
                    execBlock(prog_.top);
                break;
            } catch (CrashSignal&) {
                ++recoveries_;
                if (recoveries_ > rcfg_.maxRecoveries)
                    throw SimFault(
                        faultsite::kProcCrash,
                        "recovery budget exhausted (" +
                            std::to_string(rcfg_.maxRecoveries) +
                            " recoveries; " +
                            std::to_string(checkpointsTaken_) +
                            " checkpoints taken)");
                restoreCheckpoint();
                resuming = true;
            }
        }
    } catch (...) {
        // A SimFault escaping mid-run must still leave the per-proc
        // metrics coherent for post-mortem inspection.
        flushAccounting();
        throw;
    }
    flushAccounting();
    wallSec_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();

    // One tid-stamped span per spawned pool worker, covering the whole
    // run and parented under the caller's current context (normally the
    // driver's sim-exec span). Recorded from each worker's own thread
    // in one final pool kick, so the Chrome trace gets a named
    // "sim-worker-N" row per thread without per-phase span overhead.
    // Worker 0 is the caller; its time is the sim-exec span itself.
    // Category "worker", not "sim": the rows say where threads ran, they
    // are not pipeline stages, so the run report's pass list skips them.
    if (tracer_ != nullptr && tracer_->enabled() && pool_ != nullptr) {
        struct SpanCtx {
            obs::Tracer* tracer;
            obs::SpanContext parent;
            std::int64_t startNs;
            std::int64_t durNs;
        };
        const std::int64_t durNs = static_cast<std::int64_t>(wallSec_ * 1e9);
        SpanCtx sc{tracer_, tracer_->currentContext(),
                   tracer_->nowNs() - durNs, durNs};
        pool_->run(
            [](void* ctx, int worker) {
                if (worker == 0) return;
                const auto* c = static_cast<const SpanCtx*>(ctx);
                const std::string name =
                    "sim-worker-" + std::to_string(worker);
                c->tracer->addCompleteSpan(name.c_str(), "worker", c->startNs,
                                           c->durNs, c->parent);
            },
            &sc);
    }
}

std::int64_t SpmdSimulator::eventsOfOp(int opId) const {
    return opId >= 0 && static_cast<size_t>(opId) < eventsPerOp_.size()
               ? eventsPerOp_[static_cast<size_t>(opId)]
               : 0;
}

std::int64_t SpmdSimulator::elementsOfOp(int opId) const {
    return opId >= 0 && static_cast<size_t>(opId) < elemsPerOp_.size()
               ? elemsPerOp_[static_cast<size_t>(opId)]
               : 0;
}

void SpmdSimulator::accountExecutors(const std::vector<int>& execs) {
    // Guard accounting: processors in `execs` pass their computation-
    // partitioning guard for this statement instance, everyone else
    // evaluates the guard and skips. Skipped = instances - executed, so
    // only the executed counts (dense int64 array, one cache line for typical
    // proc counts — or a single counter for guard-All instances) are
    // touched per instance; flushAccounting materializes the
    // ProcSimMetrics view at run/checkpoint boundaries.
    ++accountedInstances_;
    if (&execs == &allProcs_) {
        ++denseAccounted_;
        return;
    }
    for (const int p : execs) ++execDelta_[static_cast<size_t>(p)];
}

void SpmdSimulator::flushAccounting() {
    if (accountedInstances_ == 0) return;
    for (int p = 0; p < procCount_; ++p) {
        ProcSimMetrics& m = procMetrics_[static_cast<size_t>(p)];
        const std::int64_t executed =
            denseAccounted_ + execDelta_[static_cast<size_t>(p)];
        m.stmtsExecuted += executed;
        m.stmtsSkipped += accountedInstances_ - executed;
        execDelta_[static_cast<size_t>(p)] = 0;
    }
    accountedInstances_ = 0;
    denseAccounted_ = 0;
}

double SpmdSimulator::imbalanceRatio() const {
    std::int64_t total = 0;
    std::int64_t maxExec = 0;
    for (const ProcSimMetrics& m : procMetrics_) {
        total += m.stmtsExecuted;
        maxExec = std::max(maxExec, m.stmtsExecuted);
    }
    if (total == 0) return 0.0;
    const double mean =
        static_cast<double>(total) / static_cast<double>(procCount_);
    return static_cast<double>(maxExec) / mean;
}

double SpmdSimulator::valueOn(int proc, const std::string& name,
                              std::int64_t flat) const {
    const SymbolId s = prog_.findSymbol(name);
    PHPF_ASSERT(s != kNoSymbol, "unknown symbol " + name);
    return soa_[static_cast<size_t>(soaRowOf(s, flat) + proc)];
}

bool SpmdSimulator::validOn(int proc, const std::string& name,
                            std::int64_t flat) const {
    const SymbolId s = prog_.findSymbol(name);
    PHPF_ASSERT(s != kNoSymbol, "unknown symbol " + name);
    return soaValid_[static_cast<size_t>(soaRowOf(s, flat) + proc)] != 0;
}

double SpmdSimulator::maxErrorVsOracle(const std::string& name) const {
    const SymbolId s = prog_.findSymbol(name);
    PHPF_ASSERT(s != kNoSymbol, "unknown symbol " + name);
    double maxErr = 0.0;
    for (std::int64_t flat = 0; flat < oracle_.store().sizeOf(s); ++flat) {
        const double ref = oracle_.store().get(s, flat);
        const std::int64_t row = soaRowOf(s, flat);
        for (int p = 0; p < procCount_; ++p) {
            if (soaValid_[static_cast<size_t>(row + p)] == 0) continue;
            const double v = soa_[static_cast<size_t>(row + p)];
            const double diff = std::abs(v - ref);
            // std::max drops a NaN operand: a NaN difference is a
            // mismatch unless the two values are the same bits.
            if (std::isnan(diff) && std::memcmp(&v, &ref, sizeof v) != 0)
                return std::numeric_limits<double>::infinity();
            maxErr = std::max(maxErr, diff);
        }
    }
    return maxErr;
}

}  // namespace phpf
