#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <map>

#include "driver/compiler.h"
#include "frontend/parser.h"
#include "programs/programs.h"
#include "runtime/bytecode.h"
#include "runtime/vm.h"
#include "sim_golden.h"
#include "support/arena.h"
#include "support/fault.h"

namespace phpf {
namespace {

// =====================================================================
// Arena: the bytecode compiler's bump allocator.

TEST(Arena, BumpAllocatesAlignedStorage) {
    Arena a;
    double* d = a.make<double>(3.5);
    EXPECT_EQ(*d, 3.5);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
    char* c = a.makeArray<char>(3);
    c[0] = 'x';
    std::int64_t* i = a.make<std::int64_t>(-7);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(i) % alignof(std::int64_t),
              0u);
    EXPECT_EQ(*i, -7);
    EXPECT_EQ(*d, 3.5);  // earlier allocations stay intact
}

TEST(Arena, GrowsByChunksAndOversizedRequestsGetTheirOwn) {
    Arena a(64);  // tiny chunk to force growth
    for (int i = 0; i < 32; ++i) *a.make<std::int64_t>(i) = i;
    EXPECT_GT(a.chunkCount(), 1u);
    // One request larger than the chunk size.
    int* big = a.makeArray<int>(1000);
    big[0] = 1;
    big[999] = 2;
    EXPECT_EQ(big[0] + big[999], 3);
    EXPECT_GE(a.bytesAllocated(), 32 * sizeof(std::int64_t) +
                                      1000 * sizeof(int));
}

TEST(Arena, ResetKeepsFirstChunkAndReusesIt) {
    Arena a(256);
    a.make<double>(1.0);      // establish the first (256-byte) chunk
    a.makeArray<char>(1000);  // grow past it
    const size_t grown = a.chunkCount();
    EXPECT_GT(grown, 1u);
    a.reset();
    EXPECT_EQ(a.bytesAllocated(), 0u);
    EXPECT_EQ(a.chunkCount(), 1u);
    double* d = a.make<double>(1.25);
    EXPECT_EQ(*d, 1.25);
}

// =====================================================================
// compileExpr: every statement expression of the paper's kernels
// evaluates bit-identically to the tree-walking interpreter.

/// Scalars hold 4 (a safe mid-range subscript for every kernel's ±1/±2
/// stencils), array elements small deterministic integers — so every
/// subscript an expression evaluates lands in bounds.
void seedEverySymbol(Interpreter& interp, const Program& p) {
    Store& st = interp.store();
    for (size_t s = 0; s < p.symbols.size(); ++s) {
        const auto sym = static_cast<SymbolId>(s);
        const std::int64_t n = st.sizeOf(sym);
        if (n == 1) {
            st.set(sym, 0, 4.0);
            continue;
        }
        for (std::int64_t f = 0; f < n; ++f)
            st.set(sym, f,
                   1.0 + static_cast<double>(
                             (static_cast<std::int64_t>(s) * 131 + f * 17) %
                             7));
    }
}

void expectChunksMatchTreeEval(Program p) {
    p.finalize();
    Interpreter interp(p);
    seedEverySymbol(interp, p);
    int checked = 0;
    p.forEachStmt([&](const Stmt* s) {
        const Expr* e = s->kind == StmtKind::Assign  ? s->rhs
                        : s->kind == StmtKind::If    ? s->cond
                                                     : nullptr;
        if (e == nullptr) return;
        std::vector<bc::FetchSlot> slots;
        const bc::Chunk ch = bc::compileExpr(p, e, slots);
        ASSERT_FALSE(ch.empty());
        vm::validate(ch, static_cast<int>(slots.size()));
        std::vector<double> regs(static_cast<size_t>(ch.numRegs), 0.0);
        const double got =
            vm::runScalar(ch, regs.data(), [&](int slot) {
                const bc::FetchSlot& sl = slots[static_cast<size_t>(slot)];
                return interp.store().get(
                    sl.sym, sl.isArray ? interp.flatIndexOf(sl.ref) : 0);
            });
        EXPECT_EQ(got, interp.eval(e)) << "stmt " << s->id << " of "
                                       << p.name;
        ++checked;
    });
    EXPECT_GT(checked, 0) << p.name;
}

TEST(BytecodeCompile, ChunksMatchInterpreterOnEveryKernelExpression) {
    expectChunksMatchTreeEval(programs::fig1(24));
    expectChunksMatchTreeEval(programs::fig7(16));
    expectChunksMatchTreeEval(programs::fig6(10, 10, 10));
    expectChunksMatchTreeEval(programs::tomcatv(10, 2));
    expectChunksMatchTreeEval(programs::dgefa(12));
    expectChunksMatchTreeEval(programs::appsp(8, 8, 8, 1, /*oneD=*/true));
}

// =====================================================================
// IndexForm: affine strength reduction of subscripts.

TEST(IndexForm, AffineFormsMatchSubscriptTrees) {
    for (int which = 0; which < 3; ++which) {
        Program p = which == 0   ? programs::tomcatv(10, 2)
                    : which == 1 ? programs::dgefa(12)
                                 : programs::appsp(8, 8, 8, 1, true);
        p.finalize();
        Interpreter interp(p);
        seedEverySymbol(interp, p);
        Arena arena;
        int affine = 0;
        int total = 0;
        p.forEachStmt([&](const Stmt* s) {
            if (s->kind != StmtKind::Assign ||
                s->lhs->kind != ExprKind::ArrayRef)
                return;
            const bc::IndexForm f = bc::flatIndexForm(p, s->lhs, arena);
            ASSERT_TRUE(f.present());
            ++total;
            if (f.affine) ++affine;
            EXPECT_EQ(bc::evalIndexForm(f, interp),
                      interp.flatIndexOf(s->lhs))
                << "stmt " << s->id << " of " << p.name;
        });
        EXPECT_GT(total, 0) << p.name;
        // The kernels' subscripts are loop-var affine: strength
        // reduction must actually fire, not just fall back to trees.
        EXPECT_GT(affine, 0) << p.name;
    }
}

// =====================================================================
// Differential: the simulator against golden records
// (tests/golden/spmd_sim.txt; see sim_golden.h) generated while the
// tree-walking and bytecode engines ran side by side and agreed on
// results AND every exposed metric — every kernel and Table 1-3
// compiler level, with the profiler armed, and under checkpoint/crash
// replay — plus oracle error 0 throughout.

/// Every golden block: tests/golden/spmd_sim.txt, plus the loop-driver
/// edge cases in tests/golden/loop_kernel.txt (keys "loop/...").
const std::map<std::string, std::string>& goldens() {
    static const std::map<std::string, std::string> g = [] {
        std::map<std::string, std::string> all;
        for (const char* file : {"/spmd_sim.txt", "/loop_kernel.txt"}) {
            std::ifstream in(std::string(PHPF_GOLDEN_DIR) + file);
            EXPECT_TRUE(in.good()) << "cannot read " PHPF_GOLDEN_DIR << file;
            all.merge(golden::parseGoldens(in));
        }
        return all;
    }();
    return g;
}

/// Checks a finished run against golden block `key` (with `extra`
/// appended to the computed record) and against its oracle.
void expectGolden(const golden::SimCase& k, const Compilation& c,
                  SpmdSimulator& sim, const std::string& key,
                  const std::string& extra = "") {
    const auto it = goldens().find(key);
    ASSERT_NE(it, goldens().end()) << "no golden record [" << key << "]";
    EXPECT_EQ(golden::recordOf(c, sim) + extra, it->second) << key;
    for (const std::string& name : k.outputs)
        EXPECT_EQ(sim.maxErrorVsOracle(name), 0.0) << key << " " << name;
}

golden::SimCase kernelNamed(const std::string& id) {
    for (golden::SimCase& k : golden::kernels())
        if (k.id == id) return k;
    ADD_FAILURE() << "no kernel " << id;
    return {};
}

void expectGoldenRun(const golden::SimCase& k, bool profile) {
    Program p = k.build();
    const Compilation c = k.compile(p);
    auto sim = c.simulate({.seed = k.seed, .profile = profile});
    expectGolden(k, c, *sim, k.id + (profile ? "/profile" : ""));
}

TEST(VmDifferential, EnginesBitIdenticalAcrossKernelsAndThreadCounts) {
    for (const golden::SimCase& k : golden::kernels())
        expectGoldenRun(k, /*profile=*/false);
}

TEST(VmDifferential, PaperTableLevelsMatchGoldens) {
    for (const golden::SimCase& k : golden::paperLevels())
        expectGoldenRun(k, /*profile=*/false);
}

TEST(VmDifferential, ProfilerCountsIdenticalAcrossEngines) {
    // Sample *counts* are part of the record (durations are not).
    for (const golden::SimCase& k : golden::kernels())
        expectGoldenRun(k, /*profile=*/true);
}

/// Runs `k` under proc.crash:nth=17;limit=3 with a checkpoint every 10
/// instances against its plain and /crash goldens.
void expectCrashReplayGolden(const golden::SimCase& k) {
    Program p = k.build();
    const Compilation c = k.compile(p);
    SCOPED_TRACE(k.id);
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("proc.crash:nth=17;limit=3"));
    auto sim =
        c.simulate({.seed = k.seed, .faults = &inj, .checkpointEvery = 10});
    EXPECT_GT(sim->recoveries(), 0);
    EXPECT_GT(sim->checkpointsTaken(), 1);
    // The recovered run is the fault-free run, bit for bit...
    expectGolden(k, c, *sim, k.id);
    // ...after the recorded number of restores.
    expectGolden(k, c, *sim, k.id + "/crash",
                 "recoveries " + std::to_string(sim->recoveries()) +
                     "\ncheckpoints " +
                     std::to_string(sim->checkpointsTaken()) + "\n");
}

TEST(VmDifferential, CrashReplayBitIdenticalOnEitherEngine) {
    for (const char* which : {"tomcatv", "dgefa"})
        expectCrashReplayGolden(kernelNamed(which));
}

TEST(VmDifferential, NanInTheOracleCountsAsAMismatch) {
    // std::max(err, NaN) keeps err, so a max-of-differences fold alone
    // reads a NaN difference as error 0. Plant one under a valid copy.
    const golden::SimCase k = kernelNamed("fig1");
    Program p = k.build();
    const Compilation c = k.compile(p);
    auto sim = c.simulate({.seed = k.seed});
    ASSERT_EQ(sim->maxErrorVsOracle("A"), 0.0);
    std::int64_t flat = 0;
    while (!sim->validOn(0, "A", flat)) ++flat;
    const SymbolId a = c.program().findSymbol("A");
    sim->oracle().store().set(a, flat, std::nan(""));
    EXPECT_NE(sim->maxErrorVsOracle("A"), 0.0);
    EXPECT_TRUE(std::isinf(sim->maxErrorVsOracle("A")));
}

// =====================================================================
// Loop driver: lane-uniform innermost loops run on per-iteration
// element-index increments (SpmdSimulator::runLoopKernel). The edge
// cases' golden records (tests/golden/loop_kernel.txt) were recorded
// before the driver existed, so a driver loop and the per-statement path
// it replaces must leave identical state, metrics and profiles.

TEST(LoopKernel, EdgeCasesMatchGoldensAcrossThreads) {
    for (const golden::SimCase& k : golden::loopEdges())
        expectGoldenRun(k, /*profile=*/false);
}

TEST(LoopKernel, EdgeCasesProfiledMatchGoldens) {
    for (const golden::SimCase& k : golden::loopEdges())
        expectGoldenRun(k, /*profile=*/true);
}

TEST(LoopKernel, EdgeCasesCrashReplayMatchGoldens) {
    for (const golden::SimCase& k : golden::loopEdges())
        expectCrashReplayGolden(k);
}

TEST(LoopKernel, DriverRunsExactlyTheEligibleLoops) {
    const std::map<std::string, std::int64_t> expected = {
        // m's update is Union-guarded (a privatized induction scalar);
        // k is assigned in the body and read by D(k)'s subscript.
        {"loop/induction", 0},
        // The step -1 loop (32 iterations) and the stride-3 loop
        // (1, 4, ..., 28); the zero-trip loop runs nothing.
        {"loop/bounds", 32 + 10},
        // Only the inner loop of the nest (8 x 32 single-owner
        // instances); the IF, GOTO and Union bodies fall back.
        {"loop/fallbacks", 8 * 32},
        // The executor set of R(i) and Q(i) is a grid row.
        {"loop/replicated-owner", 0},
    };
    for (const golden::SimCase& k : golden::loopEdges()) {
        Program p = k.build();
        const Compilation c = k.compile(p);
        auto sim = c.simulate({.seed = k.seed});
        EXPECT_EQ(sim->loopKernelInstances(), expected.at(k.id)) << k.id;
    }
}

TEST(LoopKernel, LoopVariablesKeepTheirLastIterationValue) {
    // loop/bounds: i's last iteration is 28 (stride 3 up to 30); the
    // zero-trip j loop leaves j at the 3 it held before.
    golden::SimCase k;
    for (const golden::SimCase& e : golden::loopEdges())
        if (e.id == "loop/bounds") k = e;
    Program p = k.build();
    const Compilation c = k.compile(p);
    auto sim = c.simulate({.seed = k.seed});
    ASSERT_EQ(sim->loopKernelInstances(), 42);
    const Program& prog = c.program();
    EXPECT_EQ(sim->oracle().store().get(prog.findSymbol("i")), 28.0);
    EXPECT_EQ(sim->oracle().store().get(prog.findSymbol("j")), 3.0);
    for (int proc = 0; proc < sim->procCount(); ++proc) {
        EXPECT_TRUE(sim->validOn(proc, "i"));
        EXPECT_EQ(sim->valueOn(proc, "i"), 28.0);
        EXPECT_EQ(sim->valueOn(proc, "j"), 3.0);
    }
}

TEST(LoopKernel, PaperKernelsRunThroughTheDriver) {
    // The benchmark's configurations: TOMCATV n=128 (2 iterations) and
    // DGEFA n=112, 16 processors, paper mappings.
    TargetConfig opts;
    opts.gridExtents = {16};
    {
        const std::int64_t n = 128;
        Program p = programs::tomcatv(n, 2);
        const Compilation c = Compiler::compile(p, opts);
        auto sim = c.simulate({.seed = [&](Interpreter& o) {
            for (std::int64_t i = 1; i <= n; ++i)
                for (std::int64_t j = 1; j <= n; ++j) {
                    o.setElement("x", {i, j},
                                 static_cast<double>(i) +
                                     0.1 * static_cast<double>(j));
                    o.setElement("y", {i, j},
                                 static_cast<double>(j) -
                                     0.05 * static_cast<double>(i));
                }
        }});
        EXPECT_EQ(sim->statementsExecutedAllProcs(), 349272);
        EXPECT_EQ(sim->loopKernelInstances(),
                  sim->statementsExecutedAllProcs());
        EXPECT_EQ(sim->maxErrorVsOracle("x"), 0.0);
        EXPECT_EQ(sim->maxErrorVsOracle("y"), 0.0);
    }
    {
        const std::int64_t n = 112;
        Program p = programs::dgefa(n);
        const Compilation c = Compiler::compile(p, opts);
        auto sim = c.simulate({.seed = [&](Interpreter& o) {
            for (std::int64_t r = 1; r <= n; ++r)
                for (std::int64_t col = 1; col <= n; ++col)
                    o.setElement("A", {r, col},
                                 r == col ? 10.0 + static_cast<double>(r)
                                          : 1.0 / static_cast<double>(r + col));
        }});
        EXPECT_EQ(sim->statementsExecutedAllProcs(), 494024);
        // Everything but the pivot search, swap and reduction statements.
        EXPECT_GE(sim->loopKernelInstances() * 100,
                  sim->statementsExecutedAllProcs() * 98);
        EXPECT_EQ(sim->maxErrorVsOracle("A"), 0.0);
    }
}

// =====================================================================
// Relaxed reduction merge: exact for MAX/MIN always and for
// integer-valued SUM accumulators; count metrics never change.

/// Bitwise comparison of the two runs' final oracle stores — every
/// symbol, every element, not just the program outputs.
void expectOracleStoresIdentical(SpmdSimulator& a, SpmdSimulator& b) {
    const Store& sa = a.oracle().store();
    const Store& sb = b.oracle().store();
    ASSERT_EQ(sa.totalElems(), sb.totalElems());
    EXPECT_EQ(std::memcmp(sa.dataRaw(), sb.dataRaw(),
                          static_cast<size_t>(sa.totalElems()) *
                              sizeof(double)),
              0);
}

/// fig5: s = sum over A(i,j); integer seeds keep every partial sum
/// integral, so the relaxed reassociation is exact.
void seedFig5(Interpreter& o) {
    for (std::int64_t i = 1; i <= 12; ++i)
        for (std::int64_t j = 1; j <= 12; ++j)
            o.setElement("A", {i, j}, static_cast<double>((i * 3 + j) % 7));
}

Compilation compileFig5(Program& p) {
    TargetConfig opts;
    opts.gridExtents = {2, 2};
    return Compiler::compile(p, opts);
}

TEST(RelaxedMerge, IntegerSumsStayExactWithIdenticalCountMetrics) {
    Program p = programs::fig5(12);
    const Compilation c = compileFig5(p);
    auto strict =
        c.simulate({.seed = seedFig5, .relaxedMerge = false});
    auto relaxed =
        c.simulate({.seed = seedFig5, .relaxedMerge = true});
    EXPECT_FALSE(strict->relaxedMerge());
    EXPECT_TRUE(relaxed->relaxedMerge());
    expectOracleStoresIdentical(*strict, *relaxed);
    EXPECT_EQ(strict->elementTransfers(), relaxed->elementTransfers());
    EXPECT_EQ(strict->messageEvents(), relaxed->messageEvents());
    EXPECT_EQ(strict->statementsExecutedAllProcs(),
              relaxed->statementsExecutedAllProcs());
}

TEST(RelaxedMerge, CrashReplayRestoresThePerProcessorCopies) {
    // Relaxed SUM combines read the per-processor accumulator copies, so
    // a replay must restore their values from the checkpoint, not just
    // their validity (strict combines broadcast the oracle's value).
    Program p = programs::fig5(12);
    const Compilation c = compileFig5(p);
    auto plain = c.simulate({.seed = seedFig5, .relaxedMerge = true});
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("proc.crash:nth=5;limit=40"));
    auto recovered = c.simulate({.seed = seedFig5,
                                 .faults = &inj,
                                 .checkpointEvery = 3,
                                 .relaxedMerge = true});
    EXPECT_EQ(recovered->recoveries(), 40);
    EXPECT_EQ(golden::recordOf(c, *recovered), golden::recordOf(c, *plain));
}

// =====================================================================
// Divergent instances: a statement that reads a reduction accumulator
// (a symbol whose per-processor copies may differ) runs the VM once per
// executor lane, after the same in-place miss application lane-uniform
// statements use.

TEST(DivergentInstance, TwoSlotsOnOneRemoteElementCostOneTransfer) {
    // b(n) = s + a(1) * a(1) reads the reduction scalar s, so it is not
    // lane-uniform. Its one executor (the owner of b(16), processor 3)
    // misses a(1), held by processor 0, through both slots: one
    // transfer and one message event, both booked to the first slot's
    // comm op. Counts recorded before the deferred-miss path was
    // replaced.
    DiagEngine diags;
    Parser parser(R"(program dupslot
  parameter (n = 16)
  real a(n), b(n)
!hpf$ align (i) with a(i) :: b
!hpf$ distribute (block) :: a
  s = 0
  do i = 1, n
    s = s + a(i)
  end do
  b(n) = s + a(1) * a(1)
end
)",
                  diags);
    Program p = parser.parse();
    ASSERT_FALSE(diags.hasErrors()) << diags.dump();
    TargetConfig opts;
    opts.gridExtents = {4};
    const Compilation c = Compiler::compile(p, opts);
    const auto seed = [](Interpreter& o) {
        for (std::int64_t i = 1; i <= 16; ++i)
            o.setElement("a", {i}, 0.5 * static_cast<double>(i));
    };
    auto sim = c.simulate({.seed = seed, .profile = true});
    const obs::StmtProfile::Row& row =
        sim->profile()->row(c.program().top.back()->id);
    EXPECT_EQ(row.instances, 1);
    EXPECT_EQ(row.procStmts, 1);
    EXPECT_EQ(row.elements, 1);
    EXPECT_EQ(row.events, 1);
    ASSERT_EQ(c.lowering().commOps().size(), 3u);
    EXPECT_EQ(sim->elementsOfOp(0), 1);
    EXPECT_EQ(sim->eventsOfOp(0), 1);
    EXPECT_EQ(sim->elementsOfOp(1), 0);
    EXPECT_EQ(sim->eventsOfOp(1), 0);
    // Plus the reduction combine.
    EXPECT_EQ(sim->elementTransfers(), 2);
    EXPECT_EQ(sim->messageEvents(), 2);
    EXPECT_EQ(sim->procMetrics()[3].recvElements, 2);
    EXPECT_EQ(sim->procMetrics()[0].sentElements, 1);
    EXPECT_TRUE(sim->validOn(3, "b", 15));
    EXPECT_EQ(sim->maxErrorVsOracle("b"), 0.0);
    EXPECT_EQ(sim->maxErrorVsOracle("s"), 0.0);
}

TEST(RelaxedMerge, MaxLocReductionsStayExact) {
    // dgefa's pivot search is MAXLOC — exact under relaxed merging for
    // any values, tie-breaks included (lowest linear proc order matches
    // the oracle's sequential scan).
    const golden::SimCase k = kernelNamed("dgefa");
    Program p = k.build();
    const Compilation c = k.compile(p);
    auto strict =
        c.simulate({.seed = k.seed, .relaxedMerge = false});
    auto relaxed =
        c.simulate({.seed = k.seed, .relaxedMerge = true});
    expectOracleStoresIdentical(*strict, *relaxed);
    EXPECT_EQ(strict->elementTransfers(), relaxed->elementTransfers());
    EXPECT_EQ(strict->messageEvents(), relaxed->messageEvents());
}

}  // namespace
}  // namespace phpf
