// Cost of the SPMD simulator's bytecode engine per simulated statement,
// relative to the sequential reference Interpreter.
//
// Workload: TOMCATV under the Replication compiler level on 16
// simulated processors — the configuration where per-element
// expression evaluation dominates, so the table isolates the engine
// itself.
//
// Three measured configurations, interleaved best-of-5 in one process:
//   - strict   the simulator, strict merge: wall / proc-statement
//              instances (one guard-passing statement on one processor)
//   - relaxed  the simulator with the relaxed reduction-merge mode
//              (benchmarked separately because it is NOT bit-identical
//              for floating-point SUM accumulators)
//   - interp   the sequential Interpreter running the same compiled
//              program from the same seed: wall / statements executed
//
// The gated value is strict ns per proc-statement over the
// Interpreter's ns per statement: both sides run on the same host in
// the same process, so the ratio is machine-independent enough for the
// committed baseline bench/baselines/BENCH_sim_engine.json (gated by
// scripts/compare_bench.py).
//
// Hard gates (exit 1, so CI fails on the bench itself):
//   - the strict run tracks its oracle with error 0, and that oracle
//     ends bit-identical to the standalone Interpreter's store;
//   - the strict run's counts equal the golden counts below, recorded
//     when the tree-walking and bytecode engines both ran this workload
//     and agreed;
//   - the relaxed run's counts equal the strict run's.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_common.h"

namespace {

using namespace phpf;
using namespace phpf::bench;

constexpr std::int64_t kN = 65;
constexpr std::int64_t kIters = 3;
constexpr int kProcs = 16;
constexpr int kReps = 5;  // best-of to shed scheduler noise

// Golden counts of the strict run (see the file comment).
constexpr std::int64_t kGoldenProcStmts = 1381212;
constexpr std::int64_t kGoldenTransfers = 364770;
constexpr std::int64_t kGoldenEvents = 20;

void seedTomcatv(Interpreter& o) {
    for (std::int64_t i = 1; i <= kN; ++i)
        for (std::int64_t j = 1; j <= kN; ++j) {
            o.setElement("x", {i, j},
                         static_cast<double>(i) + 0.1 * static_cast<double>(j));
            o.setElement("y", {i, j},
                         static_cast<double>(j) - 0.05 * static_cast<double>(i));
        }
}

struct SimResult {
    double wall = 0.0;
    std::int64_t transfers = 0;
    std::int64_t events = 0;
    std::int64_t procStmts = 0;
    double errX = 0.0;
    double errY = 0.0;
    std::unique_ptr<SpmdSimulator> sim;  // kept for result comparison
};

SimResult runSim(Compilation& c, bool relaxed) {
    auto sim = c.simulate({.seed = seedTomcatv, .relaxedMerge = relaxed});
    SimResult r;
    r.wall = sim->wallSec();
    r.transfers = sim->elementTransfers();
    r.events = sim->messageEvents();
    r.procStmts = sim->statementsExecutedAllProcs();
    r.errX = sim->maxErrorVsOracle("x");
    r.errY = sim->maxErrorVsOracle("y");
    r.sim = std::move(sim);
    return r;
}

struct InterpResult {
    double wall = 0.0;
    std::int64_t stmts = 0;
    std::unique_ptr<Interpreter> interp;
};

InterpResult runInterp(const Program& p) {
    InterpResult r;
    r.interp = std::make_unique<Interpreter>(p);
    seedTomcatv(*r.interp);
    const auto t0 = std::chrono::steady_clock::now();
    r.interp->run();
    r.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
    r.stmts = r.interp->statementsExecuted();
    return r;
}

/// Fold a fresh rep into the running best-of: keep the fastest wall.
/// Runs are deterministic, so which rep survives is immaterial to the
/// result checks.
template <typename R>
void takeBest(R& best, R r) {
    if (best.wall == 0.0 || r.wall < best.wall) best = std::move(r);
}

[[noreturn]] void fail(const char* what, std::int64_t got,
                       std::int64_t want) {
    std::fprintf(stderr, "FATAL: %s: %lld, expected %lld\n", what,
                 static_cast<long long>(got), static_cast<long long>(want));
    std::exit(1);
}

void requireCounts(const SimResult& r, std::int64_t procStmts,
                   std::int64_t transfers, std::int64_t events,
                   const char* what) {
    if (r.procStmts != procStmts) fail(what, r.procStmts, procStmts);
    if (r.transfers != transfers) fail(what, r.transfers, transfers);
    if (r.events != events) fail(what, r.events, events);
}

}  // namespace

int main() {
    Program p = programs::tomcatv(kN, kIters);
    TargetConfig opts;
    PassOptions passes;
    opts.gridExtents = {kProcs};
    passes.mapping.privatization = false;  // Replication level
    Compilation c = Compiler::compile(p, opts, passes);

    // Interleave the configurations' reps round-robin: a scheduler-noise
    // epoch then inflates adjacent reps of every configuration instead
    // of one configuration's whole block.
    SimResult strict, relaxed;
    InterpResult interp;
    for (int i = 0; i < kReps; ++i) {
        takeBest(interp, runInterp(c.program()));
        takeBest(strict, runSim(c, false));
        takeBest(relaxed, runSim(c, true));
    }

    if (strict.errX != 0.0 || strict.errY != 0.0) {
        std::fprintf(stderr, "FATAL: strict run differs from its oracle "
                             "(x %g, y %g)\n",
                     strict.errX, strict.errY);
        return 1;
    }
    const Store& simRef = strict.sim->oracle().store();
    const Store& seqRef = interp.interp->store();
    if (simRef.totalElems() != seqRef.totalElems() ||
        std::memcmp(simRef.dataRaw(), seqRef.dataRaw(),
                    static_cast<size_t>(simRef.totalElems()) *
                        sizeof(double)) != 0) {
        std::fprintf(stderr, "FATAL: the simulator's oracle differs from the "
                             "standalone Interpreter\n");
        return 1;
    }
    requireCounts(strict, kGoldenProcStmts, kGoldenTransfers, kGoldenEvents,
                  "strict run vs golden counts");
    // Relaxed mode changes combine semantics, not statement-level
    // communication, so the count metrics still have to agree.
    requireCounts(relaxed, strict.procStmts, strict.transfers, strict.events,
                  "relaxed run vs strict run");

    const double simNs =
        strict.wall * 1e9 / static_cast<double>(strict.procStmts);
    const double relaxedNs =
        relaxed.wall * 1e9 / static_cast<double>(relaxed.procStmts);
    const double interpNs =
        interp.wall * 1e9 / static_cast<double>(interp.stmts);
    printHeader(
        "SPMD simulator cost per statement: TOMCATV Replication  ((*,block), "
        "n = " + std::to_string(kN) +
            ", 16 procs, 1 thread) — ns per proc-statement vs the "
            "sequential Interpreter's ns per statement",
        {"sim_ns_per_proc_stmt", "relaxed_ns_per_proc_stmt",
         "interp_ns_per_stmt", "sim_over_interp_ns_ratio"});
    printRow(kProcs, {simNs, relaxedNs, interpNs, simNs / interpNs});
    std::printf("\n");
    return 0;
}
