// Scaling of the multi-threaded SPMD simulator (support/parallel.h).
//
// Workload: TOMCATV under the Replication compiler level (no scalar
// privatization) on 16 simulated processors — the variant where every
// statement executes on all processors, so each lockstep phase carries
// 16 processors' worth of evaluation and the worker pool has real work
// to spread. The table reports simulated-run wall seconds per lockstep
// thread count and the speedup over one thread.
//
// Simulation results are required to be bit-identical across thread
// counts (deferred-write phases; see runtime/spmd_sim.h). This bench
// enforces that: any metric mismatch against the single-thread run is a
// hard failure, so the scaling numbers can never come from a run that
// diverged.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <thread>

#include "bench_common.h"

namespace {

using namespace phpf;
using namespace phpf::bench;

constexpr std::int64_t kN = 65;
constexpr std::int64_t kIters = 3;

void seedTomcatv(Interpreter& o) {
    for (std::int64_t i = 1; i <= kN; ++i)
        for (std::int64_t j = 1; j <= kN; ++j) {
            o.setElement("x", {i, j},
                         static_cast<double>(i) + 0.1 * static_cast<double>(j));
            o.setElement("y", {i, j},
                         static_cast<double>(j) - 0.05 * static_cast<double>(i));
        }
}

Compilation compileWorkload(Program& p) {
    TargetConfig opts;
    PassOptions passes;
    opts.gridExtents = {16};
    passes.mapping.privatization = false;  // Replication level
    return Compiler::compile(p, opts, passes);
}

struct SimResult {
    double wall = 0.0;
    std::int64_t transfers = 0;
    std::int64_t events = 0;
    std::int64_t procStmts = 0;
    double imbalance = 0.0;
    double errX = 0.0;
    double errY = 0.0;
};

SimResult runAt(Compilation& c, int threads) {
    auto sim = c.simulate({.threads = threads, .seed = seedTomcatv});
    SimResult r;
    r.wall = sim->wallSec();
    r.transfers = sim->elementTransfers();
    r.events = sim->messageEvents();
    r.procStmts = sim->statementsExecutedAllProcs();
    r.imbalance = sim->imbalanceRatio();
    r.errX = sim->maxErrorVsOracle("x");
    r.errY = sim->maxErrorVsOracle("y");
    return r;
}

void requireIdentical(const SimResult& base, const SimResult& r,
                      int threads) {
    if (r.transfers == base.transfers && r.events == base.events &&
        r.procStmts == base.procStmts && r.imbalance == base.imbalance &&
        r.errX == base.errX && r.errY == base.errY)
        return;
    std::fprintf(stderr,
                 "FATAL: simulation diverged at %d threads "
                 "(transfers %lld vs %lld, events %lld vs %lld)\n",
                 threads, static_cast<long long>(r.transfers),
                 static_cast<long long>(base.transfers),
                 static_cast<long long>(r.events),
                 static_cast<long long>(base.events));
    std::exit(1);
}

// Thread counts worth measuring here: lockstep phases are microseconds
// long, so running more workers than hardware threads only measures the
// scheduler (a context-switch round-trip per phase). Oversubscribed
// counts stay available via --sim-threads / PHPF_SIM_THREADS — and the
// determinism tests exercise them — but the scaling table sticks to
// what the machine can actually host.
std::vector<int> threadCounts() {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    std::vector<int> counts;
    for (const int t : {1, 2, 4})
        if (t == 1 || t <= hw) counts.push_back(t);
    if (hw > 4) counts.push_back(hw);
    return counts;
}

void printTable() {
    Program p = programs::tomcatv(kN, kIters);
    Compilation c = compileWorkload(p);

    const std::vector<int> counts = threadCounts();

    printHeader(
        "SPMD simulator scaling: TOMCATV Replication  ((*,block), n = " +
            std::to_string(kN) + ", 16 procs) — simulated-run wall sec "
            "per lockstep thread count",
        {"wall_sec", "speedup_vs_1t"});
    SimResult base;
    for (const int t : counts) {
        const SimResult r = runAt(c, t);
        if (t == 1)
            base = r;
        else
            requireIdentical(base, r, t);
        printRow(t, {r.wall, t == 1 ? 1.0 : base.wall / r.wall});
    }
    std::printf("\n");
}

void BM_SimTomcatvReplication(benchmark::State& state) {
    const int threads = static_cast<int>(state.range(0));
    Program p = programs::tomcatv(kN, kIters);
    Compilation c = compileWorkload(p);
    for (auto _ : state) {
        const SimResult r = runAt(c, threads);
        benchmark::DoNotOptimize(r.transfers);
    }
}

}  // namespace

int main(int argc, char** argv) {
    printTable();
    for (const int t : threadCounts())
        benchmark::RegisterBenchmark("BM_SimTomcatvReplication",
                                     BM_SimTomcatvReplication)
            ->Arg(t)
            ->Unit(benchmark::kMillisecond);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
