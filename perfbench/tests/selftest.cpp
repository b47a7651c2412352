// Unit tests of the benchmark's own code: percentile selection, the
// run clock and latency probe, span self time, the oracle check, and
// seed determinism of the generated inputs and job lists.
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "driver/compiler.h"
#include "inputs.h"
#include "layers.h"
#include "programs/programs.h"
#include "runtime/interp.h"
#include "runtime/store.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> ramp(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    return v;
}

TEST(TailPercentile, PicksHighestRungWithTenSamplesBeyond) {
    const TailPercentile t100 = tailPercentile(ramp(100));
    EXPECT_TRUE(t100.found);
    EXPECT_EQ(t100.pct, 90);
    EXPECT_EQ(t100.value, 90);
    EXPECT_EQ(t100.beyond, 10);

    // 199 samples: p95 leaves only 9 beyond; 200 leave exactly 10.
    EXPECT_EQ(tailPercentile(ramp(199)).pct, 90);
    const TailPercentile t200 = tailPercentile(ramp(200));
    EXPECT_EQ(t200.pct, 95);
    EXPECT_EQ(t200.value, 190);
    EXPECT_EQ(t200.beyond, 10);

    // The ladder tops out at p95, however many samples there are, so
    // runs of different length report the same percentile.
    EXPECT_EQ(tailPercentile(ramp(100000)).pct, 95);
}

TEST(TailPercentile, TooFewSamplesFallsBackToMaximum) {
    const TailPercentile t = tailPercentile(ramp(19));
    EXPECT_FALSE(t.found);
    EXPECT_EQ(t.value, 19);
    EXPECT_TRUE(tailPercentile(ramp(20)).found);  // p50 leaves 10
    EXPECT_FALSE(tailPercentile({}).found);
}

TEST(Stats, Median) {
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Stats, ThreadCpuClockLeavesOutTimeNotRunning) {
    const double t0 = threadCpuSec();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const double slept = threadCpuSec() - t0;
    EXPECT_GE(slept, 0);
    EXPECT_LT(slept, 0.02);
}

TEST(Stats, LatencyProbeFollowsOneCycleThroughItsTable) {
    LatencyProbe probe;
    EXPECT_TRUE(probe.isOneCycle());
    EXPECT_GT(probe.runMs(), 0);
}

TEST(Spans, SelfTimeSubtractsCoveredChildIntervals) {
    SpanRecorder rec(true);
    const int root = rec.add("job", 0, 100, -1, 7);
    const int a = rec.add("a", 10, 40, root, 7);
    rec.add("b", 30, 60, root, 7);      // overlaps a: union is [10, 60)
    rec.add("a.inner", 15, 20, a, 7);   // grandchild: not root's child
    rec.add("late", 90, 120, root, 7);  // clipped to the root's end
    const std::vector<std::int64_t> self = rec.selfNs();
    EXPECT_EQ(self[static_cast<size_t>(root)], 100 - 50 - 10);
    EXPECT_EQ(self[static_cast<size_t>(a)], 30 - 5);
    EXPECT_DOUBLE_EQ(unattributedPct(rec, "job"), 40.0);
}

TEST(Spans, ScopesNestAndDisabledRecorderStoresNothing) {
    SpanRecorder rec(true);
    {
        ScopedSpan outer(&rec, "outer", 1);
        ScopedSpan inner(&rec, "inner", 1);
    }
    ScopedSpan after(&rec, "after", 2);
    ASSERT_EQ(rec.spans().size(), 3u);
    EXPECT_EQ(rec.spans()[0].parent, -1);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    EXPECT_EQ(rec.spans()[2].parent, -1);
    EXPECT_GE(rec.spans()[1].startNs, rec.spans()[0].startNs);
    EXPECT_LE(rec.spans()[1].endNs, rec.spans()[0].endNs);

    SpanRecorder off(false);
    { ScopedSpan s(&off, "x", 0); }
    EXPECT_TRUE(off.spans().empty());
}

SimCounts simulateDgefa(std::uint64_t seed) {
    SimWorkloadSpec spec;
    EXPECT_TRUE(simWorkloadSpec("dgefa_sim", &spec));
    phpf::Program p = phpf::programs::dgefa(12);
    Rng rng(seed);
    const SimInput in = spec.makeInput(p, rng);
    phpf::TargetConfig t;
    t.gridExtents = {4};
    auto c = compileStaged(p, t, {}, nullptr, 0);
    EXPECT_TRUE(c.has_value());
    auto sim = simulateSpanned(*c, in, 2, nullptr, 0);
    EXPECT_EQ(oracleMismatch(*c, *sim), "");
    return countsOf(*sim);
}

TEST(Seeds, SameSeedGivesSameJobsAndCounts) {
    const auto keys = mixKeySpace();
    EXPECT_EQ(keys.size(), 220u);
    const int n = static_cast<int>(keys.size());
    EXPECT_EQ(mixStream(42, n, 5000), mixStream(42, n, 5000));
    EXPECT_EQ(simJobOrder(42, 100), simJobOrder(42, 100));
    EXPECT_EQ(mixKeySpace()[17].label, keys[17].label);

    SimWorkloadSpec spec;
    ASSERT_TRUE(simWorkloadSpec("tomcatv_sim", &spec));
    const phpf::Program p = phpf::programs::tomcatv(16, 1);
    Rng r1(9), r2(9);
    const SimInput a = spec.makeInput(p, r1), b = spec.makeInput(p, r2);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].values, b[i].values);

    EXPECT_EQ(simulateDgefa(5), simulateDgefa(5));
}

TEST(Seeds, DifferentSeedGivesDifferentInputs) {
    EXPECT_NE(mixStream(1, 220, 5000), mixStream(2, 220, 5000));
    EXPECT_NE(simJobOrder(1, 100), simJobOrder(2, 100));
    SimWorkloadSpec spec;
    ASSERT_TRUE(simWorkloadSpec("dgefa_sim", &spec));
    const phpf::Program p = phpf::programs::dgefa(12);
    Rng r1(1), r2(2);
    EXPECT_NE(spec.makeInput(p, r1)[0].values, spec.makeInput(p, r2)[0].values);
}

TEST(Seeds, MixStreamIsSkewedTowardLowRanks) {
    const std::vector<int> s = mixStream(3, 220, 20000);
    int top = 0;
    for (const int k : s) {
        ASSERT_GE(k, 0);
        ASSERT_LT(k, 220);
        top += k < 22;
    }
    // The top tenth of the keys draws far more than a tenth.
    EXPECT_GT(top, 20000 / 4);
}

TEST(Seeds, EverySimJobCycleRunsEachVariantOnce) {
    const std::vector<int> order = simJobOrder(11, 50);
    ASSERT_EQ(order.size(), 50u * kSimVariants);
    for (size_t at = 0; at < order.size(); at += kSimVariants) {
        std::vector<int> cycle(order.begin() + static_cast<std::ptrdiff_t>(at),
                               order.begin() + static_cast<std::ptrdiff_t>(at + kSimVariants));
        std::sort(cycle.begin(), cycle.end());
        for (int v = 0; v < kSimVariants; ++v) EXPECT_EQ(cycle[static_cast<size_t>(v)], v);
    }
}

TEST(OracleCheck, ComparesBitPatterns) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(sameBits(1.5, 1.5));
    EXPECT_TRUE(sameBits(nan, nan));
    EXPECT_FALSE(sameBits(nan, 1.5));
    EXPECT_FALSE(sameBits(1.5, nan));
    EXPECT_FALSE(sameBits(-0.0, 0.0));
    EXPECT_FALSE(sameBits(1.5, std::nextafter(1.5, 2.0)));
}

TEST(OracleCheck, PlantedNanIsAMismatch) {
    SimWorkloadSpec spec;
    ASSERT_TRUE(simWorkloadSpec("dgefa_sim", &spec));
    phpf::Program p = phpf::programs::dgefa(12);
    Rng rng(3);
    const SimInput in = spec.makeInput(p, rng);
    phpf::TargetConfig t;
    t.gridExtents = {4};
    auto c = compileStaged(p, t, {}, nullptr, 0);
    ASSERT_TRUE(c.has_value());
    auto sim = simulateSpanned(*c, in, 1, nullptr, 0);
    ASSERT_EQ(oracleMismatch(*c, *sim), "");

    // A NaN where the simulated processors hold a finite value. A
    // max-of-differences fold would read |x - NaN| as no difference.
    const phpf::SymbolId a = c->program().findSymbol("A");
    std::int64_t flat = 0;
    while (!sim->validOn(0, "A", flat)) ++flat;
    sim->oracle().store().set(a, flat, std::numeric_limits<double>::quiet_NaN());
    const std::string why = oracleMismatch(*c, *sim);
    EXPECT_NE(why.find("array A element " + std::to_string(flat)), std::string::npos) << why;
}

}  // namespace
}  // namespace perfbench
