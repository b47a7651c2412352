#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <utility>

namespace perfbench {

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// Samples a tail percentile must leave beyond it.
constexpr std::int64_t kMinBeyond = 10;

/// 1-based nearest rank of percentile p in a sample of n.
std::int64_t nearestRank(double p, std::int64_t n) {
    // The epsilon keeps decimal rungs exact: 99.9% of 10000 is rank 9990,
    // not the 9991 that ceil() of the rounded product would give.
    const auto r = static_cast<std::int64_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<std::int64_t>(r, 1, n);
}

}  // namespace

TailPercentile tailPercentile(std::vector<double> v) {
    TailPercentile t;
    t.count = static_cast<std::int64_t>(v.size());
    if (v.empty()) return t;
    std::sort(v.begin(), v.end());
    // The ladder stops at p95. Above it, the percentile a run reports
    // would depend on how many jobs it completed, so a faster commit
    // would be judged at a higher percentile than its parent; and on a
    // shared host p98 and up track hypervisor stalls (README).
    static constexpr double kLadder[] = {95, 90, 80, 75, 50};
    for (const double p : kLadder) {
        const std::int64_t rank = nearestRank(p, t.count);
        if (t.count - rank >= kMinBeyond) {
            t.found = true;
            t.pct = p;
            t.value = v[static_cast<size_t>(rank - 1)];
            t.beyond = t.count - rank;
            return t;
        }
    }
    t.pct = 100;
    t.value = v.back();
    return t;
}

std::string tailNote(const char* metric, const TailPercentile& t) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s is p%g (%lld of %lld samples beyond it)%s",
                  metric, t.pct,
                  static_cast<long long>(t.beyond), static_cast<long long>(t.count),
                  t.found ? "" : "; too few samples, reporting the maximum");
    return buf;
}

LatencyProbe::LatencyProbe() : next_(kEntries) {
    // A random order of the entries (Fisher-Yates, fixed xorshift seed),
    // each entry pointing at its successor in that order.
    std::vector<std::uint32_t> order(kEntries);
    for (std::uint32_t i = 0; i < kEntries; ++i) order[i] = i;
    std::uint64_t x = 88172645463325252ull;
    for (std::uint32_t i = kEntries - 1; i > 0; --i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::swap(order[i], order[x % (i + 1)]);
    }
    for (std::uint32_t i = 0; i < kEntries; ++i) next_[order[i]] = order[(i + 1) % kEntries];
}

double LatencyProbe::runMs() {
    const double t0 = threadCpuSec();
    std::uint32_t at = 0;
    for (int k = 0; k < kLoads; ++k) at = next_[at];
    sink_ = at;
    return (threadCpuSec() - t0) * 1e3;
}

bool LatencyProbe::isOneCycle() const {
    std::uint32_t at = 0;
    for (std::uint32_t k = 1; k < kEntries; ++k) {
        at = next_[at];
        if (at == 0) return false;
    }
    return next_[at] == 0;
}

double threadCpuSec() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace perfbench
