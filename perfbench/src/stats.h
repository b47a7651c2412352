#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count); 0
/// for an empty sample.
[[nodiscard]] double median(std::vector<double> v);

/// The highest percentile on a fixed ladder (95, 90, 80, 75, 50) that
/// leaves at least 10 samples strictly above its nearest rank. `found`
/// is false when the sample is too small for any rung; value is then
/// the sample maximum.
struct TailPercentile {
    bool found = false;
    double pct = 0;          ///< the chosen percentile, e.g. 95
    double value = 0;        ///< the sample at that rank
    std::int64_t beyond = 0; ///< samples ranked above it
    std::int64_t count = 0;  ///< sample size
};
[[nodiscard]] TailPercentile tailPercentile(std::vector<double> v);
/// "<metric> is p95 (12 of 240 samples beyond it)".
[[nodiscard]] std::string tailNote(const char* metric, const TailPercentile& t);

/// CPU time the calling thread has run so far, in seconds
/// (CLOCK_THREAD_CPUTIME_ID). Under paravirtual steal accounting, as on
/// a KVM guest, it leaves out time the hypervisor gave the vCPU away,
/// and it never counts time the thread waited for a CPU.
[[nodiscard]] double threadCpuSec();

/// A fixed memory-latency probe: one chain of dependent loads along a
/// random cycle through a 4 MB table, the same chain on every run. On
/// a shared host the speed of the memory system drifts by 10-15%
/// between runs minutes apart, and the sim jobs' times drift with it
/// while a plain arithmetic loop does not; the probe's time tracks the
/// drift, so job times divided by it do not (README).
class LatencyProbe {
public:
    static constexpr std::uint32_t kEntries = 1u << 20;
    static constexpr int kLoads = 40000;
    /// The probe's time on the development host (README), the speed
    /// the sim workloads' "_at_ref" metrics are scaled to.
    static constexpr double kNominalMs = 4.5;

    LatencyProbe();
    /// Follow the chain once; its time on the calling thread's CPU
    /// clock, in milliseconds.
    [[nodiscard]] double runMs();
    /// True when the table is a single cycle through every entry.
    [[nodiscard]] bool isOneCycle() const;

private:
    std::vector<std::uint32_t> next_;
    volatile std::uint32_t sink_ = 0;
};

}  // namespace perfbench
