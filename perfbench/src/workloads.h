#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "spans.h"

namespace perfbench {

struct RunConfig {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    /// Traced run: record spans and report the per-layer metrics
    /// instead of the end-to-end ones.
    bool trace = false;
    /// Simulator lockstep threads and compile-service workers: nproc,
    /// from std::thread::hardware_concurrency().
    int threads = 1;
    /// Where a traced run writes its Chrome trace.
    std::string traceOut;
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

struct RunResult {
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    /// First few failure reasons, for the log.
    std::vector<std::string> failures;
    std::vector<Metric> metrics;
    /// Human-readable context lines (tail percentile, sample counts...).
    std::vector<std::string> notes;

    void fail(std::string why) {
        ++failed;
        if (failures.size() < 8) failures.push_back(std::move(why));
    }
    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/// Closed loop, one client, jobs back to back: build, compile, price on
/// mp and shm, seed, simulate and build the run report.
[[nodiscard]] RunResult runSimWorkload(const RunConfig& cfg,
                                       const SimWorkloadSpec& spec);

/// One submitting thread keeping `threads` requests in flight on one
/// CompileService; compile only.
[[nodiscard]] RunResult runCompileMix(const RunConfig& cfg);

/// Name of the root span of one job; layer spans nest under it.
inline constexpr const char* kJobSpan = "job";

}  // namespace perfbench
