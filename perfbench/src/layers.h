#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "inputs.h"
#include "service/compile_service.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// Peak resident set of this process, in MB.
[[nodiscard]] double peakRssMb();

/// The span name the benchmark records for one compile stage.
[[nodiscard]] const char* stageSpanName(phpf::CompileStage stage);

/// The generated code's deterministic counts from one simulation.
struct SimCounts {
    std::int64_t procStmts = 0;
    std::int64_t events = 0;
    std::int64_t transfers = 0;
    double bytes = 0;
    friend bool operator==(const SimCounts&, const SimCounts&) = default;
};
[[nodiscard]] SimCounts countsOf(const phpf::SpmdSimulator& sim);

/// True when `a` and `b` have the same bit pattern: a NaN equals only
/// an identical NaN, and -0.0 differs from 0.0.
[[nodiscard]] bool sameBits(double a, double b);

/// Empty when every valid copy, on every processor, of every array
/// element of the compiled program has the bit pattern the sequential
/// interpreter computed; otherwise the first mismatch. Unlike
/// SpmdSimulator::maxErrorVsOracle, a NaN on either side is a mismatch.
[[nodiscard]] std::string oracleMismatch(const phpf::Compilation& c,
                                         phpf::SpmdSimulator& sim);

/// Run the compile pipeline stage by stage under one span per stage
/// (a parent "driver.compile" span covers them and the final take).
/// Empty optional when the pipeline did not reach Done.
[[nodiscard]] std::optional<phpf::Compilation> compileStaged(
    phpf::Program& p, const phpf::TargetConfig& target,
    const phpf::PassOptions& passes, SpanRecorder* rec, std::int64_t job);

/// Construct a simulator of `c` the way Compilation::simulate() does,
/// under a "runtime.sim_ctor" span.
[[nodiscard]] std::unique_ptr<phpf::SpmdSimulator> buildSimulator(
    const phpf::Compilation& c, int threads, SpanRecorder* rec, std::int64_t job);
/// Seed the oracle and run, one span per call.
void seedAndRun(phpf::SpmdSimulator& sim, const phpf::Compilation& c,
                const SimInput& input, SpanRecorder* rec, std::int64_t job);
/// buildSimulator() then seedAndRun().
[[nodiscard]] std::unique_ptr<phpf::SpmdSimulator> simulateSpanned(
    const phpf::Compilation& c, const SimInput& input, int threads,
    SpanRecorder* rec, std::int64_t job);

/// Per-layer metric values of one traced run, by metric name. Names the
/// workload does not exercise stay absent and print as 0.
using LayerValues = std::map<std::string, double>;

/// Median, over the jobs that have spans, of each span name's summed
/// duration within a job (in microseconds), stored as "<name>_us".
void addSpanMedians(const SpanRecorder& rec, LayerValues* out);

/// The compile service's per-layer figures, from CompileResult fields.
struct ServiceTally {
    std::int64_t requests = 0;
    std::int64_t hits = 0;
    std::vector<double> hitUs;          ///< totalUs of cache hits
    std::vector<double> missCompileUs;  ///< compileUs of executed misses
    std::vector<double> queueUs;        ///< totalUs - parseUs - compileUs

    void add(const phpf::service::CompileResult& r);
    /// The service.* metrics, with evictions and coalesced joins taken
    /// from `stats`.
    void addTo(const phpf::service::ServiceStats& stats, LayerValues* v) const;
};

/// Median over root spans named `rootName` of the share of their
/// duration no child span covers, in percent.
[[nodiscard]] double unattributedPct(const SpanRecorder& rec,
                                     const char* rootName);

/// Append the per-layer metrics in `v` in canonical order; a note names
/// the ones this workload does not exercise.
void addLayerMetrics(const LayerValues& v, RunResult* r);

/// Hypervisor steal so far, in clock ticks summed over CPUs (-1 when
/// /proc/stat is unreadable).
[[nodiscard]] std::int64_t stealTicks();
/// "host steal during the timed loop: …" since `ticks0`, for the log:
/// time stolen from this VM slows every wall-clock metric.
[[nodiscard]] std::string stealNote(std::int64_t ticks0, double seconds);

}  // namespace perfbench
