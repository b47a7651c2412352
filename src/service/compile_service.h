#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "driver/compiler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/artifact_cache.h"
#include "service/error_code.h"
#include "support/fault.h"
#include "support/parallel.h"

namespace phpf::service {

/// One compile job: a program (mini-HPF source text OR an IR builder
/// producing a fresh Program per call) plus the canonicalized compile
/// configuration. Tracer/diagnostics side channels deliberately have no
/// place here — the service owns per-job sessions, which is what makes
/// requests safe to fingerprint, cache, and coalesce.
struct CompileRequest {
    /// Label for logs and batch rows; not part of the cache key.
    std::string name;
    /// Mini-HPF source text. Mutually exclusive with `build` (source
    /// wins when both are set).
    std::string source;
    /// IR builder invoked once per cache miss (and once per request for
    /// fingerprinting); must return an equivalent fresh Program each
    /// call — compilation mutates its input.
    std::function<Program()> build;
    TargetConfig target;
    PassOptions passes;
    /// Wall-clock budget from submission; 0 = none. An expired budget
    /// cancels the pipeline cleanly at the next stage boundary.
    std::int64_t deadlineMs = 0;
    /// Run the embedded profiled simulation on a cache miss and cache
    /// the per-statement profile + model-error calibration with the
    /// artifact — warm hits replay the identical calibration without
    /// re-simulating. Part of the cache key (profiled and unprofiled
    /// artifacts are distinct entries).
    bool profile = false;
};

enum class CompileStatus : std::uint8_t {
    Ok,
    ParseError,        ///< front end rejected the source (not cached)
    DeadlineExceeded,  ///< cancelled between passes by the deadline
    Error,             ///< builder/pipeline failure (InternalError etc.)
};
[[nodiscard]] const char* statusName(CompileStatus s);

/// The immutable product of one successful compilation, shared
/// read-only between the cache and any number of concurrent readers.
/// Owns its Program, so it stays valid after the request that produced
/// it is gone.
struct CompileArtifact {
    std::string key;          ///< content-addressed request key
    std::string programName;
    std::shared_ptr<const Compilation> compilation;
    std::string spmdText;         ///< annotated SPMD pseudo-code
    std::string decisionReport;   ///< human-readable mapping decisions
    CostBreakdown cost;           ///< analytic prediction
    /// buildRunReport(); includes simulation/profile/calibration
    /// sections when the request asked for a profile.
    obs::Json runReport;
    bool profiled = false;  ///< the sections below are populated
    obs::Json profile;      ///< per-statement profile (schema v3)
    obs::Json calibration;  ///< model-error calibration (schema v3)
};

struct CompileResult {
    CompileStatus status = CompileStatus::Error;
    /// Machine-readable failure class; None iff status is Ok. Retry
    /// policy and tests branch on this, never on `error` text.
    ErrorCode code = ErrorCode::Internal;
    std::shared_ptr<const CompileArtifact> artifact;  ///< null unless Ok
    bool cacheHit = false;
    /// True when this request joined an identical in-flight compile
    /// instead of running its own.
    bool coalesced = false;
    /// Transparent retries this result consumed (transient failures
    /// re-run with backoff; the last attempt's outcome is what you see).
    int retries = 0;
    std::string key;      ///< empty for parse errors
    std::string error;    ///< message for non-Ok statuses
    double parseUs = 0;   ///< parse/build + fingerprint time
    double compileUs = 0; ///< pipeline + artifact assembly (0 on hit/join)
    double totalUs = 0;   ///< submission to completion, queue wait included
};

struct ServiceConfig {
    /// Worker threads of the async submit() pool, at most 8 (compiles
    /// are memory-bound well before that). 0 = auto: hardware
    /// concurrency, clamped to [1, 8].
    int workers = 0;
    /// Total artifact-cache entries across shards.
    std::size_t cacheCapacity = 256;
    int cacheShards = 8;
    /// Transparent retries of a transient failure (isTransient(code))
    /// per request, each preceded by an exponentially growing backoff.
    /// 0 disables retrying.
    int maxRetries = 2;
    /// First retry backoff; doubles per attempt.
    std::int64_t retryBackoffMs = 1;
    /// Fault source for the svc.* sites. Null consults the process-wide
    /// injector (PHPF_FAULTS / --faults) at construction.
    const FaultInjector* faults = nullptr;
    /// Optional cross-thread tracer. When set, every request records a
    /// root span ("request:<name>"), worker-side spans adopt the
    /// submitting thread's context (so async jobs parent under their
    /// request instead of floating), and each compiled job's per-pass
    /// session spans are appended beneath it. Must outlive the service.
    obs::Tracer* tracer = nullptr;
};

struct ServiceStats {
    std::int64_t requests = 0;
    std::int64_t compiles = 0;  ///< misses actually executed
    std::int64_t coalescedJoins = 0;
    std::int64_t parseErrors = 0;
    std::int64_t deadlineExceeded = 0;
    std::int64_t errors = 0;
    std::int64_t retries = 0;         ///< transparent transient re-runs
    std::int64_t transientFaults = 0; ///< transient failures observed
    std::int64_t shedEntries = 0;     ///< cache entries dropped by shedding
    CacheStats cache;
    std::size_t queueDepth = 0;
    int activeJobs = 0;
    int workers = 0;
};

/// Concurrent compile service: fingerprints every request (stable
/// program hash + normalized options key), serves repeats from a
/// bounded sharded LRU of immutable artifacts, coalesces identical
/// in-flight requests onto one execution, enforces per-request
/// deadlines via between-pass cancellation, and records service metrics
/// (hits/misses/evictions, coalesced joins, queue depth, per-stage
/// latency histograms) in an obs::MetricRegistry.
class CompileService {
public:
    explicit CompileService(ServiceConfig cfg = {});
    ~CompileService();  ///< drains the worker pool first

    CompileService(const CompileService&) = delete;
    CompileService& operator=(const CompileService&) = delete;

    /// Synchronous compile on the calling thread (cache hits and
    /// coalesced joins return without compiling anything).
    [[nodiscard]] CompileResult compile(const CompileRequest& req);

    /// Asynchronous compile on the worker pool. The deadline clock
    /// starts now, so queue wait counts against it.
    [[nodiscard]] std::shared_future<CompileResult> submit(CompileRequest req);

    /// Cache-only lookup by content-addressed key: the artifact when
    /// this service has it cached, null otherwise — never compiles.
    /// This is the peer-fetch path of the cluster (GET
    /// /artifact/<key>): any worker can answer for any key it happens
    /// to hold, with strictly bounded work. Counts a cache hit/miss.
    [[nodiscard]] std::shared_ptr<const CompileArtifact> cachedArtifact(
        const std::string& key) {
        return cache_.get(key);
    }

    /// Memory-pressure hook: drop least-recently-used cached artifacts
    /// down to `targetEntries` (default: half the current size). Wired
    /// to the svc.mem_pressure fault site and callable directly by an
    /// embedding host under real memory pressure. Returns entries shed.
    std::size_t shedCache(std::size_t targetEntries);
    std::size_t shedCache() { return shedCache(cache_.stats().size / 2); }

    [[nodiscard]] ServiceStats stats() const;
    /// Service metric snapshot: the registry (counters + per-stage
    /// latency histograms) plus live cache/queue state — ready to embed
    /// in a JSON run report or the batch summary row.
    [[nodiscard]] obs::Json metricsJson() const;

    /// Visit the registry the service records into. (The registry is
    /// itself thread-safe now; this remains for callers that want a
    /// scoped read without naming the member.)
    void withMetrics(const std::function<void(const obs::MetricRegistry&)>& fn) const;

    /// Direct read access to the service's metric registry (thread-safe;
    /// the exposition endpoint scrapes this).
    [[nodiscard]] const obs::MetricRegistry& metrics() const {
        return registry_;
    }

private:
    struct Inflight {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        CompileResult result;
    };

    using Clock = std::chrono::steady_clock;

    [[nodiscard]] CompileResult compileAt(const CompileRequest& req,
                                          Clock::time_point submitted);
    /// Execute a cache miss: run the pipeline with deadline
    /// cancellation, assemble the artifact, fill per-stage metrics.
    [[nodiscard]] CompileResult runJob(const CompileRequest& req,
                                       const std::string& key,
                                       std::unique_ptr<Program> prog,
                                       DiagEngine& diags,
                                       Clock::time_point submitted);
    /// runJob plus the transient-retry loop: a failure with a transient
    /// ErrorCode re-runs (on a freshly built program — the failed
    /// attempt may have mutated the old one) after exponential backoff,
    /// up to ServiceConfig::maxRetries times.
    [[nodiscard]] CompileResult runJobWithRetry(const CompileRequest& req,
                                                const std::string& key,
                                                std::unique_ptr<Program> prog,
                                                DiagEngine& diags,
                                                Clock::time_point submitted);
    void recordOutcome(const CompileResult& r);

    ServiceConfig cfg_;
    ArtifactCache cache_;
    std::unique_ptr<TaskPool> pool_;
    /// svc.* sites resolved once at construction (null = not armed).
    FaultSite* transientSite_ = nullptr;
    FaultSite* memPressureSite_ = nullptr;

    std::mutex inflightMu_;
    std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;

    obs::MetricRegistry registry_;
};

}  // namespace phpf::service
