#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/trace_stitch.h"
#include "cluster/wire.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/batch.h"
#include "support/fault.h"

namespace phpf::cluster {

struct CoordinatorConfig {
    /// Per-request wall budget of one POST /compile exchange. Generous:
    /// a slow compile is not a dead worker.
    int requestTimeoutMs = 30000;
    /// Health-probe budget (GET /healthz). Tight: probes answer from
    /// memory, so a slow probe IS a sick worker.
    int probeTimeoutMs = 2000;
    int peerFetchTimeoutMs = 5000;
    /// Total remote attempts per job across workers (first try
    /// included). Each transient failure re-routes to the next ring
    /// owner after an exponentially growing backoff.
    int maxAttempts = 4;
    std::int64_t retryBackoffMs = 2;  ///< first backoff; doubles
    /// Coordinator-local artifact tier. Deliberately small by default:
    /// the workers hold the real cache, and a tight local tier is what
    /// makes the peer-fetch path actually exercise (and show up in
    /// metrics) instead of being shadowed.
    std::size_t cacheCapacity = 64;
    int ringReplicas = 64;
    /// Fault source for cluster.partition (null = process injector).
    const FaultInjector* faults = nullptr;
    /// Distributed tracing. When set (and enabled), sampled requests
    /// open a coordinator span, stamp a TraceContext onto every wire
    /// exchange, and collect the workers' span batches for stitching
    /// (stitchTrace() at export time).
    obs::Tracer* tracer = nullptr;
    /// Sample every Nth request (1 = all, 0 = none). Unsampled requests
    /// carry no context and pay no tracing cost beyond one counter.
    /// The default of 8 keeps the armed tracer inside the repo's 2%
    /// telemetry overhead budget (bench_trace_propagation): a fully
    /// traced compile ships ~40+ stage spans, which costs ~10-15% of
    /// that one request — amortized over 8 requests it disappears into
    /// the budget while a soak still collects hundreds of exemplar
    /// traces. Set 1 (--trace-sample=1 in phpfc) for full-fidelity
    /// capture of short runs.
    int traceSampleEvery = 8;
    /// How many slowest request chains to keep as exemplars.
    int slowExemplars = 8;
};

/// One hop of a request's causal chain (slow-request exemplars).
struct RequestHop {
    std::string kind;    ///< "local-hit" | "peer-fetch" | "post"
    std::string worker;  ///< endpoint touched ("" for local)
    double us = 0;       ///< hop latency
    std::string code;    ///< error code name ("none" on success)
};

/// The full causal chain of one (slow) request: route taken, retries,
/// per-hop latencies. Dumped into the flight recorder as it happens and
/// into the batch summary at the end.
struct RequestChain {
    std::string job;      ///< row name (or routing key when unnamed)
    std::string traceId;  ///< 32-hex distributed trace id ("" unsampled)
    double totalUs = 0;
    std::string route;  ///< "local-hit" | "peer-hit" | "compute" | "failed"
    std::string worker;  ///< endpoint that served it
    int attempts = 0;
    std::vector<RequestHop> hops;

    [[nodiscard]] obs::Json toJson() const;
};

/// A worker the coordinator has ever known, dead or alive (federation
/// reports both).
struct KnownWorker {
    std::string endpoint;
    std::string id;
    bool alive = false;
};

/// Outcome of one cluster compile as seen by the coordinator.
struct ClusterOutcome {
    service::CompileStatus status = service::CompileStatus::Error;
    service::ErrorCode code = service::ErrorCode::Internal;
    bool localHit = false;   ///< served from the coordinator tier
    bool peerHit = false;    ///< served by GET /artifact from a peer
    bool workerHit = false;  ///< the executing worker's own cache hit
    int attempts = 0;        ///< remote exchanges performed
    std::string worker;      ///< endpoint that served it (empty on local)
    std::string error;
    std::string traceId;     ///< distributed trace id ("" when unsampled)
    bool hasArtifact = false;
    WireArtifact artifact;

    [[nodiscard]] bool ok() const {
        return status == service::CompileStatus::Ok && hasArtifact;
    }
};

/// Result of probing one worker's /healthz.
struct ProbeResult {
    bool alive = false;
    std::string id;
    int wireVersion = 0;
    std::string error;
};

/// The cluster's routing brain: owns the consistent-hash ring of live
/// workers and a two-tier artifact cache, and turns one BatchJob into
/// one artifact by walking the tiers:
///
///   1. local LRU (coordinator tier) — keyed by the job's routing key
///   2. peer fetch — GET /artifact/<key> from the worker that last
///      compiled it (location hints; subject to cluster.partition)
///   3. compute — POST /compile on the preferred worker (work
///      stealing) or the ring owner, with retry-with-backoff across
///      ring successors on transient ErrorCodes
///
/// A worker that fails a request AND its follow-up health probe is
/// declared dead: removed from the ring (its hash range re-owned by
/// the survivors) until a later probe revives it. Thread-safe — the
/// batch scheduler calls compileJob from many dispatcher threads.
class Coordinator {
public:
    explicit Coordinator(CoordinatorConfig cfg = {});

    /// Probe `endpoint` and add it to the ring. False (with *err) when
    /// the probe fails or the worker speaks the wrong wire version.
    bool addWorker(const std::string& endpoint, std::string* err = nullptr);

    /// Probe a known worker now: revives it when it answers, declares
    /// it dead when it does not.
    ProbeResult probeWorker(const std::string& endpoint);

    /// Alive workers' endpoints (= current ring membership).
    [[nodiscard]] std::vector<std::string> aliveWorkers() const;
    [[nodiscard]] std::size_t workerCount() const;

    /// Every worker ever added, dead or alive, endpoint-sorted.
    [[nodiscard]] std::vector<KnownWorker> knownWorkers() const;

    /// Routing key of a job: a stable hash of its canonical wire form.
    /// (Not the content-addressed artifact key — that needs a parse,
    /// which is the workers' job. Hints map routing keys to true keys.)
    [[nodiscard]] static std::string routingKey(const service::BatchJob& job);

    /// Ring owner of `job` right now ("" when no worker is alive).
    [[nodiscard]] std::string ownerOf(const service::BatchJob& job) const;

    /// Compile `job` through the tiers. `preferred` (a worker endpoint)
    /// overrides ring routing for the compute tier when alive — the
    /// work-stealing scheduler passes its own worker so stolen jobs
    /// execute on the thief.
    [[nodiscard]] ClusterOutcome compileJob(const service::BatchJob& job,
                                            const std::string& preferred = {});

    [[nodiscard]] const obs::MetricRegistry& metrics() const {
        return registry_;
    }
    [[nodiscard]] obs::MetricRegistry& metricsMutable() { return registry_; }

    /// Merge every span batch collected so far into cfg_.tracer (one
    /// process row per worker, cross-process parents resolved). Call
    /// once, at trace-export time. No-op without a tracer.
    StitchStats stitchTrace();

    /// The top-N slowest request chains so far, slowest first.
    [[nodiscard]] std::vector<RequestChain> slowRequests() const;

private:
    /// Per-request trace/exemplar state threaded through the tiers.
    struct ReqCtx {
        bool sampled = false;
        TraceContext base;  ///< parentSpan rewritten per network hop
        std::uint64_t requestSpan = 0;
        std::vector<RequestHop> hops;
        /// routingKey(job), computed once per request — it re-encodes
        /// the whole job, so every extra call shows up in the overhead
        /// bench.
        std::string rkey;
    };

    struct WorkerInfo {
        std::string id;  ///< worker-reported identity (probe-time)
        bool alive = false;
    };
    struct Hint {
        std::string artifactKey;
        std::string worker;  ///< endpoint that last produced it
    };

    void markDead(const std::string& endpoint);
    void markAlive(const std::string& endpoint, const std::string& id);
    [[nodiscard]] ClusterOutcome compileTiers(const service::BatchJob& job,
                                              const std::string& preferred,
                                              ReqCtx& rc);
    [[nodiscard]] ClusterOutcome computeTier(const service::BatchJob& job,
                                             const std::string& rkey,
                                             const std::string& preferred,
                                             ReqCtx& rc);
    bool cacheGet(const std::string& rkey, WireArtifact* out);
    void cachePut(const std::string& rkey, const WireArtifact& a);
    /// Fold a traced response's span batch into the stitcher.
    void collectTrace(const WireResponse& wr, std::int64_t sendNs,
                      std::int64_t recvNs);
    /// Consider this request for the slow-exemplar set.
    void noteRequest(const service::BatchJob& job, const ClusterOutcome& out,
                     double us, ReqCtx& rc);

    CoordinatorConfig cfg_;
    FaultSite* partitionSite_ = nullptr;

    mutable std::mutex mu_;  ///< ring, workers, hints
    HashRing ring_;
    std::unordered_map<std::string, WorkerInfo> workers_;  ///< by endpoint
    std::unordered_map<std::string, Hint> hints_;  ///< routing key -> hint

    std::mutex cacheMu_;
    std::list<std::pair<std::string, WireArtifact>> lru_;  ///< front = hottest
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, WireArtifact>>::iterator>
        cacheIndex_;

    obs::MetricRegistry registry_;

    SpanStitcher stitcher_;
    std::atomic<std::uint64_t> sampleCounter_{0};

    mutable std::mutex slowMu_;
    std::vector<RequestChain> slow_;  ///< unordered top-N by totalUs
};

}  // namespace phpf::cluster
