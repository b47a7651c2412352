#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/wire.h"
#include "obs/trace.h"

namespace phpf::cluster {

/// NTP-style clock-offset estimate from one request/response exchange:
/// `sendNs`/`recvNs` on the coordinator's tracer clock (request sent /
/// response received), `remoteRecvNs`/`remoteSendNs` on the worker's
/// (request received / response sent). Returns the offset to ADD to a
/// worker timestamp to land it on the coordinator's timeline, assuming
/// symmetric network delay. The estimate's error is bounded by half
/// the round-trip residual `(recvNs - sendNs) - (remoteSendNs -
/// remoteRecvNs)` — callers keep the exchange with the smallest
/// residual.
[[nodiscard]] std::int64_t estimateClockOffsetNs(std::int64_t sendNs,
                                                 std::int64_t remoteRecvNs,
                                                 std::int64_t remoteSendNs,
                                                 std::int64_t recvNs);

/// What one stitch pass did.
struct StitchStats {
    int workers = 0;          ///< process rows created
    std::size_t spans = 0;    ///< spans merged
    std::size_t orphans = 0;  ///< spans re-parented under a "lost:" span
    std::size_t dropped = 0;  ///< spans dropped by the batch-size cap
};

/// Accumulates span batches returned by workers during a coordinated
/// run, then merges them all into the coordinator's Tracer at
/// export time. Deferring resolution to the end is what makes the
/// stitcher indifferent to batch arrival order: a batch may reference a
/// parent span that arrives in a later response (concurrent requests
/// drain whatever finished first), and a per-worker id map built over
/// ALL of a worker's batches resolves both directions.
///
/// Batches are keyed by worker identity + tracer epoch, so a restarted
/// worker (fresh tracer, span ids starting over) gets its own id space
/// and its own process row instead of colliding with its previous
/// life. Per worker, the clock offset from the lowest-residual exchange
/// wins.
///
/// Cross-process parent edges (`WireSpan::ctx`, stamped by the worker
/// from the propagated TraceContext) are already in the coordinator's
/// id space and pass through unmapped. Spans whose worker-local parent
/// never arrived — worker killed mid-request, batch cap, lost response
/// — re-parent under a synthetic "lost:<worker>" span; the exporter
/// never drops or crashes on them.
///
/// Thread-safe; compileJob calls addBatch from many dispatcher threads.
class SpanStitcher {
public:
    explicit SpanStitcher(std::size_t maxSpans = 100000)
        : maxSpans_(maxSpans) {}

    /// Fold one response's trace block in. `workerKey` identifies the
    /// id space (worker id + epoch); `displayName` names the process
    /// row; `uncertaintyNs` ranks this exchange's offset estimate.
    void addBatch(const std::string& workerKey,
                  const std::string& displayName, std::int64_t offsetNs,
                  std::int64_t uncertaintyNs, std::vector<WireSpan> spans);

    /// Merge everything accumulated so far into `tracer` (renumbering
    /// span ids via allocateSpanId, registering one process row per
    /// worker, rebasing timestamps by the per-worker offset). Call once
    /// at export time; the accumulated batches are consumed.
    StitchStats stitchInto(obs::Tracer& tracer);

    [[nodiscard]] std::size_t spanCount() const;

private:
    struct WorkerSpans {
        std::string displayName;
        std::int64_t offsetNs = 0;
        std::int64_t uncertaintyNs = INT64_MAX;
        std::vector<WireSpan> spans;
    };

    mutable std::mutex mu_;
    /// Ordered by key so process rows come out in a stable order.
    std::map<std::string, WorkerSpans> workers_;
    std::size_t maxSpans_;
    std::size_t total_ = 0;
    std::size_t dropped_ = 0;
};

}  // namespace phpf::cluster
