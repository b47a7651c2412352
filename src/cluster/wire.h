#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"
#include "service/batch.h"
#include "service/compile_service.h"
#include "service/error_code.h"

namespace phpf::cluster {

/// Versioned JSON wire protocol between a coordinator and its workers.
///
/// Every message carries `"v": kWireVersion`; a mismatch is answered
/// (or treated) as ErrorCode::StaleWorker — a restarted or out-of-date
/// peer must be discarded and the job re-routed, never half-parsed.
///
///   POST /compile              body: {"v":2, "job": {<jobs-file row>}}
///   GET  /artifact/<key>       no body
///
/// Both answer a response document:
///
///   {"v":2, "worker": "<id>", "status": "ok", "code": "none",
///    "cache_hit": true, "error": "",
///    "artifact": {"key": ..., "program": ..., "spmd": ...,
///                 "decisions": ..., "cost": {...},
///                 "content_hash": "h<hex16>"}}
///
/// The request payload is exactly the jobs-file row schema
/// (service::parseBatchJob / batchJobToJson with every option key
/// explicit), so the cluster and the batch runner share one codec and
/// a wire request can be pasted into a jobs file verbatim. Version 2
/// dropped the retired simulator-engine option from the job encoding.
inline constexpr int kWireVersion = 2;

/// W3C-traceparent-style distributed trace context: 128-bit trace id,
/// 64-bit parent span id, sampled flag. The coordinator stamps one on
/// every compile POST (as a `"trace_ctx"` sibling of `"job"`) and every
/// artifact GET (as a `?traceparent=` query parameter); a worker opens
/// its request-handling span under `parentSpan` and echoes the id back
/// in its span batch.
///
/// Wire form is the traceparent string:
///   "00-<32 hex trace id>-<16 hex parent span>-<01 sampled | 00 not>"
///
/// The context rides OUTSIDE the content-hashed artifact payload, so a
/// traced compile is bit-identical to an untraced one.
struct TraceContext {
    std::uint64_t traceIdHi = 0;
    std::uint64_t traceIdLo = 0;
    std::uint64_t parentSpan = 0;  ///< coordinator span id, 0 = root
    bool sampled = false;

    [[nodiscard]] bool valid() const { return (traceIdHi | traceIdLo) != 0; }
    [[nodiscard]] std::string traceIdHex() const;  ///< 32 hex chars
    [[nodiscard]] std::string encode() const;
    /// False on anything that is not a well-formed traceparent string.
    static bool decode(const std::string& s, TraceContext* out);
};

/// One completed span crossing the wire inside a traced response, on
/// the *worker's* tracer clock (the coordinator rebases with the
/// estimated clock offset).
struct WireSpan {
    std::string name;
    std::string category;
    std::string threadName;   ///< worker-side thread row name
    std::int64_t startNs = 0;
    std::int64_t durNs = 0;
    std::uint64_t id = 0;      ///< worker-tracer span id
    std::uint64_t parent = 0;  ///< worker-tracer parent id, 0 = root
    /// For request-root spans: the coordinator span id propagated via
    /// TraceContext::parentSpan. 0 everywhere else. This is the one
    /// cross-process edge — it lives in the coordinator's id space.
    std::uint64_t ctx = 0;
    int tid = 0;
};

/// The `"trace"` block of a traced response: a bounded batch of the
/// worker's completed spans plus the timestamps the coordinator needs
/// for NTP-style clock-offset estimation (request recv / response send
/// on the worker's tracer clock). `epoch` is the worker tracer's
/// instance id — it changes when a worker restarts, so span ids from a
/// previous life are never stitched into the wrong timeline.
struct WireTrace {
    bool present = false;
    std::int64_t recvNs = 0;
    std::int64_t sendNs = 0;
    std::uint64_t epoch = 0;
    std::vector<WireSpan> spans;

    [[nodiscard]] obs::Json toJson() const;
    /// Lenient: malformed trace blocks yield present=false rather than
    /// an error — telemetry must never fail a compile.
    static void fromJson(const obs::Json* j, WireTrace* out);
};

/// The subset of a CompileArtifact that crosses the wire: enough for
/// batch rows, bit-identity checks, and peer-cache reuse. (Profiles and
/// full run reports stay worker-local — a coordinator aggregating a
/// thousand jobs wants the decisions and the cost, not megabytes of
/// per-statement traces.)
struct WireArtifact {
    std::string key;          ///< content-addressed request key
    std::string programName;
    std::string spmdText;
    std::string decisionReport;
    double computeSec = 0;
    double commSec = 0;
    std::int64_t messageEvents = 0;
    double commBytes = 0;

    /// Stable hash over every field above ("h<hex16>"). Two workers
    /// compiling the same request must produce the same content hash —
    /// this is what the soak bench compares against a single-process
    /// run to prove distributed results are bit-identical.
    [[nodiscard]] std::string contentHash() const;

    [[nodiscard]] static WireArtifact fromArtifact(
        const service::CompileArtifact& a);
    [[nodiscard]] obs::Json toJson() const;  ///< includes content_hash
    /// False (with *err) on schema mismatch or a content_hash that does
    /// not match the recomputed one (corruption or a lying peer).
    static bool fromJson(const obs::Json& j, WireArtifact* out,
                         std::string* err);
};

/// One parsed response document.
struct WireResponse {
    int version = 0;
    std::string worker;  ///< serving worker's id
    service::CompileStatus status = service::CompileStatus::Error;
    service::ErrorCode code = service::ErrorCode::Internal;
    bool cacheHit = false;
    std::string error;
    bool hasArtifact = false;
    WireArtifact artifact;
    WireTrace trace;  ///< present only on traced responses

    [[nodiscard]] bool ok() const {
        return status == service::CompileStatus::Ok && hasArtifact;
    }
};

/// Build the POST /compile request body for `job`. File jobs are
/// resolved to inline source — workers must not need the coordinator's
/// filesystem. A valid `ctx` rides along as `"trace_ctx"` (outside the
/// job row, outside every hash).
[[nodiscard]] std::string encodeCompileRequest(const service::BatchJob& job,
                                               const TraceContext* ctx =
                                                   nullptr);

/// Parse a POST /compile body. False with *err on malformed JSON, a
/// version mismatch, or a job that fails jobs-file validation. A
/// malformed `trace_ctx` is ignored (ctx stays invalid), never an
/// error.
bool parseCompileRequest(const std::string& body, service::BatchJob* out,
                         TraceContext* ctx, std::string* err);
bool parseCompileRequest(const std::string& body, service::BatchJob* out,
                         std::string* err);

/// Build a response body from a worker-local CompileResult. A non-null
/// `trace` with present=true appends the span batch as a `"trace"`
/// sibling of `"artifact"` — outside the content hash.
[[nodiscard]] std::string encodeCompileResponse(
    const std::string& workerId, const service::CompileResult& r,
    const WireTrace* trace = nullptr);

/// Build the response body of a successful GET /artifact cache hit.
[[nodiscard]] std::string encodeArtifactResponse(
    const std::string& workerId, const service::CompileArtifact& a,
    const WireTrace* trace = nullptr);

/// Parse a response body. Returns false with *err on malformed JSON or
/// schema violations; a version mismatch PARSES (returns true) with
/// `out->code == StaleWorker` so callers route it through the normal
/// transient-retry policy instead of a parse-error path.
bool parseWireResponse(const std::string& body, WireResponse* out,
                       std::string* err);

}  // namespace phpf::cluster
