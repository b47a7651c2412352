#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cluster/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/compile_service.h"
#include "service/http_exposition.h"
#include "support/fault.h"

namespace phpf::cluster {

/// How the cluster.worker_kill fault site takes the worker down.
enum class KillMode : std::uint8_t {
    /// _exit(137) — indistinguishable from kill -9 to every observer:
    /// sockets reset, no destructors, no flushes. The mode for real
    /// worker subprocesses (phpfc --worker, the soak bench).
    Exit,
    /// Stay in-process but become a corpse: drop the triggering
    /// connection without a byte and answer nothing ever again. The
    /// mode for in-process tests, which cannot afford to _exit the
    /// test runner.
    Drop,
};

struct WorkerConfig {
    std::string id;  ///< name on the ring; defaults to "worker-<port>"
    int port = 0;    ///< 0 = ephemeral (resolved via port() after start)
    service::ServiceConfig service;
    service::HttpLimits limits;
    /// Connection handler threads: compiles occupy connections for
    /// whole pipeline runs, and health probes must still be answered.
    int connectionThreads = 4;
    KillMode killMode = KillMode::Exit;
    /// Fault source for cluster.worker_kill (null = process injector).
    const FaultInjector* faults = nullptr;
    /// Wire version stamped into responses. Tests set this != kWireVersion
    /// to fake an out-of-date peer and exercise the StaleWorker path;
    /// leave it alone otherwise.
    int wireVersion = kWireVersion;
    /// Cap on the span batch a single traced response carries back.
    /// Spans past the cap stay buffered for the next traced response.
    std::size_t maxSpanBatch = 256;
};

/// One compile worker: a CompileService (sharded artifact cache,
/// coalescing, deadline enforcement, transparent retries) behind the
/// loopback HTTP server, speaking the versioned wire protocol:
///
///   POST /compile          compile a jobs-file row; 200 + response doc
///   GET  /artifact/<key>   cache-only lookup (the peer-fetch tier);
///                          200 + artifact doc, or 404 on a miss —
///                          never compiles
///
/// plus the server built-ins (/metrics with the service and worker
/// registries attached, /healthz carrying the worker id and wire
/// version, /quitquitquit for scripted shutdown).
///
/// The cluster.worker_kill fault site is polled at the top of every
/// POST /compile; see KillMode for what firing does.
class Worker {
public:
    explicit Worker(WorkerConfig cfg = {});
    ~Worker();  ///< stop()s

    Worker(const Worker&) = delete;
    Worker& operator=(const Worker&) = delete;

    bool start(std::string* err = nullptr);
    void stop();

    [[nodiscard]] const std::string& id() const { return cfg_.id; }
    [[nodiscard]] int port() const { return server_.port(); }
    [[nodiscard]] std::string endpoint() const {
        return "127.0.0.1:" + std::to_string(port());
    }
    [[nodiscard]] bool quitRequested() const {
        return server_.quitRequested();
    }
    /// True once the kill site fired in Drop mode (the worker is a
    /// corpse: connected but mute).
    [[nodiscard]] bool killed() const {
        return killed_.load(std::memory_order_acquire);
    }

    [[nodiscard]] service::CompileService& service() { return *svc_; }
    [[nodiscard]] service::MetricsHttpServer& server() { return server_; }
    [[nodiscard]] const obs::MetricRegistry& metrics() const {
        return registry_;
    }
    /// The worker's request tracer (disabled until the first sampled
    /// request arrives; sticky after that).
    [[nodiscard]] obs::Tracer& tracer() { return tracer_; }

private:
    [[nodiscard]] service::HttpReply handle(const service::HttpRequest& req);
    /// Remember the coordinator parent span propagated with a request
    /// whose local root span is `spanId`; consumed at harvest time.
    void noteRootContext(std::uint64_t spanId, std::uint64_t ctx);
    /// Drain up to maxSpanBatch closed spans into a wire batch,
    /// annotating request roots with their coordinator context.
    [[nodiscard]] WireTrace harvestTrace(std::int64_t recvNs);

    WorkerConfig cfg_;
    std::unique_ptr<service::CompileService> svc_;
    service::MetricsHttpServer server_;
    obs::MetricRegistry registry_;  ///< worker-plane counters
    /// Spans recorded while handling traced requests. Starts disabled
    /// (untraced requests pay one branch); the first sampled request
    /// arms it for the rest of the worker's life.
    obs::Tracer tracer_{false};
    /// Local root span id -> coordinator parent span id, bridged into
    /// the span batch at harvest. Bounded: entries are erased when
    /// their span ships; a runaway map (tracing stopped mid-flight) is
    /// dropped wholesale.
    std::mutex traceMu_;
    std::unordered_map<std::uint64_t, std::uint64_t> rootCtx_;
    FaultSite* killSite_ = nullptr;
    std::atomic<bool> killed_{false};
};

}  // namespace phpf::cluster
