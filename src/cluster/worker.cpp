#include "cluster/worker.h"

#include <unistd.h>

#include "service/batch.h"
#include "support/thread_registry.h"

namespace phpf::cluster {

using service::CompileStatus;
using service::ErrorCode;
using service::HttpReply;
using service::HttpRequest;

namespace {

constexpr const char* kJsonType = "application/json";

/// A response doc for failures that never reached the service.
std::string errorDoc(const std::string& workerId, ErrorCode code,
                     const std::string& message) {
    service::CompileResult r;
    r.status = code == ErrorCode::None ? CompileStatus::Ok
                                       : CompileStatus::Error;
    r.code = code;
    r.error = message;
    return encodeCompileResponse(workerId, r);
}

/// Value of one `key=value` parameter in a raw query string ("" when
/// absent). No %-decoding: traceparent values are plain hex and '-'.
std::string queryParam(const std::string& query, const std::string& key) {
    std::size_t pos = 0;
    while (pos < query.size()) {
        std::size_t amp = query.find('&', pos);
        if (amp == std::string::npos) amp = query.size();
        const std::size_t eq = query.find('=', pos);
        if (eq != std::string::npos && eq < amp &&
            query.compare(pos, eq - pos, key) == 0)
            return query.substr(eq + 1, amp - eq - 1);
        pos = amp + 1;
    }
    return "";
}

}  // namespace

Worker::Worker(WorkerConfig cfg) : cfg_(std::move(cfg)), server_(cfg_.port) {
    const FaultInjector* inj = cfg_.faults != nullptr
                                   ? cfg_.faults
                                   : FaultInjector::processIfEnabled();
    if (inj != nullptr)
        killSite_ = inj->find(faultsite::kClusterWorkerKill);
    // The service records its compile-stage spans on the worker's
    // tracer so a traced request's span batch covers the whole
    // pipeline, not just the RPC envelope. An explicitly configured
    // tracer (in-process tests) wins.
    if (cfg_.service.tracer == nullptr) cfg_.service.tracer = &tracer_;
    svc_ = std::make_unique<service::CompileService>(cfg_.service);

    server_.setConnectionThreads(cfg_.connectionThreads);
    server_.setLimits(cfg_.limits);
    server_.addRegistry("phpf", &svc_->metrics());
    server_.addRegistry("phpf", &registry_);
    server_.setApiHandler(
        [this](const HttpRequest& req) { return handle(req); });
    server_.setHealthProvider([this] {
        obs::Json h = obs::Json::object();
        h.set("worker", cfg_.id);
        h.set("wire_version", cfg_.wireVersion);
        service::ServiceStats s = svc_->stats();
        h.set("queue_depth", static_cast<std::int64_t>(s.queueDepth));
        h.set("active_jobs", s.activeJobs);
        h.set("cached_artifacts", static_cast<std::int64_t>(s.cache.size));
        return h;
    });
    server_.setReportProvider([this] { return svc_->metricsJson(); });
}

Worker::~Worker() { stop(); }

bool Worker::start(std::string* err) {
    if (!server_.start(err)) return false;
    if (cfg_.id.empty())
        cfg_.id = "worker-" + std::to_string(server_.port());
    return true;
}

void Worker::stop() { server_.stop(); }

HttpReply Worker::handle(const HttpRequest& req) {
    HttpReply reply;
    reply.contentType = kJsonType;

    if (killed_.load(std::memory_order_acquire)) {
        // Dead workers answer nothing — not even an error document.
        reply.closeAbruptly = true;
        return reply;
    }

    if (req.method == "POST" && req.path == "/compile") {
        if (FaultInjector::poll(killSite_)) {
            registry_.counter("cluster.worker.kills").add();
            if (cfg_.killMode == KillMode::Exit) {
                // The deterministic stand-in for kill -9: no unwinding,
                // no flushes, sockets reset by the kernel.
                _exit(137);
            }
            killed_.store(true, std::memory_order_release);
            // Mute EVERYTHING — health probes included. A corpse that
            // still answered /healthz would keep getting routed to.
            server_.setMuted(true);
            server_.requestQuit();
            reply.closeAbruptly = true;
            return reply;
        }
        registry_.counter("cluster.worker.compile_requests").add();
        service::BatchJob job;
        TraceContext tctx;
        std::string err;
        if (!parseCompileRequest(req.body, &job, &tctx, &err)) {
            registry_.counter("cluster.worker.bad_requests").add();
            reply.status = 400;
            reply.body = errorDoc(cfg_.id, ErrorCode::ParseError, err);
            return reply;
        }
        service::CompileRequest creq;
        if (!service::requestOfJob(job, &creq, &err)) {
            registry_.counter("cluster.worker.bad_requests").add();
            reply.status = 400;
            reply.body = errorDoc(cfg_.id, ErrorCode::ParseError, err);
            return reply;
        }
        const bool traced = tctx.valid() && tctx.sampled;
        std::int64_t recvNs = 0;
        obs::Tracer::Handle span{};
        if (traced) {
            // Sticky arming: the first sampled request turns the tracer
            // on for the rest of the worker's life; untraced workers
            // only ever pay the enabled() branch.
            if (!tracer_.enabled()) tracer_.setEnabled(true);
            recvNs = tracer_.nowNs();
            span = tracer_.begin("rpc:compile", "cluster");
            if (span.id != 0) noteRootContext(span.id, tctx.parentSpan);
        }
        service::CompileResult result = svc_->compile(creq);
        if (traced) {
            tracer_.end(span);
            const WireTrace wt = harvestTrace(recvNs);
            reply.body = encodeCompileResponse(cfg_.id, result, &wt);
        } else {
            reply.body = encodeCompileResponse(cfg_.id, result);
        }
    } else if (req.method == "GET" &&
               req.path.rfind("/artifact/", 0) == 0) {
        registry_.counter("cluster.worker.artifact_requests").add();
        std::string key = req.path.substr(10);
        // Peer fetches carry trace context as `?traceparent=` (GETs
        // have no body to put a trace_ctx field in).
        TraceContext tctx;
        const std::size_t q = key.find('?');
        if (q != std::string::npos) {
            const std::string query = key.substr(q + 1);
            key.resize(q);
            const std::string tp = queryParam(query, "traceparent");
            if (!tp.empty()) TraceContext::decode(tp, &tctx);
        }
        const bool traced = tctx.valid() && tctx.sampled;
        std::int64_t recvNs = 0;
        obs::Tracer::Handle span{};
        if (traced) {
            if (!tracer_.enabled()) tracer_.setEnabled(true);
            recvNs = tracer_.nowNs();
            span = tracer_.begin("rpc:artifact", "cluster");
            if (span.id != 0) noteRootContext(span.id, tctx.parentSpan);
        }
        std::shared_ptr<const service::CompileArtifact> art =
            svc_->cachedArtifact(key);
        if (art == nullptr) {
            registry_.counter("cluster.worker.artifact_misses").add();
            if (traced) tracer_.end(span);
            reply.status = 404;
            reply.body = errorDoc(cfg_.id, ErrorCode::Internal,
                                  "artifact not cached: " + key);
            return reply;
        }
        registry_.counter("cluster.worker.artifact_hits").add();
        if (traced) {
            tracer_.end(span);
            const WireTrace wt = harvestTrace(recvNs);
            reply.body = encodeArtifactResponse(cfg_.id, *art, &wt);
        } else {
            reply.body = encodeArtifactResponse(cfg_.id, *art);
        }
    } else {
        reply.status = 404;
        reply.body = errorDoc(cfg_.id, ErrorCode::Internal,
                              "no such endpoint: " + req.path);
        return reply;
    }

    // Test hook: fake an out-of-date peer by restamping the version.
    if (cfg_.wireVersion != kWireVersion) {
        obs::Json doc = obs::Json::parse(reply.body);
        doc.set("v", cfg_.wireVersion);
        reply.body = doc.dump(-1);
    }
    return reply;
}

void Worker::noteRootContext(std::uint64_t spanId, std::uint64_t ctx) {
    if (ctx == 0) return;
    std::lock_guard<std::mutex> lock(traceMu_);
    // A map this big means batches stopped shipping (coordinator quit
    // sampling mid-flight); dropping the bridge only degrades
    // parenting, never correctness.
    if (rootCtx_.size() > 4096) rootCtx_.clear();
    rootCtx_[spanId] = ctx;
}

WireTrace Worker::harvestTrace(std::int64_t recvNs) {
    WireTrace t;
    t.present = true;
    t.recvNs = recvNs;
    t.epoch = tracer_.instanceId();
    // Drain whatever has finished — including spans from concurrent
    // requests whose own response already shipped. The coordinator
    // stitches per worker, not per request, so every closed span gets
    // home eventually; which response carries it does not matter.
    std::vector<obs::TraceSpan> spans =
        tracer_.drainClosed(cfg_.maxSpanBatch);
    t.spans.reserve(spans.size());
    std::lock_guard<std::mutex> lock(traceMu_);
    for (obs::TraceSpan& s : spans) {
        WireSpan w;
        w.name = std::move(s.name);
        w.category = std::move(s.category);
        w.threadName = thread_registry::nameOf(s.tid);
        w.startNs = s.startNs;
        w.durNs = s.durNs;
        w.id = s.id;
        w.parent = s.parent;
        w.tid = s.tid;
        auto it = rootCtx_.find(s.id);
        if (it != rootCtx_.end()) {
            w.ctx = it->second;
            rootCtx_.erase(it);
        }
        t.spans.push_back(std::move(w));
    }
    t.sendNs = tracer_.nowNs();
    return t;
}

}  // namespace phpf::cluster
