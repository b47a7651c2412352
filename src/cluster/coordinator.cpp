#include "cluster/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>

#include "cluster/http_client.h"
#include "obs/flight_recorder.h"
#include "service/fingerprint.h"

namespace phpf::cluster {

using service::CompileStatus;
using service::ErrorCode;

namespace {

double usBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                   .count()) /
           1000.0;
}

}  // namespace

obs::Json RequestChain::toJson() const {
    obs::Json j = obs::Json::object();
    j.set("job", job);
    if (!traceId.empty()) j.set("trace_id", traceId);
    j.set("total_us", totalUs);
    j.set("route", route);
    if (!worker.empty()) j.set("worker", worker);
    j.set("attempts", attempts);
    obs::Json arr = obs::Json::array();
    for (const RequestHop& h : hops) {
        obs::Json e = obs::Json::object();
        e.set("kind", h.kind);
        if (!h.worker.empty()) e.set("worker", h.worker);
        e.set("us", h.us);
        e.set("code", h.code);
        arr.push(std::move(e));
    }
    j.set("hops", std::move(arr));
    return j;
}

Coordinator::Coordinator(CoordinatorConfig cfg)
    : cfg_(std::move(cfg)), ring_(cfg_.ringReplicas) {
    const FaultInjector* inj = cfg_.faults != nullptr
                                   ? cfg_.faults
                                   : FaultInjector::processIfEnabled();
    if (inj != nullptr)
        partitionSite_ = inj->find(faultsite::kClusterPartition);
}

bool Coordinator::addWorker(const std::string& endpoint, std::string* err) {
    ProbeResult p = probeWorker(endpoint);
    if (!p.alive) {
        if (err) *err = "worker " + endpoint + ": " + p.error;
        return false;
    }
    return true;
}

ProbeResult Coordinator::probeWorker(const std::string& endpoint) {
    ProbeResult p;
    std::string host;
    int port = 0;
    if (!parseEndpoint(endpoint, &host, &port)) {
        p.error = "malformed endpoint";
        return p;
    }
    registry_.counter("cluster.coord.probes").add();
    HttpResult r = httpGet(host, port, "/healthz", cfg_.probeTimeoutMs);
    if (!r.ok || r.status != 200) {
        p.error = r.ok ? "healthz status " + std::to_string(r.status)
                       : r.error;
        markDead(endpoint);
        return p;
    }
    obs::Json h = obs::Json::parse(r.body);
    p.id = h.at("worker").stringValue();
    p.wireVersion = static_cast<int>(h.at("wire_version").intValue());
    if (p.wireVersion != kWireVersion) {
        // Answering probes but speaking another protocol: stale. Off
        // the ring it goes until it comes back speaking ours.
        p.error = "wire version " + std::to_string(p.wireVersion);
        registry_.counter("cluster.coord.stale_workers").add();
        markDead(endpoint);
        return p;
    }
    p.alive = true;
    markAlive(endpoint, p.id);
    return p;
}

std::vector<std::string> Coordinator::aliveWorkers() const {
    std::lock_guard<std::mutex> lk(mu_);
    return ring_.nodes();
}

std::size_t Coordinator::workerCount() const {
    std::lock_guard<std::mutex> lk(mu_);
    return ring_.size();
}

std::vector<KnownWorker> Coordinator::knownWorkers() const {
    std::vector<KnownWorker> out;
    {
        std::lock_guard<std::mutex> lk(mu_);
        out.reserve(workers_.size());
        for (const auto& [ep, info] : workers_)
            out.push_back({ep, info.id, info.alive});
    }
    std::sort(out.begin(), out.end(),
              [](const KnownWorker& a, const KnownWorker& b) {
                  return a.endpoint < b.endpoint;
              });
    return out;
}

std::string Coordinator::routingKey(const service::BatchJob& job) {
    // Canonical wire form minus the label: two jobs differing only in
    // their row name are the same compile and must route (and cache)
    // identically. File jobs resolve to source first for the same
    // reason a wire request does — routing must not depend on paths.
    service::BatchJob canonical = job;
    canonical.name.clear();
    std::uint64_t h = service::fnv1a64(encodeCompileRequest(canonical));
    char buf[20];
    std::snprintf(buf, sizeof buf, "r%016" PRIx64, h);
    return buf;
}

std::string Coordinator::ownerOf(const service::BatchJob& job) const {
    std::lock_guard<std::mutex> lk(mu_);
    return ring_.ownerOf(routingKey(job));
}

void Coordinator::markDead(const std::string& endpoint) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = workers_.find(endpoint);
    bool wasAlive = it != workers_.end() && it->second.alive;
    workers_[endpoint].alive = false;
    if (ring_.contains(endpoint)) {
        ring_.remove(endpoint);  // hash range re-owned by survivors
        if (wasAlive) registry_.counter("cluster.coord.workers_lost").add();
    }
}

void Coordinator::markAlive(const std::string& endpoint,
                            const std::string& id) {
    std::lock_guard<std::mutex> lk(mu_);
    WorkerInfo& info = workers_[endpoint];
    if (!info.id.empty() && info.id != id) {
        // Same endpoint, new identity: a restarted worker. Its cache is
        // gone, so drop hints pointing at it.
        for (auto it = hints_.begin(); it != hints_.end();) {
            if (it->second.worker == endpoint)
                it = hints_.erase(it);
            else
                ++it;
        }
        registry_.counter("cluster.coord.workers_restarted").add();
    }
    info.id = id;
    info.alive = true;
    ring_.add(endpoint);
}

bool Coordinator::cacheGet(const std::string& rkey, WireArtifact* out) {
    std::lock_guard<std::mutex> lk(cacheMu_);
    auto it = cacheIndex_.find(rkey);
    if (it == cacheIndex_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second);  // touch
    *out = it->second->second;
    return true;
}

void Coordinator::cachePut(const std::string& rkey, const WireArtifact& a) {
    std::lock_guard<std::mutex> lk(cacheMu_);
    auto it = cacheIndex_.find(rkey);
    if (it != cacheIndex_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        it->second->second = a;
        return;
    }
    lru_.emplace_front(rkey, a);
    cacheIndex_[rkey] = lru_.begin();
    while (lru_.size() > cfg_.cacheCapacity) {
        cacheIndex_.erase(lru_.back().first);
        lru_.pop_back();
        registry_.counter("cluster.coord.local_evictions").add();
    }
}

ClusterOutcome Coordinator::compileJob(const service::BatchJob& job,
                                       const std::string& preferred) {
    const auto t0 = std::chrono::steady_clock::now();
    ReqCtx rc;
    rc.rkey = routingKey(job);
    obs::Tracer::Handle reqSpan{};
    obs::Tracer* tracer = cfg_.tracer;
    if (tracer != nullptr && tracer->enabled() && cfg_.traceSampleEvery > 0) {
        const std::uint64_t n =
            sampleCounter_.fetch_add(1, std::memory_order_relaxed);
        if (n % static_cast<std::uint64_t>(cfg_.traceSampleEvery) == 0) {
            const std::string spanName =
                "request:" + (job.name.empty() ? rc.rkey : job.name);
            reqSpan = tracer->begin(spanName.c_str(), "cluster");
            rc.sampled = true;
            rc.requestSpan = reqSpan.id;
            // Deterministic-enough trace id: the routing key identifies
            // the compile, the instance + counter make it unique across
            // repeats and coordinator restarts.
            rc.base.traceIdHi = service::fnv1a64(rc.rkey);
            rc.base.traceIdLo =
                (tracer->instanceId() << 32) ^ n ^ 0x9e3779b97f4a7c15ULL;
            if (!rc.base.valid()) rc.base.traceIdLo = 1;
            rc.base.parentSpan = reqSpan.id;
            rc.base.sampled = true;
        }
    }
    ClusterOutcome out = compileTiers(job, preferred, rc);
    if (rc.sampled) {
        tracer->end(reqSpan);
        out.traceId = rc.base.traceIdHex();
    }
    const double us = usBetween(t0, std::chrono::steady_clock::now());
    registry_.histogram("cluster.coord.request_us").record(us);
    // Per-tier and per-worker series: what the federation rolls up.
    const char* tier = out.localHit   ? "local_hit"
                       : out.peerHit ? "peer_hit"
                                     : "compute";
    registry_.histogram(std::string("cluster.coord.tier.") + tier + "_us")
        .record(us);
    if (!out.worker.empty())
        registry_.histogram("cluster.coord.worker." + out.worker + "_us")
            .record(us);
    noteRequest(job, out, us, rc);
    return out;
}

ClusterOutcome Coordinator::compileTiers(const service::BatchJob& job,
                                         const std::string& preferred,
                                         ReqCtx& rc) {
    registry_.counter("cluster.coord.requests").add();
    const std::string& rkey = rc.rkey;

    // Tier 1: coordinator-local LRU.
    ClusterOutcome out;
    if (cacheGet(rkey, &out.artifact)) {
        registry_.counter("cluster.coord.local_hits").add();
        out.status = CompileStatus::Ok;
        out.code = ErrorCode::None;
        out.localHit = true;
        out.hasArtifact = true;
        rc.hops.push_back({"local-hit", "", 0.0, "none"});
        return out;
    }

    // Tier 2: peer fetch from the worker that last compiled this key.
    Hint hint;
    bool hasHint = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = hints_.find(rkey);
        if (it != hints_.end() && ring_.contains(it->second.worker)) {
            hint = it->second;
            hasHint = true;
        }
    }
    if (hasHint) {
        registry_.counter("cluster.coord.peer_fetches").add();
        if (FaultInjector::poll(partitionSite_)) {
            // Partitioned away: drop the fetch before any bytes move
            // and degrade to the compute tier.
            registry_.counter("cluster.coord.partitions").add();
        } else {
            std::string host;
            int port = 0;
            if (parseEndpoint(hint.worker, &host, &port)) {
                // Network span around the fetch; the context rides as a
                // query parameter (GETs have no body).
                obs::Tracer::Handle net{};
                std::string path = "/artifact/" + hint.artifactKey;
                if (rc.sampled) {
                    const std::string netName = "fetch:" + hint.worker;
                    net = cfg_.tracer->begin(netName.c_str(), "net");
                    TraceContext ctx = rc.base;
                    if (net.id != 0) ctx.parentSpan = net.id;
                    path += "?traceparent=" + ctx.encode();
                }
                const std::int64_t sendNs =
                    rc.sampled ? cfg_.tracer->nowNs() : 0;
                const auto h0 = std::chrono::steady_clock::now();
                HttpResult r =
                    httpGet(host, port, path, cfg_.peerFetchTimeoutMs);
                const double hopUs =
                    usBetween(h0, std::chrono::steady_clock::now());
                const std::int64_t recvNs =
                    rc.sampled ? cfg_.tracer->nowNs() : 0;
                if (rc.sampled) cfg_.tracer->end(net);
                WireResponse wr;
                std::string perr;
                const bool parsed =
                    r.ok && r.status == 200 &&
                    parseWireResponse(r.body, &wr, &perr);
                if (parsed && rc.sampled)
                    collectTrace(wr, sendNs, recvNs);
                rc.hops.push_back({"peer-fetch", hint.worker, hopUs,
                                   parsed && wr.ok() ? "none"
                                   : r.ok            ? "miss"
                                       : service::errorCodeName(r.code)});
                if (parsed && wr.ok()) {
                    registry_.counter("cluster.coord.peer_hits").add();
                    cachePut(rkey, wr.artifact);
                    out.status = CompileStatus::Ok;
                    out.code = ErrorCode::None;
                    out.peerHit = true;
                    out.worker = hint.worker;
                    out.hasArtifact = true;
                    out.artifact = std::move(wr.artifact);
                    return out;
                }
                registry_.counter("cluster.coord.peer_misses").add();
                if (!r.ok)  // transport failure, not just an evicted key
                    probeWorker(hint.worker);
            }
        }
    }

    // Tier 3: compute.
    return computeTier(job, rkey, preferred, rc);
}

ClusterOutcome Coordinator::computeTier(const service::BatchJob& job,
                                        const std::string& rkey,
                                        const std::string& preferred,
                                        ReqCtx& rc) {
    ClusterOutcome out;
    const std::string body = encodeCompileRequest(job);
    std::int64_t backoffMs = cfg_.retryBackoffMs;
    std::string skip;  // endpoint the previous attempt failed on

    for (int attempt = 0; attempt < cfg_.maxAttempts; ++attempt) {
        // Route: the thief's own worker when alive, else the ring owner
        // (skipping the endpoint that just failed us — its probe may
        // not have removed it, e.g. StaleWorker keeps a live process on
        // the ring).
        std::string target;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!preferred.empty() && ring_.contains(preferred) &&
                preferred != skip) {
                target = preferred;
            } else {
                for (const std::string& ep : ring_.ownersOf(rkey, 2)) {
                    if (ep != skip) {
                        target = ep;
                        break;
                    }
                }
            }
        }
        if (target.empty()) {
            out.code = ErrorCode::RemoteUnreachable;
            out.error = "no alive worker";
            break;
        }

        std::string host;
        int port = 0;
        if (!parseEndpoint(target, &host, &port)) {
            out.code = ErrorCode::RemoteUnreachable;
            out.error = "malformed worker endpoint " + target;
            break;
        }

        ++out.attempts;
        if (attempt > 0) {
            registry_.counter("cluster.coord.retries").add();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoffMs));
            backoffMs *= 2;
        }

        // Network span per attempt; each attempt's context parents
        // under its own span. The context is spliced into the
        // already-encoded body — re-encoding the job per attempt costs
        // more than the whole rest of the traced request handling.
        obs::Tracer::Handle net{};
        std::string tracedBody;
        const std::string* sendBody = &body;
        if (rc.sampled) {
            const std::string netName = "post:" + target;
            net = cfg_.tracer->begin(netName.c_str(), "net");
            TraceContext ctx = rc.base;
            if (net.id != 0) ctx.parentSpan = net.id;
            // body is a non-empty JSON object ("{\"v\":...}"); the
            // parser finds trace_ctx by key, so leading is fine.
            tracedBody.reserve(body.size() + 72);
            tracedBody = "{\"trace_ctx\":\"";
            tracedBody += ctx.encode();
            tracedBody += "\",";
            tracedBody.append(body, 1, std::string::npos);
            sendBody = &tracedBody;
        }
        const std::int64_t sendNs = rc.sampled ? cfg_.tracer->nowNs() : 0;
        const auto h0 = std::chrono::steady_clock::now();
        HttpResult r = httpPost(host, port, "/compile", *sendBody,
                                cfg_.requestTimeoutMs);
        const double hopUs = usBetween(h0, std::chrono::steady_clock::now());
        const std::int64_t recvNs = rc.sampled ? cfg_.tracer->nowNs() : 0;
        if (rc.sampled) cfg_.tracer->end(net);
        WireResponse wr;
        std::string perr;
        if (!r.ok) {
            out.code = r.code;  // RemoteUnreachable | PeerTimeout
            out.error = target + ": " + r.error;
            rc.hops.push_back(
                {"post", target, hopUs, service::errorCodeName(out.code)});
        } else if (!parseWireResponse(r.body, &wr, &perr)) {
            out.code = ErrorCode::StaleWorker;
            out.error = target + ": unparseable response: " + perr;
            rc.hops.push_back(
                {"post", target, hopUs, service::errorCodeName(out.code)});
        } else {
            if (rc.sampled) collectTrace(wr, sendNs, recvNs);
            // Identity check: an endpoint answering with an unknown id
            // is a restarted (stale) worker whose cache state we
            // mis-model — discard and re-route.
            {
                std::lock_guard<std::mutex> lk(mu_);
                auto it = workers_.find(target);
                if (wr.code != ErrorCode::StaleWorker &&
                    it != workers_.end() && !it->second.id.empty() &&
                    !wr.worker.empty() && wr.worker != it->second.id) {
                    wr.status = CompileStatus::Error;
                    wr.code = ErrorCode::StaleWorker;
                    wr.error = "identity changed: " + wr.worker;
                    wr.hasArtifact = false;
                }
            }
            out.status = wr.status;
            out.code = wr.code;
            out.error = wr.error;
            out.worker = target;
            rc.hops.push_back(
                {"post", target, hopUs, service::errorCodeName(out.code)});
            if (wr.ok()) {
                registry_.counter("cluster.coord.compiles").add();
                if (wr.cacheHit) {
                    registry_.counter("cluster.coord.worker_hits").add();
                    out.workerHit = true;
                }
                out.hasArtifact = true;
                out.artifact = std::move(wr.artifact);
                cachePut(rkey, out.artifact);
                std::lock_guard<std::mutex> lk(mu_);
                hints_[rkey] = Hint{out.artifact.key, target};
                return out;
            }
        }

        if (!service::isTransient(out.code)) {
            // Permanent failure (parse error, deadline, internal):
            // retrying elsewhere would fail identically.
            registry_.counter("cluster.coord.permanent_failures").add();
            return out;
        }
        registry_.counter("cluster.coord.transient_failures").add();

        // Transient: decide whether the worker is sick or just the
        // request. A probe that fails (or reports a skewed wire
        // version) removes the worker from the ring — its hash range
        // re-owned by the survivors; `skip` additionally steers this
        // job's next attempt away even when the probe passes.
        if (out.code == ErrorCode::RemoteUnreachable ||
            out.code == ErrorCode::PeerTimeout ||
            out.code == ErrorCode::StaleWorker)
            probeWorker(target);
        skip = target;
        out.status = CompileStatus::Error;
        out.hasArtifact = false;
    }

    registry_.counter("cluster.coord.exhausted").add();
    if (out.error.empty()) out.error = "attempts exhausted";
    out.status = CompileStatus::Error;
    return out;
}

void Coordinator::collectTrace(const WireResponse& wr, std::int64_t sendNs,
                               std::int64_t recvNs) {
    if (!wr.trace.present || cfg_.tracer == nullptr) return;
    registry_.counter("cluster.coord.span_batches").add();
    const std::int64_t offset = estimateClockOffsetNs(
        sendNs, wr.trace.recvNs, wr.trace.sendNs, recvNs);
    // The exchange's round-trip residual bounds the offset error; the
    // stitcher keeps the tightest exchange per worker.
    const std::int64_t uncertainty =
        (recvNs - sendNs) - (wr.trace.sendNs - wr.trace.recvNs);
    const std::string who = wr.worker.empty() ? "worker" : wr.worker;
    // Key by identity + tracer epoch: a restarted worker's span ids
    // restart too, and must not collide with its previous life.
    stitcher_.addBatch(who + "#" + std::to_string(wr.trace.epoch), who,
                       offset, uncertainty, wr.trace.spans);
}

void Coordinator::noteRequest(const service::BatchJob& job,
                              const ClusterOutcome& out, double us,
                              ReqCtx& rc) {
    if (cfg_.slowExemplars <= 0) return;
    const std::size_t cap = static_cast<std::size_t>(cfg_.slowExemplars);
    RequestChain c;
    c.job = job.name.empty() ? rc.rkey : job.name;
    c.traceId = out.traceId;
    c.totalUs = us;
    c.route = out.localHit   ? "local-hit"
              : out.peerHit ? "peer-hit"
              : out.ok()    ? "compute"
                            : "failed";
    c.worker = out.worker;
    c.attempts = out.attempts;
    c.hops = std::move(rc.hops);
    char line[160];
    std::snprintf(line, sizeof line, "%s %.1fms %s %s", c.job.c_str(),
                  us / 1000.0, c.route.c_str(), c.worker.c_str());
    bool kept = false;
    {
        std::lock_guard<std::mutex> lock(slowMu_);
        if (slow_.size() < cap) {
            slow_.push_back(std::move(c));
            kept = true;
        } else {
            auto minIt = std::min_element(
                slow_.begin(), slow_.end(),
                [](const RequestChain& a, const RequestChain& b) {
                    return a.totalUs < b.totalUs;
                });
            if (c.totalUs > minIt->totalUs) {
                *minIt = std::move(c);
                kept = true;
            }
        }
    }
    if (kept) obs::FlightRecorder::global().record("cluster.slow", line);
}

StitchStats Coordinator::stitchTrace() {
    if (cfg_.tracer == nullptr) return {};
    StitchStats st = stitcher_.stitchInto(*cfg_.tracer);
    registry_.counter("cluster.coord.spans_imported")
        .add(static_cast<std::int64_t>(st.spans));
    registry_.counter("cluster.coord.spans_lost")
        .add(static_cast<std::int64_t>(st.orphans + st.dropped));
    return st;
}

std::vector<RequestChain> Coordinator::slowRequests() const {
    std::vector<RequestChain> out;
    {
        std::lock_guard<std::mutex> lock(slowMu_);
        out = slow_;
    }
    std::sort(out.begin(), out.end(),
              [](const RequestChain& a, const RequestChain& b) {
                  return a.totalUs > b.totalUs;
              });
    return out;
}

}  // namespace phpf::cluster
