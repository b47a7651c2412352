#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <map>
#include <unordered_map>

#include "frontend/parser.h"
#include "layers.h"
#include "programs/programs.h"
#include "service/compile_service.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using phpf::service::CompileRequest;
using phpf::service::CompileResult;
using phpf::service::CompileService;

double secondsSince(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The service's cache holds fewer entries than the 220-key space. The
// Zipf skew (kMixSkew) makes a little under half the requests hit, so
// the median request is a miss: latencies form a hit mode and a miss
// mode with a sparse gap between them, and a median in the gap would
// jump with every small change in hit ratio.
constexpr std::size_t kCacheCapacity = 48;
// Enough draws that no run on a 4-core host exhausts the stream.
constexpr int kStreamLength = 400000;
constexpr int kSetupReps = 3;
// Span job ids of the untimed work after the loop, clear of request ids.
constexpr std::int64_t kReplayJob = 1'000'000'000;
constexpr std::int64_t kVerifyJob = 2'000'000'000;

CompileRequest requestOf(const MixEntry& e) {
    CompileRequest req;
    req.name = e.label;
    req.source = e.source;
    req.target = e.target;
    req.passes = e.passes;
    return req;
}

/// Warm the process (allocator, code paths, thread start-up) on a
/// throwaway service with requests outside the key space, so the
/// measured service's cache starts empty.
void warmUp(int workers) {
    phpf::service::ServiceConfig sc;
    sc.workers = workers;
    CompileService warm(sc);
    std::vector<std::shared_future<CompileResult>> futs;
    for (const auto n : {12, 20}) {
        CompileRequest req;
        req.name = "warm-up";
        req.build = [n] { return phpf::programs::tomcatv(n, 1); };
        req.target.gridExtents = {4};
        futs.push_back(warm.submit(req));
    }
    for (auto& f : futs) (void)f.get();
}

struct Pending {
    std::int64_t id;
    int key;
    std::int64_t submitNs;
    std::int64_t submitEndNs;
    std::shared_future<CompileResult> fut;
};

}  // namespace

RunResult runCompileMix(const RunConfig& cfg) {
    RunResult r;
    SpanRecorder rec(false);

    // --- setup: key space, seeded stream, warm-up, fresh service -------
    std::vector<MixEntry> keys;
    std::vector<int> stream;
    std::unique_ptr<CompileService> svc;
    std::vector<double> setupSec;
    phpf::service::ServiceConfig sc;
    sc.workers = cfg.threads;
    sc.cacheCapacity = kCacheCapacity;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        svc.reset();
        keys = mixKeySpace();
        stream = mixStream(cfg.seed, static_cast<int>(keys.size()), kStreamLength);
        warmUp(cfg.threads);
        svc = std::make_unique<CompileService>(sc);
        setupSec.push_back(secondsSince(t0));
    }
    if (svc->stats().cache.size != 0) r.fail("warm-up left entries in the measured cache");

    // --- measured loop: up to `threads` requests in flight -------------
    const int inflight = cfg.threads;
    std::deque<Pending> pending;
    std::vector<double> jobMs, tracedMs, untracedMs;
    ServiceTally tally;
    std::vector<std::string> keyOf(keys.size());
    std::unordered_map<std::string, int> indexOfKey;
    std::vector<std::shared_ptr<const phpf::service::CompileArtifact>> artifact(keys.size());
    std::vector<char> missed(keys.size(), 0);
    size_t next = 0;

    const auto harvest = [&](const Pending& p) {
        const CompileResult res = p.fut.get();
        const bool traced = cfg.trace && p.id % 2 == 0;
        const double ms = res.totalUs / 1e3;
        jobMs.push_back(ms);
        (traced ? tracedMs : untracedMs).push_back(ms);
        tally.add(res);
        if (res.status != phpf::service::CompileStatus::Ok || res.artifact == nullptr) {
            r.fail("request " + std::to_string(p.id) + " (" + keys[static_cast<size_t>(p.key)].label +
                   "): status " + phpf::service::statusName(res.status) + " " + res.error);
            return;
        }
        std::string& k = keyOf[static_cast<size_t>(p.key)];
        if (k.empty()) {
            k = res.key;
            const auto [it, fresh] = indexOfKey.emplace(res.key, p.key);
            if (!fresh && it->second != p.key) {
                r.fail("requests " + keys[static_cast<size_t>(p.key)].label + " and " +
                       keys[static_cast<size_t>(it->second)].label + " share key " + res.key);
                return;
            }
            artifact[static_cast<size_t>(p.key)] = res.artifact;
        }
        if (res.key != k || res.artifact->key != k) {
            r.fail("request " + std::to_string(p.id) + " (" + keys[static_cast<size_t>(p.key)].label +
                   "): artifact under key " + res.artifact->key + ", expected " + k);
            return;
        }
        if (!res.cacheHit && !res.coalesced) missed[static_cast<size_t>(p.key)] = 1;
        if (!traced) return;
        const double queue = res.totalUs - res.parseUs - res.compileUs;
        // Spans of a request are recorded after it completes, so tracing
        // costs the request itself nothing. The service runs it on a
        // worker; its own timings place the parse/fingerprint and compile
        // layers after the queue wait.
        const auto us = [](double v) { return static_cast<std::int64_t>(v * 1e3); };
        const std::int64_t end = p.submitNs + us(res.totalUs);
        const int root = rec.add(kJobSpan, p.submitNs, end, -1, p.id);
        rec.add("service.submit", p.submitNs, p.submitEndNs, root, p.id);
        const std::int64_t parse0 = p.submitNs + us(queue);
        rec.add("service.parse_fingerprint", parse0, parse0 + us(res.parseUs), root, p.id);
        if (res.compileUs > 0)
            rec.add("service.compile", parse0 + us(res.parseUs), end, root, p.id);
    };

    const std::int64_t steal0 = stealTicks();
    const Clock::time_point start = Clock::now();
    while (secondsSince(start) < cfg.seconds && next < stream.size()) {
        while (static_cast<int>(pending.size()) < inflight && next < stream.size()) {
            Pending p{static_cast<std::int64_t>(next), stream[next], rec.nowNs(), 0, {}};
            p.fut = svc->submit(requestOf(keys[static_cast<size_t>(p.key)]));
            p.submitEndNs = rec.nowNs();
            ++r.attempted;
            ++next;
            pending.push_back(std::move(p));
        }
        // Block briefly on the oldest request, then collect every one
        // that finished, so completions free slots in any order.
        pending.front().fut.wait_for(std::chrono::microseconds(100));
        for (auto it = pending.begin(); it != pending.end();) {
            if (it->fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
                harvest(*it);
                it = pending.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const Pending& p : pending) harvest(p);
    pending.clear();
    const double window = secondsSince(start);
    if (next >= stream.size()) r.notes.push_back("request stream exhausted before the deadline");
    const phpf::service::ServiceStats stats = svc->stats();

    // --- untimed checks: simulate each distinct key once ----------------
    std::vector<std::optional<SimCounts>> counts(keys.size());
    std::vector<double> execUs, imbalance, busyRatio, speedup, perStmt, decisions, commOps;
    rec.setEnabled(cfg.trace);
    for (size_t k = 0; k < keys.size(); ++k) {
        if (artifact[k] == nullptr) continue;
        const phpf::Compilation& c = *artifact[k]->compilation;
        const std::int64_t job = kVerifyJob + static_cast<std::int64_t>(k);
        Rng rng(cfg.seed ^ (0x9E3779B9ull * (k + 1)));
        const SimInput input = seedAllArrays(c.program(), rng);
        try {
            const auto sim = simulateSpanned(c, input, cfg.threads, &rec, job);
            if (cfg.trace) {
                ScopedSpan s(&rec, "obs.run_report", job);
                (void)c.buildRunReport(sim.get());
            }
            if (std::string why = oracleMismatch(c, *sim); !why.empty()) {
                r.fail(keys[k].label + ": " + why);
                continue;
            }
            counts[k] = countsOf(*sim);
            if (!cfg.trace) continue;
            const auto one = simulateSpanned(c, input, 1, nullptr, job);
            if (!(countsOf(*one) == *counts[k])) {
                r.fail(keys[k].label + ": counts differ between 1 and " +
                       std::to_string(sim->threads()) + " threads");
                continue;
            }
            const double wall = sim->wallSec();
            execUs.push_back(wall * 1e6);
            imbalance.push_back(sim->imbalanceRatio());
            busyRatio.push_back(wall > 0 ? sim->workerBusySec() / (wall * sim->threads()) : 0);
            if (one->wallSec() > 0 && wall > 0) speedup.push_back(one->wallSec() / wall);
            if (counts[k]->procStmts > 0)
                perStmt.push_back(wall * 1e9 / static_cast<double>(counts[k]->procStmts));
            decisions.push_back(static_cast<double>(c.mappingPass().decisionLog().records().size()));
            commOps.push_back(static_cast<double>(c.lowering().commOps().size()));
        } catch (const std::exception& e) {
            r.fail(keys[k].label + ": simulation threw: " + e.what());
        }
    }

    // --- results -----------------------------------------------------------
    const TailPercentile tail = tailPercentile(jobMs);
    r.notes.push_back("requests " + std::to_string(jobMs.size()) + " in " +
                      std::to_string(window) + " s, " + std::to_string(inflight) +
                      " in flight, " + std::to_string(stats.workers) + " workers, cache " +
                      std::to_string(kCacheCapacity) + " of " + std::to_string(keys.size()) +
                      " keys");
    r.notes.push_back("hits " + std::to_string(tally.hits) + " of " + std::to_string(tally.requests) +
                      " requests, " + std::to_string(stats.cache.evictions) + " evictions, " +
                      std::to_string(stats.coalescedJoins) + " coalesced joins");
    r.notes.push_back(tailNote("job_ms_tail", tail));
    r.notes.push_back(stealNote(steal0, window));
    if (!cfg.trace) {
        // The generated code of the average request: each key's counts
        // weighted by its share of the mix, so the figure is exact and
        // the same for every seed.
        const std::vector<double> w = zipfWeights(static_cast<int>(keys.size()));
        double stmts = 0, events = 0, bytes = 0, d = 0;
        for (size_t k = 0; k < keys.size(); ++k) {
            if (!counts[k]) continue;
            stmts += w[k] * static_cast<double>(counts[k]->procStmts);
            events += w[k] * static_cast<double>(counts[k]->events);
            bytes += w[k] * counts[k]->bytes;
            d += w[k];
        }
        if (d == 0) d = 1;
        r.add("setup_s", median(setupSec), "s");
        r.add("job_ms_p50", median(jobMs), "ms");
        r.add("job_ms_tail", tail.value, "ms");
        r.add("jobs_per_s", window > 0 ? static_cast<double>(jobMs.size()) / window : 0, "1/s");
        r.add("peak_rss_mb", peakRssMb(), "MB");
        r.add("sim_proc_stmts", stmts / d, "count");
        r.add("sim_message_events", events / d, "count");
        r.add("sim_bytes_moved", bytes / d, "B");
        return r;
    }

    // Stage times: replay each distinct miss through the pipeline, one
    // stage at a time, outside the service.
    for (size_t k = 0; k < keys.size(); ++k) {
        if (!missed[k]) continue;
        const std::int64_t job = kReplayJob + static_cast<std::int64_t>(k);
        ScopedSpan root(&rec, "replay", job);
        phpf::DiagEngine diags;
        phpf::Program prog = [&] {
            ScopedSpan s(&rec, "frontend.parse", job);
            phpf::Parser parser(keys[k].source, diags);
            return parser.parse();
        }();
        auto c = compileStaged(prog, keys[k].target, keys[k].passes, &rec, job);
        if (!c) {
            r.fail(keys[k].label + ": replayed compilation did not finish");
            continue;
        }
        ScopedSpan s(&rec, "target.predict", job);
        (void)c->predictCostFor(phpf::TargetKind::MessagePassing);
        (void)c->predictCostFor(phpf::TargetKind::SharedMemory);
    }

    LayerValues v;
    addSpanMedians(rec, &v);
    for (const char* drop : {"job_us", "replay_us", "driver.finalize_us",
                             "service.submit_us", "service.parse_fingerprint_us",
                             "service.compile_us"})
        v.erase(drop);
    v["privatize.decisions"] = median(decisions);
    v["spmd.comm_ops"] = median(commOps);
    v["runtime.sim_exec_us"] = median(execUs);
    v["runtime.ns_per_proc_stmt"] = median(perStmt);
    v["runtime.imbalance"] = median(imbalance);
    v["support.pool_busy_ratio"] = median(busyRatio);
    v["support.lockstep_speedup"] = median(speedup);
    tally.addTo(stats, &v);
    v["bench.unattributed_pct"] = unattributedPct(rec, kJobSpan);
    const double un = median(untracedMs);
    v["bench.trace_overhead_pct"] = un > 0 ? 100.0 * (median(tracedMs) - un) / un : 0;
    addLayerMetrics(v, &r);
    r.notes.push_back("compile-stage layers are medians over " +
                      std::to_string(std::count(missed.begin(), missed.end(), 1)) +
                      " replayed distinct misses; runtime layers over the untimed "
                      "verification simulations");
    if (!cfg.traceOut.empty()) {
        if (!rec.writeChromeTrace(cfg.traceOut, "perfbench compile_mix"))
            r.fail("cannot write " + cfg.traceOut);
        else
            r.notes.push_back("chrome trace written to " + cfg.traceOut);
    }
    return r;
}

}  // namespace perfbench
