// Armed-vs-unarmed overhead of distributed trace propagation on the
// compile farm's request path.
//
// Tracing follows the same opt-in contract as the rest of the
// telemetry layer (bench_telemetry_overhead): a coordinator with no
// tracer pays one null check per request, and an ARMED coordinator at
// the default sampling rate (every 8th request, CoordinatorConfig::
// traceSampleEvery) must stay within 2% of it. Sampling is the knob
// that buys that budget: a fully traced request stamps a traceparent
// onto the wire, ships a span batch back, and (on a compile) records
// ~40+ service stage spans — 10-15% of that one request — while an
// unsampled request pays one counter increment. Amortized 1-in-8 the
// armed tracer disappears into the budget and a soak still collects
// hundreds of exemplar traces. The full-rate (--trace-sample=1) cost
// is measured and printed too, as the documented price of
// full-fidelity capture, but the 2% gate is on the default
// configuration — the one every armed production run gets.
//
// The workload is the harshest honest denominator: steady-state
// cache-hit requests over a shared 3-worker in-process farm, with a
// 1-entry coordinator-local tier forcing every request onto the wire
// (a local-LRU hit would measure nothing). Medians of interleaved
// rounds; one re-measure round with more repetitions absorbs
// scheduler noise before the check is treated as a failure.
//
// Any divergence between armed and unarmed artifact content hashes is
// a hard failure: the trace context must ride OUTSIDE the
// content-hashed payload, and overhead numbers from a diverged run
// are worthless anyway.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/coordinator.h"
#include "cluster/worker.h"
#include "obs/trace.h"
#include "service/batch.h"

namespace {

using namespace phpf;

constexpr int kWorkers = 3;
constexpr int kVariants = 16;
constexpr int kPassesPerRound = 8;  // 128 requests per timed round

service::BatchJob variantJob(int v) {
    service::BatchJob job;
    job.name = "v" + std::to_string(v);
    job.program = "fig1";
    job.n = 8 + 2 * v;
    job.target.gridExtents = {4};
    return job;
}

[[noreturn]] void fail(const std::string& why) {
    std::fprintf(stderr, "FATAL: bench_trace_propagation: %s\n", why.c_str());
    std::exit(1);
}

/// One timed round: every variant requested kPassesPerRound times.
/// Worker caches are warm, so this measures the request path itself.
double roundSec(cluster::Coordinator& coord) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kPassesPerRound; ++pass)
        for (int v = 0; v < kVariants; ++v) {
            const auto out = coord.compileJob(variantJob(v));
            if (!out.ok()) fail("request failed: " + out.error);
        }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

struct Measured {
    double unarmedSec = 0;
    double armedSec = 0;    ///< tracer attached, default sampling
    double fullRateSec = 0; ///< tracer attached, sample-every-1
};

/// Interleaved rounds cancel slow drift (thermal, competing CI
/// tenants). The armed coordinators' span storage is drained between
/// rounds so they never measure their own growth.
Measured measure(cluster::Coordinator& unarmed, cluster::Coordinator& armed,
                 cluster::Coordinator& fullRate, obs::Tracer& at,
                 obs::Tracer& ft, int reps) {
    std::vector<double> u, a, f;
    for (int i = 0; i < reps; ++i) {
        u.push_back(roundSec(unarmed));
        a.push_back(roundSec(armed));
        (void)armed.stitchTrace();
        at.clear();
        f.push_back(roundSec(fullRate));
        (void)fullRate.stitchTrace();
        ft.clear();
    }
    return {median(u), median(a), median(f)};
}

double pct(double base, double x) { return 100.0 * (x - base) / base; }

}  // namespace

int main() {
    // One shared farm: all three coordinators hit the same warm worker
    // caches, so the only difference between them is the tracing.
    std::vector<std::unique_ptr<cluster::Worker>> workers;
    for (int i = 0; i < kWorkers; ++i) {
        cluster::WorkerConfig wc;
        wc.killMode = cluster::KillMode::Drop;
        wc.service.cacheCapacity = 256;
        wc.service.workers = 2;
        auto w = std::make_unique<cluster::Worker>(wc);
        std::string err;
        if (!w->start(&err)) fail("worker start: " + err);
        workers.push_back(std::move(w));
    }

    cluster::CoordinatorConfig uc;
    uc.cacheCapacity = 1;  // force every request onto the wire
    cluster::Coordinator unarmed(uc);

    obs::Tracer armedTracer;
    cluster::CoordinatorConfig ac;
    ac.tracer = &armedTracer;  // traceSampleEvery stays at the default
    ac.cacheCapacity = 1;
    cluster::Coordinator armed(ac);

    obs::Tracer fullTracer;
    cluster::CoordinatorConfig fc;
    fc.tracer = &fullTracer;
    fc.traceSampleEvery = 1;  // every request: the full-fidelity price
    fc.cacheCapacity = 1;
    cluster::Coordinator fullRate(fc);

    for (const auto& w : workers) {
        std::string err;
        if (!unarmed.addWorker(w->endpoint(), &err)) fail("join: " + err);
        if (!armed.addWorker(w->endpoint(), &err)) fail("join: " + err);
        if (!fullRate.addWorker(w->endpoint(), &err)) fail("join: " + err);
    }

    // Warm-up + divergence gate: armed artifacts must be bit-identical
    // to unarmed ones for every variant, and full-rate tracing must
    // actually produce trace ids (the armed run only samples 1-in-8,
    // so it is checked for at least one sampled request overall).
    bool armedSampled = false;
    for (int v = 0; v < kVariants; ++v) {
        const auto u = unarmed.compileJob(variantJob(v));
        const auto a = armed.compileJob(variantJob(v));
        const auto f = fullRate.compileJob(variantJob(v));
        if (!u.ok() || !a.ok() || !f.ok()) fail("warm-up compile failed");
        if (f.traceId.empty()) fail("full-rate run produced no trace id");
        armedSampled |= !a.traceId.empty();
        if (a.artifact.contentHash() != u.artifact.contentHash() ||
            f.artifact.contentHash() != u.artifact.contentHash())
            fail("traced run diverged from untraced on v" +
                 std::to_string(v));
    }
    if (!armedSampled)
        fail("default-sampling run produced no trace id in 16 requests");
    (void)armed.stitchTrace();
    armedTracer.clear();
    (void)fullRate.stitchTrace();
    fullTracer.clear();

    Measured m = measure(unarmed, armed, fullRate, armedTracer, fullTracer,
                         /*reps=*/7);
    double overheadPct = pct(m.unarmedSec, m.armedSec);
    if (overheadPct >= 2.0) {
        // One re-measure with more repetitions before declaring a real
        // regression: shared-CI neighbours cause blips a longer median
        // absorbs.
        m = measure(unarmed, armed, fullRate, armedTracer, fullTracer,
                    /*reps=*/11);
        overheadPct = pct(m.unarmedSec, m.armedSec);
    }

    const int requests = kVariants * kPassesPerRound;
    bench::printHeader(
        "Trace propagation: " + std::to_string(requests) +
            " steady-state wire requests, 3 workers, armed at default "
            "sampling",
        {"unarmed_sec", "armed_sec", "overhead_pct"});
    bench::printRow(kWorkers, {m.unarmedSec, m.armedSec, overheadPct});
    std::printf("\n");
    std::printf(
        "info: full-rate tracing (--trace-sample=1): %.4fs vs %.4fs "
        "(%+.1f%%, %+.0fus/request) — the full-fidelity price, not "
        "gated\n",
        m.fullRateSec, m.unarmedSec, pct(m.unarmedSec, m.fullRateSec),
        (m.fullRateSec - m.unarmedSec) * 1e6 / requests);

    if (overheadPct >= 2.0) {
        std::fprintf(stderr,
                     "FATAL: default-sampling trace propagation costs "
                     "%.2f%% (budget < 2%%)\n",
                     overheadPct);
        return 1;
    }
    std::printf("bench_trace_propagation: PASS (%.2f%% overhead)\n",
                overheadPct);
    return 0;
}
