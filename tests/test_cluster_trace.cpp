// Distributed tracing + telemetry federation for the compile farm:
// traceparent encode/decode, NTP-style clock-offset estimation, the
// span stitcher (renumbering, rebasing, out-of-order batches, orphan
// re-parenting under a synthetic "lost" span), coordinator-driven
// end-to-end traces with per-worker process rows and cross-process
// parent links, trace sampling, bit-identity of traced compiles, slow
// request exemplars, and /cluster/metrics rollups that exactly equal
// the sum of the per-worker samples on the same page.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster_batch.h"
#include "cluster/coordinator.h"
#include "cluster/federation.h"
#include "cluster/trace_stitch.h"
#include "cluster/wire.h"
#include "cluster/worker.h"
#include "obs/chrome_trace.h"
#include "obs/concurrent_trace.h"
#include "obs/json.h"
#include "service/batch.h"
#include "support/fault.h"

namespace phpf {
namespace {

using cluster::Coordinator;
using cluster::CoordinatorConfig;
using cluster::KillMode;
using cluster::SpanStitcher;
using cluster::StitchStats;
using cluster::TraceContext;
using cluster::WireSpan;
using cluster::Worker;
using cluster::WorkerConfig;
using obs::ConcurrentSpan;
using obs::ConcurrentTracer;

// ---------------------------------------------------------------------
// Trace context wire form.

TEST(TraceContext, EncodeDecodeRoundTrip) {
    TraceContext ctx;
    ctx.traceIdHi = 0x0123456789abcdefULL;
    ctx.traceIdLo = 0xfedcba9876543210ULL;
    ctx.parentSpan = 0xdeadbeefcafe0042ULL;
    ctx.sampled = true;
    const std::string s = ctx.encode();
    EXPECT_EQ(s, "00-0123456789abcdeffedcba9876543210-deadbeefcafe0042-01");
    TraceContext back;
    ASSERT_TRUE(TraceContext::decode(s, &back));
    EXPECT_EQ(back.traceIdHi, ctx.traceIdHi);
    EXPECT_EQ(back.traceIdLo, ctx.traceIdLo);
    EXPECT_EQ(back.parentSpan, ctx.parentSpan);
    EXPECT_TRUE(back.sampled);
    EXPECT_TRUE(back.valid());

    ctx.sampled = false;
    ASSERT_TRUE(TraceContext::decode(ctx.encode(), &back));
    EXPECT_FALSE(back.sampled);
}

TEST(TraceContext, MalformedStringsRejected) {
    TraceContext out;
    EXPECT_FALSE(TraceContext::decode("", &out));
    EXPECT_FALSE(TraceContext::decode("not a traceparent", &out));
    EXPECT_FALSE(TraceContext::decode(  // wrong version prefix
        "01-0123456789abcdeffedcba9876543210-deadbeefcafe0042-01", &out));
    EXPECT_FALSE(TraceContext::decode(  // non-hex digits
        "00-zz23456789abcdeffedcba9876543210-deadbeefcafe0042-01", &out));
    EXPECT_FALSE(TraceContext::decode(  // truncated
        "00-0123456789abcdeffedcba9876543210-deadbeef", &out));
}

// ---------------------------------------------------------------------
// Clock-offset estimation.

TEST(ClockOffset, SymmetricExchangeRecoversTheExactCorrection) {
    // Worker clock runs 5ms AHEAD of the coordinator's; 1ms of network
    // each way, 10ms of service time. Symmetric delay -> the estimate
    // is exactly the correction to ADD to worker timestamps: -5ms.
    const std::int64_t kLead = 5'000'000;
    const std::int64_t sendNs = 100'000'000;
    const std::int64_t remoteRecvNs = sendNs + 1'000'000 + kLead;
    const std::int64_t remoteSendNs = remoteRecvNs + 10'000'000;
    const std::int64_t recvNs = remoteSendNs - kLead + 1'000'000;
    EXPECT_EQ(cluster::estimateClockOffsetNs(sendNs, remoteRecvNs,
                                             remoteSendNs, recvNs),
              -kLead);
    // A worker running BEHIND needs a positive correction.
    EXPECT_EQ(cluster::estimateClockOffsetNs(
                  sendNs, sendNs + 1'000'000 - kLead,
                  sendNs + 11'000'000 - kLead, sendNs + 12'000'000),
              kLead);
}

TEST(ClockOffset, AsymmetryErrorIsBoundedByHalfTheResidual) {
    // 4ms out, 0ms back: the estimate is off by (4-0)/2 = 2ms, exactly
    // the documented bound. True correction = -kLead (worker ahead).
    const std::int64_t kLead = 7'000'000;
    const std::int64_t sendNs = 0;
    const std::int64_t remoteRecvNs = 4'000'000 + kLead;
    const std::int64_t remoteSendNs = remoteRecvNs + 1'000'000;
    const std::int64_t recvNs = remoteSendNs - kLead;  // instant return
    const std::int64_t est = cluster::estimateClockOffsetNs(
        sendNs, remoteRecvNs, remoteSendNs, recvNs);
    const std::int64_t residual =
        (recvNs - sendNs) - (remoteSendNs - remoteRecvNs);
    EXPECT_LE(std::abs(est + kLead), residual / 2 + 1);
}

// ---------------------------------------------------------------------
// Span stitching.

WireSpan span(std::uint64_t id, std::uint64_t parent, std::int64_t startNs,
              std::int64_t durNs, const char* name, int tid = 7) {
    WireSpan s;
    s.id = id;
    s.parent = parent;
    s.startNs = startNs;
    s.durNs = durNs;
    s.name = name;
    s.threadName = "svc-0";
    s.tid = tid;
    return s;
}

std::map<std::uint64_t, ConcurrentSpan> byId(const ConcurrentTracer& t) {
    std::map<std::uint64_t, ConcurrentSpan> out;
    for (const ConcurrentSpan& s : t.snapshot()) out[s.id] = s;
    return out;
}

TEST(SpanStitch, RenumbersRebasesAndRegistersProcessRows) {
    ConcurrentTracer tracer;
    // Burn local ids so remote ids landing in our space are visibly
    // renumbered, not coincidentally equal.
    for (int i = 0; i < 10; ++i) (void)tracer.allocateSpanId();
    SpanStitcher st;
    st.addBatch("w1#42", "w1", /*offsetNs=*/1'000'000, /*uncertaintyNs=*/100,
                {span(1, 0, 10, 5, "rpc:compile"),
                 span(2, 1, 12, 2, "stage:parse")});
    EXPECT_EQ(st.spanCount(), 2u);

    const StitchStats stats = st.stitchInto(tracer);
    EXPECT_EQ(stats.workers, 1);
    EXPECT_EQ(stats.spans, 2u);
    EXPECT_EQ(stats.orphans, 0u);

    const auto procs = tracer.processes();
    ASSERT_EQ(procs.size(), 1u);
    EXPECT_GE(procs[0].first, 2);  // pid 1 is the local process
    EXPECT_EQ(procs[0].second, "w1");

    const auto spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    const auto& root = spans[0].name == "rpc:compile" ? spans[0] : spans[1];
    const auto& child = spans[0].name == "rpc:compile" ? spans[1] : spans[0];
    EXPECT_EQ(root.startNs, 10 + 1'000'000);  // rebased onto our clock
    EXPECT_EQ(child.startNs, 12 + 1'000'000);
    EXPECT_EQ(child.parent, root.id);  // parent link survived renumbering
    EXPECT_GT(root.id, 10u);           // ids are OURS now
    EXPECT_EQ(root.pid, procs[0].first);
    EXPECT_EQ(tracer.remoteThreadName(root.pid, root.tid), "svc-0");
    // Consumed: a second stitch adds nothing.
    EXPECT_EQ(st.spanCount(), 0u);
    EXPECT_EQ(st.stitchInto(tracer).spans, 0u);
}

TEST(SpanStitch, OutOfOrderBatchArrivalStillResolvesParents) {
    // The CHILD's batch arrives first (concurrent requests drain in
    // completion order), referencing a parent shipped in a later batch.
    ConcurrentTracer tracer;
    SpanStitcher st;
    st.addBatch("w1#1", "w1", 0, 100, {span(9, 5, 20, 3, "stage:lower")});
    st.addBatch("w1#1", "w1", 0, 100, {span(5, 0, 15, 10, "rpc:compile")});

    const StitchStats stats = st.stitchInto(tracer);
    EXPECT_EQ(stats.spans, 2u);
    EXPECT_EQ(stats.orphans, 0u);
    const auto spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    const auto& parent =
        spans[0].name == "rpc:compile" ? spans[0] : spans[1];
    const auto& child = spans[0].name == "rpc:compile" ? spans[1] : spans[0];
    EXPECT_EQ(child.parent, parent.id);
}

TEST(SpanStitch, SeparateEpochsGetSeparateIdSpacesAndRows) {
    // Same span ids from a restarted worker (new epoch) must not
    // cross-link with its previous life.
    ConcurrentTracer tracer;
    SpanStitcher st;
    st.addBatch("w1#1", "w1", 0, 100, {span(1, 0, 10, 5, "rpc:compile")});
    st.addBatch("w1#2", "w1 (restarted)", 0, 100,
                {span(2, 1, 20, 5, "rpc:compile")});
    const StitchStats stats = st.stitchInto(tracer);
    EXPECT_EQ(stats.workers, 2);
    // Epoch 2's span had parent=1, but id 1 lives in epoch 1's space:
    // it re-parents under that epoch's "lost" span, not the other
    // worker's root.
    EXPECT_EQ(stats.orphans, 1u);
}

TEST(SpanStitch, OrphansLandUnderASyntheticLostSpan) {
    ConcurrentTracer tracer;
    SpanStitcher st;
    st.addBatch("w7#1", "w7", 0, 100,
                {span(30, 99, 50, 5, "stage:parse"),    // parent 99 lost
                 span(31, 99, 60, 5, "stage:lower")});  // same
    const StitchStats stats = st.stitchInto(tracer);
    EXPECT_EQ(stats.spans, 2u);
    EXPECT_EQ(stats.orphans, 2u);

    const auto spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 3u);  // 2 orphans + the synthetic parent
    const ConcurrentSpan* lost = nullptr;
    for (const auto& s : spans)
        if (s.name == "lost:w7") lost = &s;
    ASSERT_NE(lost, nullptr);
    // The lost span covers its orphans, and both parent under it.
    EXPECT_LE(lost->startNs, 50);
    EXPECT_GE(lost->startNs + lost->durNs, 65);
    for (const auto& s : spans) {
        if (s.name != "lost:w7") {
            EXPECT_EQ(s.parent, lost->id);
        }
    }
}

TEST(SpanStitch, CtxEdgeParentsUnderTheCoordinatorSpan) {
    // The one cross-process edge: a request-root span carries the
    // coordinator's span id in `ctx`, which passes through unmapped.
    ConcurrentTracer tracer;
    auto net = tracer.begin("post:w1", "cluster");
    tracer.end(net);
    const std::uint64_t coordSpanId = net.id;

    SpanStitcher st;
    WireSpan root = span(4, 0, 10, 5, "rpc:compile");
    root.ctx = coordSpanId;
    st.addBatch("w1#1", "w1", 0, 100, {root});
    const StitchStats stats = st.stitchInto(tracer);
    EXPECT_EQ(stats.orphans, 0u);

    const auto spans = byId(tracer);
    bool found = false;
    for (const auto& [id, s] : spans)
        if (s.name == "rpc:compile") {
            EXPECT_EQ(s.parent, coordSpanId);
            EXPECT_GE(s.pid, 2);
            found = true;
        }
    EXPECT_TRUE(found);
}

TEST(SpanStitch, SpanCapDropsExcessAndCountsIt) {
    ConcurrentTracer tracer;
    SpanStitcher st(/*maxSpans=*/2);
    st.addBatch("w1#1", "w1", 0, 100,
                {span(1, 0, 1, 1, "a"), span(2, 0, 2, 1, "b"),
                 span(3, 0, 3, 1, "c")});
    const StitchStats stats = st.stitchInto(tracer);
    EXPECT_EQ(stats.spans, 2u);
    EXPECT_EQ(stats.dropped, 1u);
}

TEST(SpanStitch, LowestUncertaintyOffsetWinsAcrossBatches) {
    ConcurrentTracer tracer;
    SpanStitcher st;
    // A noisy first exchange, then a tight one with a different offset:
    // the tight one's offset must rebase every span of the worker.
    st.addBatch("w1#1", "w1", /*offsetNs=*/999'000, /*uncertainty=*/50'000,
                {span(1, 0, 10, 1, "a")});
    st.addBatch("w1#1", "w1", /*offsetNs=*/500, /*uncertainty=*/10,
                {span(2, 0, 20, 1, "b")});
    (void)st.stitchInto(tracer);
    for (const ConcurrentSpan& s : tracer.snapshot())
        EXPECT_LT(s.startNs, 1000) << s.name;  // all rebased by 500, not 999k
}

// ---------------------------------------------------------------------
// End-to-end: coordinator-driven traces over real workers.

service::BatchJob traceJob(const char* name, int n) {
    service::BatchJob job;
    job.name = name;
    job.program = "fig1";
    job.n = n;
    job.target.gridExtents = {4};
    return job;
}

std::unique_ptr<Worker> startWorker(const FaultInjector* faults = nullptr) {
    WorkerConfig cfg;
    cfg.killMode = KillMode::Drop;  // never _exit the test runner
    cfg.service.cacheCapacity = 32;
    cfg.service.workers = 2;
    cfg.faults = faults;
    auto w = std::make_unique<Worker>(cfg);
    std::string err;
    EXPECT_TRUE(w->start(&err)) << err;
    return w;
}

TEST(ClusterTrace, CompileCarriesTraceIdAndStitchesWorkerRows) {
    auto w1 = startWorker();
    auto w2 = startWorker();
    ConcurrentTracer tracer;
    CoordinatorConfig cc;
    cc.tracer = &tracer;
    cc.traceSampleEvery = 1;  // full rate: the test asserts per-request traces
    Coordinator coord(cc);
    std::string err;
    ASSERT_TRUE(coord.addWorker(w1->endpoint(), &err)) << err;
    ASSERT_TRUE(coord.addWorker(w2->endpoint(), &err)) << err;

    std::set<std::string> traceIds;
    for (int n : {16, 24, 32, 48}) {
        auto out = coord.compileJob(traceJob("t", n));
        ASSERT_TRUE(out.ok()) << out.error;
        ASSERT_EQ(out.traceId.size(), 32u) << out.traceId;
        traceIds.insert(out.traceId);
    }
    EXPECT_EQ(traceIds.size(), 4u);  // per-request trace ids are unique

    const StitchStats stats = coord.stitchTrace();
    EXPECT_GE(stats.workers, 1);
    EXPECT_GT(stats.spans, 0u);

    // Every remote request-root span parents under a coordinator net
    // span — the cross-process chain the whole feature exists for.
    const auto spans = byId(tracer);
    int chains = 0;
    for (const auto& [id, s] : spans) {
        if (s.pid < 2 || s.name != "rpc:compile") continue;
        ASSERT_NE(s.parent, 0u) << "unparented remote root";
        const auto parent = spans.find(s.parent);
        ASSERT_NE(parent, spans.end());
        EXPECT_EQ(parent->second.pid, 0);  // a local (coordinator) span
        EXPECT_EQ(parent->second.name.rfind("post:", 0), 0u);
        ++chains;
    }
    EXPECT_GE(chains, 1);

    // The exported Chrome trace names one process row per worker.
    const std::string path =
        testing::TempDir() + "phpf_cluster_trace_test.json";
    ASSERT_TRUE(obs::writeChromeTrace(tracer, path, "test"));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string perr;
    const obs::Json doc = obs::Json::parse(buf.str(), &perr);
    ASSERT_TRUE(perr.empty()) << perr;
    std::set<int> procPids;
    for (const obs::Json& e : doc.at("traceEvents").items())
        if (e.at("name").stringValue() == "process_name" &&
            e.at("pid").intValue() >= 2)
            procPids.insert(static_cast<int>(e.at("pid").intValue()));
    EXPECT_EQ(static_cast<int>(procPids.size()), stats.workers);
    std::remove(path.c_str());
}

TEST(ClusterTrace, SampleEveryNTracesOnlyTheNthRequests) {
    auto w = startWorker();
    ConcurrentTracer tracer;
    CoordinatorConfig cc;
    cc.tracer = &tracer;
    cc.traceSampleEvery = 2;
    Coordinator coord(cc);
    std::string err;
    ASSERT_TRUE(coord.addWorker(w->endpoint(), &err)) << err;

    std::vector<bool> sampled;
    for (int n : {16, 24, 32, 48})
        sampled.push_back(!coord.compileJob(traceJob("s", n)).traceId.empty());
    EXPECT_EQ(sampled, (std::vector<bool>{true, false, true, false}));
}

TEST(ClusterTrace, TracedCompileIsBitIdenticalToUntraced) {
    auto w1 = startWorker();
    auto w2 = startWorker();
    ConcurrentTracer tracer;
    CoordinatorConfig traced;
    traced.tracer = &tracer;
    traced.traceSampleEvery = 1;  // full rate: the test asserts per-request traces
    Coordinator withTrace(traced);
    Coordinator without;
    std::string err;
    ASSERT_TRUE(withTrace.addWorker(w1->endpoint(), &err)) << err;
    ASSERT_TRUE(without.addWorker(w2->endpoint(), &err)) << err;

    auto a = withTrace.compileJob(traceJob("bit", 16));
    auto b = without.compileJob(traceJob("bit", 16));
    ASSERT_TRUE(a.ok()) << a.error;
    ASSERT_TRUE(b.ok()) << b.error;
    EXPECT_FALSE(a.traceId.empty());
    EXPECT_TRUE(b.traceId.empty());
    // The trace context rides outside the content-hashed payload.
    EXPECT_EQ(a.artifact.contentHash(), b.artifact.contentHash());
}

TEST(ClusterTrace, SlowRequestExemplarsKeepFullCausalChains) {
    auto w = startWorker();
    ConcurrentTracer tracer;
    CoordinatorConfig cc;
    cc.tracer = &tracer;
    cc.traceSampleEvery = 1;  // full rate: the test asserts per-request traces
    cc.slowExemplars = 2;
    Coordinator coord(cc);
    std::string err;
    ASSERT_TRUE(coord.addWorker(w->endpoint(), &err)) << err;

    for (int n : {16, 24, 32}) ASSERT_TRUE(coord.compileJob(traceJob("x", n)).ok());
    (void)coord.compileJob(traceJob("x", 16));  // local hit, cheap

    const auto slow = coord.slowRequests();
    ASSERT_FALSE(slow.empty());
    EXPECT_LE(slow.size(), 2u);  // capped at slowExemplars
    // Sorted slowest-first, each with its route and per-hop latencies.
    for (size_t i = 1; i < slow.size(); ++i)
        EXPECT_GE(slow[i - 1].totalUs, slow[i].totalUs);
    for (const auto& chain : slow) {
        EXPECT_GT(chain.totalUs, 0.0);
        EXPECT_FALSE(chain.route.empty());
        ASSERT_FALSE(chain.hops.empty());
        const obs::Json j = chain.toJson();
        EXPECT_NE(j.find("hops"), nullptr);
        EXPECT_NE(j.find("trace_id"), nullptr);
    }
}

TEST(ClusterTrace, WorkerDeathMidRunNeverBreaksTheExporter) {
    FaultInjector faults;
    std::string ferr;
    ASSERT_TRUE(faults.configure("cluster.worker_kill:nth=1;limit=1", &ferr))
        << ferr;
    auto victim = startWorker(&faults);
    auto w2 = startWorker();
    ConcurrentTracer tracer;
    CoordinatorConfig cc;
    cc.tracer = &tracer;
    cc.traceSampleEvery = 1;  // full rate: the test asserts per-request traces
    Coordinator coord(cc);
    std::string err;
    ASSERT_TRUE(coord.addWorker(victim->endpoint(), &err)) << err;
    ASSERT_TRUE(coord.addWorker(w2->endpoint(), &err)) << err;

    service::BatchSpec spec;
    for (int n : {16, 24, 32, 48, 64, 96})
        spec.jobs.push_back(traceJob(("j" + std::to_string(n)).c_str(), n));
    std::ostringstream out;
    const auto outcome = cluster::runClusterBatch(coord, spec, out);
    EXPECT_EQ(outcome.failed, 0) << out.str();
    EXPECT_TRUE(victim->killed());

    // Stitch + export with a dead worker's partial spans: never crash,
    // never lose the survivors' rows.
    (void)coord.stitchTrace();
    const std::string path = testing::TempDir() + "phpf_dead_worker.json";
    ASSERT_TRUE(obs::writeChromeTrace(tracer, path, "test"));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string perr;
    (void)obs::Json::parse(buf.str(), &perr);
    EXPECT_TRUE(perr.empty()) << perr;
    std::remove(path.c_str());
}

TEST(ClusterTrace, BatchRowsCarryTraceIdsAndSummaryHasSlowRequests) {
    auto w = startWorker();
    ConcurrentTracer tracer;
    CoordinatorConfig cc;
    cc.tracer = &tracer;
    cc.traceSampleEvery = 1;  // full rate: the test asserts per-request traces
    Coordinator coord(cc);
    std::string err;
    ASSERT_TRUE(coord.addWorker(w->endpoint(), &err)) << err;

    service::BatchSpec spec;
    for (int n : {16, 24}) spec.jobs.push_back(traceJob(("r" + std::to_string(n)).c_str(), n));
    std::ostringstream out;
    const auto outcome = cluster::runClusterBatch(coord, spec, out);
    EXPECT_EQ(outcome.ok, 2);

    std::istringstream in(out.str());
    std::string line;
    int rowsWithTrace = 0;
    bool sawSlow = false;
    while (std::getline(in, line)) {
        const obs::Json row = obs::Json::parse(line);
        if (row.find("summary") != nullptr) {
            sawSlow = row.find("slow_requests") != nullptr;
            continue;
        }
        const obs::Json* tid = row.find("trace_id");
        if (tid != nullptr && tid->stringValue().size() == 32) ++rowsWithTrace;
    }
    EXPECT_EQ(rowsWithTrace, 2);
    EXPECT_TRUE(sawSlow);
}

// ---------------------------------------------------------------------
// Metrics federation.

struct Sample {
    std::string worker;  ///< "" = unlabeled
    double value = 0;
};

/// name -> samples, from a Prometheus text page (quantile'd summary
/// lines excluded — counters and plain gauges only).
std::map<std::string, std::vector<Sample>> parsePage(const std::string& text) {
    std::map<std::string, std::vector<Sample>> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        const size_t sp = line.rfind(' ');
        if (sp == std::string::npos) continue;
        std::string key = line.substr(0, sp);
        Sample s;
        s.value = std::stod(line.substr(sp + 1));
        const size_t brace = key.find('{');
        if (brace != std::string::npos) {
            const std::string labels = key.substr(brace);
            key = key.substr(0, brace);
            if (labels.find("quantile=") != std::string::npos) continue;
            const size_t wq = labels.find("worker=\"");
            if (wq != std::string::npos) {
                const size_t end = labels.find('"', wq + 8);
                s.worker = labels.substr(wq + 8, end - (wq + 8));
            }
        }
        out[key].push_back(s);
    }
    return out;
}

TEST(ClusterFederation, RollupsExactlyEqualPerWorkerSums) {
    auto w1 = startWorker();
    auto w2 = startWorker();
    Coordinator coord;
    std::string err;
    ASSERT_TRUE(coord.addWorker(w1->endpoint(), &err)) << err;
    ASSERT_TRUE(coord.addWorker(w2->endpoint(), &err)) << err;
    // Drive compiles through both workers so their counters are live.
    for (int n : {16, 24, 32, 48})
        ASSERT_TRUE(coord.compileJob(traceJob("f", n)).ok());

    const std::string page = cluster::clusterMetricsText(coord);
    const auto samples = parsePage(page);

    // The scrape bookkeeping is on the page.
    ASSERT_NE(samples.find("phpf_cluster_workers_alive"), samples.end());
    EXPECT_EQ(samples.at("phpf_cluster_workers_alive")[0].value, 2.0);
    EXPECT_EQ(samples.at("phpf_cluster_workers_known")[0].value, 2.0);
    EXPECT_EQ(samples.at("phpf_cluster_scrape_errors")[0].value, 0.0);

    // EVERY _cluster_*_total rollup equals the sum of its per-worker
    // samples on the same page — exact, not approximate.
    int rollupsChecked = 0;
    for (const auto& [name, ss] : samples) {
        const size_t at = name.find("_cluster_");
        if (at == std::string::npos) continue;
        if (name.size() < 6 || name.substr(name.size() - 6) != "_total")
            continue;
        // Worker-labeled lines are per-worker samples even when the
        // metric's own name starts with "cluster." (the worker-side
        // cluster.worker.* counters); rollup lines are unlabeled.
        if (!ss.empty() && !ss[0].worker.empty()) continue;
        const std::string perWorker =
            name.substr(0, at) + "_" + name.substr(at + 9);
        auto it = samples.find(perWorker);
        ASSERT_NE(it, samples.end()) << perWorker;
        double sum = 0;
        std::set<std::string> workers;
        for (const Sample& s : it->second) {
            EXPECT_FALSE(s.worker.empty()) << perWorker;
            workers.insert(s.worker);
            sum += s.value;
        }
        EXPECT_EQ(ss[0].value, sum) << name;
        EXPECT_EQ(workers.size(), it->second.size()) << perWorker;
        ++rollupsChecked;
    }
    EXPECT_GE(rollupsChecked, 3);

    // Compile counts federate: both workers served, so the cluster
    // request rollup covers all 4 distinct compiles.
    ASSERT_NE(samples.find("phpf_cluster_service_requests_total"),
              samples.end());
    EXPECT_GE(samples.at("phpf_cluster_service_requests_total")[0].value, 4.0);
}

TEST(ClusterFederation, HealthAggregatesLivenessAndWireVersion) {
    auto w1 = startWorker();
    auto w2 = startWorker();
    Coordinator coord;
    std::string err;
    ASSERT_TRUE(coord.addWorker(w1->endpoint(), &err)) << err;
    ASSERT_TRUE(coord.addWorker(w2->endpoint(), &err)) << err;

    const obs::Json h = cluster::clusterHealthJson(coord);
    EXPECT_EQ(h.at("status").stringValue(), "ok");
    EXPECT_EQ(h.at("workers_alive").intValue(), 2);
    EXPECT_EQ(h.at("workers_known").intValue(), 2);
    for (const obs::Json& e : h.at("workers").items()) {
        EXPECT_EQ(e.at("status").stringValue(), "ok");
        EXPECT_EQ(e.at("wire_version").intValue(), cluster::kWireVersion);
    }

    // Mute one worker: it stops answering anything, and the cluster
    // degrades rather than lying.
    w1->server().setMuted(true);
    const obs::Json sick = cluster::clusterHealthJson(coord, /*timeoutMs=*/500);
    EXPECT_EQ(sick.at("status").stringValue(), "degraded");
    EXPECT_EQ(sick.at("workers_alive").intValue(), 1);
}

}  // namespace
}  // namespace phpf
