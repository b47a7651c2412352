// The service-grade telemetry layer: quantile estimation on the
// fixed-boundary histograms, Prometheus text exposition, the
// thread-safe tracer (cross-thread span parenting, compile sessions
// appended under their service request, per-thread Chrome rows), the flight-recorder ring (ordering,
// wrap-around, concurrent writers, dump-on-fault), the process thread
// registry with pool worker naming, and the loopback HTTP exposition
// endpoint.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "driver/compiler.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "programs/programs.h"
#include "service/compile_service.h"
#include "service/http_exposition.h"
#include "support/fault.h"
#include "support/parallel.h"
#include "support/thread_registry.h"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#define PHPF_TEST_SOCKETS 1
#else
#define PHPF_TEST_SOCKETS 0
#endif

namespace phpf {
namespace {

using obs::ContextScope;
using obs::FlightRecorder;
using obs::Histogram;
using obs::Json;
using obs::MetricRegistry;
using obs::ScopedSpan;
using obs::SpanContext;
using obs::TraceSpan;
using obs::Tracer;

// ---------------------------------------------------------------------
// Histogram quantiles
// ---------------------------------------------------------------------

TEST(TelemetryQuantiles, UniformDistributionEstimatesAreTight) {
    Histogram h;
    // 1..1000 uniformly: inside each power-of-two bucket the samples
    // really are uniform, so the interpolation should be near-exact.
    for (int v = 1; v <= 1000; ++v) h.record(v);
    EXPECT_NEAR(h.p50(), 500.0, 25.0);
    EXPECT_NEAR(h.p90(), 900.0, 25.0);
    EXPECT_NEAR(h.p99(), 990.0, 25.0);
    EXPECT_NEAR(h.quantile(0.0), 1.0, 1.0);
    EXPECT_NEAR(h.quantile(1.0), 1000.0, 1.0);
}

TEST(TelemetryQuantiles, ConstantDistributionCollapsesToTheValue) {
    Histogram h;
    for (int i = 0; i < 100; ++i) h.record(42.0);
    // The covering bucket is [32, 64) but the observed min/max clamp
    // the interpolation to the single real value.
    EXPECT_DOUBLE_EQ(h.p50(), 42.0);
    EXPECT_DOUBLE_EQ(h.p90(), 42.0);
    EXPECT_DOUBLE_EQ(h.p99(), 42.0);
}

TEST(TelemetryQuantiles, HeavyTailSeparatesBodyFromTail) {
    Histogram h;
    for (int i = 0; i < 99; ++i) h.record(10.0);
    h.record(10000.0);
    // The body sits in the [8, 16) bucket: the estimate stays inside
    // that bucket (the documented guarantee), far from the tail.
    EXPECT_GE(h.p50(), 10.0);
    EXPECT_LT(h.p50(), 16.0);
    EXPECT_GE(h.p90(), 10.0);
    EXPECT_LT(h.p90(), 16.0);
    EXPECT_GT(h.p99(), 100.0);  // the tail sample dominates p99
    EXPECT_EQ(h.count(), 100);
}

TEST(TelemetryQuantiles, EmptyHistogramIsZero) {
    Histogram h;
    EXPECT_DOUBLE_EQ(h.p50(), 0.0);
    EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(TelemetryQuantiles, ConcurrentRecordersLoseNothing) {
    Histogram h;
    constexpr int kThreads = 8, kPerThread = 20000;
    std::vector<std::thread> ts;
    ts.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&h] {
            for (int i = 0; i < kPerThread; ++i)
                h.record(static_cast<double>(1 + i % 100));
        });
    for (auto& t : ts) t.join();
    EXPECT_EQ(h.count(), kThreads * kPerThread);
    // Every thread records the same multiset, so the exact sum is known.
    const double perThread = 20000.0 / 100.0 * (100.0 * 101.0 / 2.0);
    EXPECT_DOUBLE_EQ(h.sum(), kThreads * perThread);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(TelemetryQuantiles, RegistryConcurrentLazyCreationIsExact) {
    MetricRegistry reg;
    constexpr int kThreads = 8, kPerThread = 5000;
    std::vector<std::thread> ts;
    ts.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&reg] {
            for (int i = 0; i < kPerThread; ++i) {
                reg.counter("shared.hits").add(1);
                reg.histogram("shared.lat_us").record(i % 7 + 1);
            }
        });
    for (auto& t : ts) t.join();
    EXPECT_EQ(reg.counterValue("shared.hits"), kThreads * kPerThread);
    EXPECT_EQ(reg.histogram("shared.lat_us").count(), kThreads * kPerThread);
}

// ---------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------

TEST(TelemetryPrometheus, NameSanitization) {
    EXPECT_EQ(obs::prometheusName("service.cache.hits"), "service_cache_hits");
    EXPECT_EQ(obs::prometheusName("a-b c/d"), "a_b_c_d");
    EXPECT_EQ(obs::prometheusName("ok_name:x9"), "ok_name:x9");
}

bool validMetricLine(const std::string& line) {
    // <name>{labels} <value> — name restricted to the Prometheus
    // charset, value parseable as a double.
    size_t i = 0;
    while (i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) != 0 ||
            line[i] == '_' || line[i] == ':'))
        ++i;
    if (i == 0) return false;
    if (i < line.size() && line[i] == '{') {
        const size_t close = line.find('}', i);
        if (close == std::string::npos) return false;
        i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') return false;
    try {
        (void)std::stod(line.substr(i + 1));
    } catch (...) {
        return false;
    }
    return true;
}

TEST(TelemetryPrometheus, ExpositionFormatIsValid) {
    MetricRegistry reg;
    reg.counter("service.cache.hits").add(3);
    reg.gauge("service.queue_depth").set(2);
    for (int i = 1; i <= 100; ++i) reg.histogram("stage.parse_us").record(i);

    const std::string text = obs::renderPrometheus(reg, "phpf");
    EXPECT_NE(text.find("# TYPE phpf_service_cache_hits_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("phpf_service_cache_hits_total 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE phpf_service_queue_depth gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE phpf_stage_parse_us summary\n"),
              std::string::npos);
    EXPECT_NE(text.find("phpf_stage_parse_us{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(text.find("phpf_stage_parse_us{quantile=\"0.99\"}"),
              std::string::npos);
    EXPECT_NE(text.find("phpf_stage_parse_us_sum 5050\n"), std::string::npos);
    EXPECT_NE(text.find("phpf_stage_parse_us_count 100\n"), std::string::npos);

    // Every line is either a comment or a well-formed sample, and the
    // exposition ends with a newline (required by the format).
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
    std::istringstream in(text);
    std::string line;
    int samples = 0;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        EXPECT_TRUE(validMetricLine(line)) << "bad sample line: " << line;
        ++samples;
    }
    EXPECT_GE(samples, 7);  // counter + gauge + 3 quantiles + sum + count
}

TEST(TelemetryPrometheus, EmptyRegistryRendersEmpty) {
    MetricRegistry reg;
    EXPECT_TRUE(obs::renderPrometheus(reg).empty());
}

TEST(TelemetryPrometheus, HelpLinesComeFromTheDescriptionRegistry) {
    MetricRegistry reg;
    reg.counter("service.cache.hits").add(1);
    const std::string text = obs::renderPrometheus(reg, "phpf");
    // A described metric gets its # HELP line right before its # TYPE.
    const std::string help = obs::metricDescription("service.cache.hits");
    ASSERT_FALSE(help.empty());
    const size_t helpAt =
        text.find("# HELP phpf_service_cache_hits_total " + help);
    const size_t typeAt =
        text.find("# TYPE phpf_service_cache_hits_total counter");
    ASSERT_NE(helpAt, std::string::npos) << text;
    ASSERT_NE(typeAt, std::string::npos);
    EXPECT_LT(helpAt, typeAt);

    // An undescribed metric renders without a HELP line, never a bogus
    // one.
    MetricRegistry other;
    other.counter("totally.made.up").add(1);
    EXPECT_EQ(obs::renderPrometheus(other, "phpf").find("# HELP"),
              std::string::npos);

    // describeMetric extends the registry at runtime.
    obs::describeMetric("totally.made.up", "a test metric");
    EXPECT_NE(obs::renderPrometheus(other, "phpf")
                  .find("# HELP phpf_totally_made_up_total a test metric"),
              std::string::npos);
}

TEST(TelemetryPrometheus, HelpAndLabelEscaping) {
    // HELP text escapes backslash and newline (the format's two
    // specials for comment lines).
    EXPECT_EQ(obs::prometheusHelpText("a\\b\nc"), "a\\\\b\\nc");
    // Label values additionally escape the double quote.
    EXPECT_EQ(obs::prometheusLabelValue("w\"1\"\\x\ny"),
              "w\\\"1\\\"\\\\x\\ny");
    EXPECT_EQ(obs::prometheusLabelValue("plain-worker:8042"),
              "plain-worker:8042");
}

// ---------------------------------------------------------------------
// Histogram merge / restore (the federation primitives)
// ---------------------------------------------------------------------

TEST(TelemetryHistogram, MergeFromIsExactOnCountSumMinMax) {
    Histogram a, b;
    for (int v = 1; v <= 100; ++v) a.record(v);
    for (int v = 500; v <= 600; ++v) b.record(v);
    a.mergeFrom(b);
    EXPECT_EQ(a.count(), 201);
    EXPECT_DOUBLE_EQ(a.sum(), 5050.0 + 55550.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 600.0);
    // The merged distribution's median sits between the two bodies.
    EXPECT_GT(a.p50(), 50.0);
    EXPECT_LT(a.p50(), 600.0);
    // Merging an empty histogram changes nothing (min/max unpolluted).
    Histogram empty;
    const double beforeMin = a.min();
    a.mergeFrom(empty);
    EXPECT_EQ(a.count(), 201);
    EXPECT_DOUBLE_EQ(a.min(), beforeMin);
}

TEST(TelemetryHistogram, RestoreFromJsonShapeMatchesOriginal) {
    // restore() consumes exactly what toJson emits (count/sum/min/max +
    // trimmed log2 buckets): a scrape-restore round trip must preserve
    // the distribution, including quantile estimates.
    MetricRegistry reg;
    Histogram& orig = reg.histogram("trip.us");
    for (int v = 1; v <= 1000; ++v) orig.record(v);
    const Json doc = reg.toJson();
    const Json& h = doc.at("histograms").at("trip.us");
    std::vector<std::int64_t> buckets;
    for (const Json& b : h.at("log2_buckets").items())
        buckets.push_back(b.intValue());

    Histogram back;
    back.restore(h.at("count").intValue(), h.at("sum").numberValue(),
                 h.at("min").numberValue(), h.at("max").numberValue(),
                 buckets);
    EXPECT_EQ(back.count(), orig.count());
    EXPECT_DOUBLE_EQ(back.sum(), orig.sum());
    EXPECT_DOUBLE_EQ(back.min(), orig.min());
    EXPECT_DOUBLE_EQ(back.max(), orig.max());
    EXPECT_DOUBLE_EQ(back.p50(), orig.p50());
    EXPECT_DOUBLE_EQ(back.p99(), orig.p99());
}

TEST(TelemetryTracer, DrainClosedKeepsOpenSpansAndTheirHandles) {
    Tracer t;
    auto open = t.begin("still-running", "x");
    for (int i = 0; i < 5; ++i) t.end(t.begin("done", "x"));

    auto drained = t.drainClosed(3);  // bounded batch
    EXPECT_EQ(drained.size(), 3u);
    for (const TraceSpan& s : drained) EXPECT_TRUE(s.closed());
    drained = t.drainClosed(100);
    EXPECT_EQ(drained.size(), 2u);

    // The open span survived compaction and its handle still closes it.
    EXPECT_EQ(t.spanCount(), 1u);
    t.end(open);
    drained = t.drainClosed(100);
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].name, "still-running");
    EXPECT_TRUE(drained[0].closed());
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

TEST(TelemetryTracer, SameThreadSpansNestById) {
    Tracer t;
    auto outer = t.begin("outer", "x");
    auto inner = t.begin("inner", "x");
    t.end(inner);
    t.end(outer);
    const auto spans = t.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    const auto& o = spans[0].name == "outer" ? spans[0] : spans[1];
    const auto& i = spans[0].name == "outer" ? spans[1] : spans[0];
    EXPECT_EQ(o.parent, 0u);
    EXPECT_EQ(i.parent, o.id);
    EXPECT_TRUE(o.closed());
    EXPECT_TRUE(i.closed());
    EXPECT_GE(o.startNs + o.durNs, i.startNs + i.durNs);
}

TEST(TelemetryTracer, DisabledTracerRecordsNothing) {
    Tracer t(/*enabled=*/false);
    auto h = t.begin("nope");
    EXPECT_EQ(h.id, 0u);
    t.end(h);
    EXPECT_EQ(t.spanCount(), 0u);
    EXPECT_EQ(t.addCompleteSpan("also-nope", "", 0, 1), 0u);
}

TEST(TelemetryTracer, ContextScopeParentsPoolWorkUnderTheRequest) {
    Tracer t;
    TaskPool pool(2, "ctx-test");
    std::uint64_t rootId = 0;
    {
        ScopedSpan root(t, "request", "service");
        rootId = root.context().spanId;
        ASSERT_NE(rootId, 0u);
        const SpanContext ctx = root.context();
        std::atomic<int> done{0};
        for (int k = 0; k < 2; ++k)
            pool.post([&t, ctx, &done] {
                ContextScope adopt(t, ctx);
                ScopedSpan work(t, "work", "service");
                done.fetch_add(1);
            });
        pool.drain();
        EXPECT_EQ(done.load(), 2);
    }
    const auto spans = t.snapshot();
    int workers = 0;
    const int mainTid = thread_registry::currentTid();
    for (const auto& s : spans) {
        if (s.name != "work") continue;
        ++workers;
        EXPECT_EQ(s.parent, rootId);
        EXPECT_NE(s.tid, mainTid);
        EXPECT_TRUE(s.closed());
    }
    EXPECT_EQ(workers, 2);
}

TEST(TelemetryTracer, CrossThreadEndClosesTheSpan) {
    Tracer t;
    auto h = t.begin("handoff", "service");
    std::thread closer([&t, h] { t.end(h); });
    closer.join();
    const auto spans = t.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_TRUE(spans[0].closed());
}

TEST(TelemetryTracer, ServicePutsEveryStageSpanUnderItsRequest) {
    Tracer t;
    service::ServiceConfig cfg;
    cfg.workers = 2;
    cfg.tracer = &t;
    {
        service::CompileService svc(cfg);
        std::vector<std::shared_future<service::CompileResult>> futs;
        for (const int n : {16, 24}) {
            service::CompileRequest req;
            req.name = "fig1-" + std::to_string(n);
            req.build = [n] { return programs::fig1(n); };
            req.target.gridExtents = {4};
            futs.push_back(svc.submit(std::move(req)));
        }
        for (auto& f : futs)
            ASSERT_EQ(f.get().status, service::CompileStatus::Ok);
    }
    const std::vector<TraceSpan> spans = t.snapshot();
    std::map<std::uint64_t, const TraceSpan*> byId;
    for (const TraceSpan& s : spans) byId[s.id] = &s;
    // The request span a span hangs under, following recorded parents.
    const auto requestOf = [&](const TraceSpan& s) -> const TraceSpan* {
        for (auto it = byId.find(s.parent); it != byId.end();
             it = byId.find(it->second->parent))
            if (it->second->name.rfind("request:", 0) == 0) return it->second;
        return nullptr;
    };
    std::map<std::string, std::set<std::string>> stagesByRequest;
    for (const TraceSpan& s : spans) {
        if (s.category != "pass") continue;
        const TraceSpan* req = requestOf(s);
        ASSERT_NE(req, nullptr) << s.name << " floats outside a request";
        if (s.name == "compile") {
            EXPECT_EQ(s.parent, req->id);  // the session's root
        } else {
            // A stage under compile, or dataflow-rebuild under the
            // induction-rewrite stage that triggered it.
            ASSERT_EQ(byId.count(s.parent), 1u);
            EXPECT_EQ(byId[s.parent]->name,
                      s.name == "dataflow-rebuild" ? "induction-rewrite"
                                                   : "compile");
        }
        EXPECT_TRUE(stagesByRequest[req->name].insert(s.name).second)
            << s.name << " recorded twice under " << req->name;
    }
    ASSERT_EQ(stagesByRequest.size(), 2u);
    for (const auto& [req, stages] : stagesByRequest)
        for (const char* stage : {"compile", "finalize", "ssa", "mapping-pass",
                                  "spmd-lowering"})
            EXPECT_EQ(stages.count(stage), 1u) << req << " lacks " << stage;
}

TEST(TelemetryTracer, SnapshotMergesShardsSortedByStart) {
    Tracer t;
    std::vector<std::thread> ts;
    for (int k = 0; k < 4; ++k)
        ts.emplace_back([&t, k] {
            for (int i = 0; i < 50; ++i) {
                auto h = t.begin(("w" + std::to_string(k)).c_str(), "x");
                t.end(h);
            }
        });
    for (auto& th : ts) th.join();
    const auto spans = t.snapshot();
    EXPECT_EQ(spans.size(), 200u);
    EXPECT_GE(t.threadCount(), 4);
    for (size_t i = 1; i < spans.size(); ++i)
        EXPECT_LE(spans[i - 1].startNs, spans[i].startNs);
    std::set<std::uint64_t> ids;
    for (const auto& s : spans) ids.insert(s.id);
    EXPECT_EQ(ids.size(), spans.size());  // ids unique across shards
}

// ---------------------------------------------------------------------
// Simulator spans
// ---------------------------------------------------------------------

struct SimTraceShape {
    std::vector<std::string> names;  ///< every span, in snapshot order
    bool execUnderSimulate = false;
};

SimTraceShape simShape() {
    Program p = programs::tomcatv(10, 2);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    Tracer ct;
    SimulationRequest req;
    req.tracer = &ct;
    auto sim = c.simulate(req);
    SimTraceShape shape;
    std::uint64_t simulateId = 0;
    for (const auto& s : ct.snapshot()) {
        shape.names.push_back(s.name);
        if (s.name == "simulate") simulateId = s.id;
    }
    for (const auto& s : ct.snapshot())
        if (s.name == "sim-exec")
            shape.execUnderSimulate = s.closed() && s.parent == simulateId;
    return shape;
}

// One tracer end to end, as phpfc runs it: the compile session's tracer
// also receives the simulation, so exactly one sim-exec span exists, it
// sits under simulate, and the simulator records no worker rows under
// it.
TEST(TelemetrySimSpans, OneSimExecSpanUnderSimulateOwnsEveryWorkerRow) {
    Program p = programs::fig1(32);
    TargetConfig opts;
    opts.gridExtents = {4};
    CompileSession session;
    session.tracer = std::make_shared<Tracer>();
    Compilation c = Compiler::compile(p, opts, PassOptions{}, session);
    auto sim = c.simulate({});

    const std::vector<TraceSpan> spans = session.tracer->snapshot();
    std::vector<const TraceSpan*> execs;
    const TraceSpan* simulate = nullptr;
    for (const TraceSpan& s : spans) {
        if (s.name.rfind("sim-exec", 0) == 0) execs.push_back(&s);
        if (s.name == "simulate") simulate = &s;
    }
    ASSERT_EQ(execs.size(), 1u);
    EXPECT_EQ(execs[0]->name, "sim-exec");
    ASSERT_NE(simulate, nullptr);
    EXPECT_EQ(execs[0]->parent, simulate->id);
    for (const TraceSpan& s : spans)
        EXPECT_NE(s.parent, execs[0]->id) << s.name;
}

TEST(TelemetrySimSpans, TraceShapeIsDeterministicAcrossRepeats) {
    const SimTraceShape a = simShape();
    const SimTraceShape b = simShape();
    EXPECT_EQ(a.names, b.names);
    EXPECT_TRUE(a.execUnderSimulate);
    EXPECT_TRUE(b.execUnderSimulate);
}

TEST(TelemetrySimSpans, PhaseHistogramsFillWhenTelemetryIsSet) {
    Program p = programs::tomcatv(10, 2);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    MetricRegistry reg;
    SimulationRequest req;
    req.metrics = &reg;
    auto sim = c.simulate(req);
    EXPECT_GT(reg.histogram("sim.phase.eval_us").count(), 0);
    EXPECT_GT(reg.histogram("sim.phase.merge_us").count(), 0);
}

// ---------------------------------------------------------------------
// Chrome trace export of the concurrent tracer
// ---------------------------------------------------------------------

TEST(TelemetryChromeTrace, EmitsNamedPerThreadRowsAndSpanIds) {
    Tracer t;
    std::uint64_t rootId = 0;
    {
        ScopedSpan root(t, "root", "x");
        rootId = root.context().spanId;
        const SpanContext ctx = root.context();
        std::thread w([&t, ctx] {
            thread_registry::setCurrentName("trace-test-worker");
            ContextScope adopt(t, ctx);
            ScopedSpan s(t, "child", "x");
        });
        w.join();
    }
    const Json doc = buildChromeTrace(t, "test-proc");
    const Json& events = doc.at("traceEvents");
    std::set<std::string> threadNames;
    bool sawChildWithParent = false;
    for (const Json& e : events.items()) {
        if (e.at("ph").stringValue() == "M" &&
            e.at("name").stringValue() == "thread_name")
            threadNames.insert(e.at("args").at("name").stringValue());
        if (e.at("ph").stringValue() == "X" &&
            e.at("name").stringValue() == "child") {
            EXPECT_EQ(static_cast<std::uint64_t>(
                          e.at("args").at("parent_id").intValue()),
                      rootId);
            sawChildWithParent = true;
        }
    }
    EXPECT_TRUE(sawChildWithParent);
    EXPECT_EQ(threadNames.count("trace-test-worker"), 1u);
    EXPECT_GE(threadNames.size(), 2u);  // main + the worker
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST(TelemetryFlightRecorder, DisabledRecorderDropsEverything) {
    FlightRecorder fr(8);
    fr.record("x", "y");
    EXPECT_EQ(fr.recorded(), 0);
    EXPECT_TRUE(fr.snapshot().empty());
}

TEST(TelemetryFlightRecorder, RingKeepsTheLastNOldestFirst) {
    FlightRecorder fr(4);
    fr.setEnabled(true);
    for (int i = 0; i < 6; ++i)
        fr.record("ev", "d" + std::to_string(i));
    EXPECT_EQ(fr.recorded(), 6);
    const auto events = fr.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, 2 + i);
        EXPECT_EQ(events[i].detail, "d" + std::to_string(2 + i));
        EXPECT_EQ(events[i].type, "ev");
    }
    fr.clear();
    EXPECT_TRUE(fr.snapshot().empty());
    EXPECT_EQ(fr.recorded(), 0);
}

TEST(TelemetryFlightRecorder, OversizedStringsAreTruncatedNotCorrupted) {
    FlightRecorder fr(2);
    fr.setEnabled(true);
    const std::string longType(100, 't');
    const std::string longDetail(500, 'd');
    fr.record(longType, longDetail);
    const auto events = fr.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].type, std::string(FlightRecorder::kTypeMax, 't'));
    EXPECT_EQ(events[0].detail, std::string(FlightRecorder::kDetailMax, 'd'));
}

TEST(TelemetryFlightRecorder, ConcurrentWritersNeverTearSlots) {
    FlightRecorder fr(64);
    fr.setEnabled(true);
    std::vector<std::thread> ts;
    for (int k = 0; k < 4; ++k)
        ts.emplace_back([&fr] {
            for (int i = 0; i < 2000; ++i) {
                const std::string n = std::to_string(i % 50);
                fr.record("k" + n, "v" + n);
            }
        });
    for (auto& t : ts) t.join();
    EXPECT_EQ(fr.recorded(), 4 * 2000);
    const auto events = fr.snapshot();
    EXPECT_LE(events.size(), 64u);
    std::uint64_t prevSeq = 0;
    for (const auto& e : events) {
        // A torn slot would pair a type from one record with the detail
        // of another; the suffixes must always agree.
        ASSERT_GE(e.type.size(), 2u);
        ASSERT_GE(e.detail.size(), 2u);
        EXPECT_EQ(e.type.substr(1), e.detail.substr(1))
            << e.type << " / " << e.detail;
        if (prevSeq != 0) {
            EXPECT_GT(e.seq, prevSeq);
        }
        prevSeq = e.seq;
    }
}

TEST(TelemetryFlightRecorder, DumpJsonlIsParseableLineByLine) {
    FlightRecorder fr(8);
    fr.setEnabled(true);
    fr.record("fault.fire", "proc.crash poll=3 fire=1");
    fr.record("service.retry", "attempt=1 Unavailable");
    const std::string path = "test_flight_dump.jsonl";
    ASSERT_TRUE(fr.dumpJsonl(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::vector<Json> lines;
    while (std::getline(in, line)) {
        std::string err;
        Json j = Json::parse(line, &err);
        ASSERT_TRUE(err.empty()) << err << " in: " << line;
        lines.push_back(std::move(j));
    }
    ASSERT_EQ(lines.size(), 3u);  // header + 2 events
    EXPECT_EQ(lines[0].at("schema").stringValue(), "phpf.flight_recorder");
    EXPECT_EQ(lines[0].at("recorded").intValue(), 2);
    EXPECT_EQ(lines[1].at("type").stringValue(), "fault.fire");
    EXPECT_EQ(lines[2].at("type").stringValue(), "service.retry");
    EXPECT_FALSE(lines[1].at("thread").stringValue().empty());
    std::remove(path.c_str());
}

TEST(TelemetryFlightRecorder, InjectedProcCrashLeavesFaultEventsInTheRing) {
    FlightRecorder& fr = FlightRecorder::global();
    fr.clear();
    fr.setEnabled(true);

    Program p = programs::tomcatv(10, 2);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("proc.crash:p=1;seed=3"));
    SimulationRequest req;
    req.faults = &inj;
    req.maxRecoveries = 2;
    EXPECT_THROW({ auto sim = c.simulate(req); }, SimFault);

    bool sawFire = false, sawRestore = false;
    for (const auto& e : fr.snapshot()) {
        if (e.type == "fault.fire" &&
            e.detail.find("proc.crash") != std::string::npos)
            sawFire = true;
        if (e.type == "sim.restore") sawRestore = true;
    }
    EXPECT_TRUE(sawFire);
    EXPECT_TRUE(sawRestore);

    const std::string path = "test_flight_crash.jsonl";
    ASSERT_TRUE(fr.dumpJsonl(path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("\"fault.fire\""), std::string::npos);
    EXPECT_NE(buf.str().find("proc.crash"), std::string::npos);
    std::remove(path.c_str());

    fr.setEnabled(false);
    fr.clear();
}

// ---------------------------------------------------------------------
// Thread registry + pool naming
// ---------------------------------------------------------------------

TEST(TelemetryThreadRegistry, TidIsStableAndNamesResolve) {
    const int tid = thread_registry::currentTid();
    EXPECT_EQ(thread_registry::currentTid(), tid);
    thread_registry::setCurrentName("telemetry-test-main");
    EXPECT_EQ(thread_registry::currentName(), "telemetry-test-main");
    EXPECT_EQ(thread_registry::nameOf(tid), "telemetry-test-main");
    EXPECT_EQ(thread_registry::nameOf(999999), "thread-999999");
    EXPECT_GE(thread_registry::count(), 1);
}

TEST(TelemetryThreadRegistry, TaskPoolWorkersRegisterPrefixedNames) {
    TaskPool pool(2, "tp-name-test");
    std::mutex mu;
    std::set<std::string> seen;
    for (int i = 0; i < 8; ++i)
        pool.post([&] {
            std::lock_guard<std::mutex> lock(mu);
            seen.insert(thread_registry::currentName());
        });
    pool.drain();
    for (const auto& n : seen)
        EXPECT_EQ(n.rfind("tp-name-test-", 0), 0u) << n;
    EXPECT_GE(seen.size(), 1u);
    EXPECT_LE(seen.size(), 2u);
}

// ---------------------------------------------------------------------
// HTTP exposition endpoint
// ---------------------------------------------------------------------

#if PHPF_TEST_SOCKETS

std::string httpGet(int port, const std::string& path) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
        ::close(fd);
        return "";
    }
    const std::string req = "GET " + path + " HTTP/1.1\r\nHost: l\r\n\r\n";
    (void)::send(fd, req.data(), req.size(), 0);
    std::string out;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        out.append(buf, static_cast<size_t>(n));
    ::close(fd);
    return out;
}

TEST(TelemetryHttp, ServesMetricsHealthzAndReport) {
    MetricRegistry reg;
    reg.counter("http.test.hits").add(7);
    reg.histogram("http.test.lat_us").record(10);

    service::MetricsHttpServer server(0);  // ephemeral
    server.addRegistry("phpf", &reg);
    server.setHealthProvider([] {
        Json h = Json::object();
        h.set("queue_depth", 0);
        return h;
    });
    server.setReportProvider([] {
        Json r = Json::object();
        r.set("schema", "phpf.test_report");
        return r;
    });
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    ASSERT_GT(server.port(), 0);

    const std::string metrics = httpGet(server.port(), "/metrics");
    EXPECT_NE(metrics.find("200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
    EXPECT_NE(metrics.find("phpf_http_test_hits_total 7"), std::string::npos);
    EXPECT_NE(metrics.find("phpf_http_test_lat_us{quantile=\"0.9\"}"),
              std::string::npos);

    const std::string health = httpGet(server.port(), "/healthz");
    EXPECT_NE(health.find("200 OK"), std::string::npos);
    EXPECT_NE(health.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_NE(health.find("\"queue_depth\": 0"), std::string::npos);
    EXPECT_NE(health.find("uptime_sec"), std::string::npos);

    const std::string report = httpGet(server.port(), "/report");
    EXPECT_NE(report.find("phpf.test_report"), std::string::npos);

    const std::string missing = httpGet(server.port(), "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos);

    EXPECT_FALSE(server.quitRequested());
    const std::string quit = httpGet(server.port(), "/quitquitquit");
    EXPECT_NE(quit.find("200 OK"), std::string::npos);
    EXPECT_TRUE(server.quitRequested());
    EXPECT_GE(server.requestsServed(), 5);
    server.stop();
    EXPECT_FALSE(server.running());
    server.stop();  // idempotent
}

TEST(TelemetryHttp, ReportWithoutProviderIs503) {
    service::MetricsHttpServer server(0);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    const std::string report = httpGet(server.port(), "/report");
    EXPECT_NE(report.find("503"), std::string::npos);
    server.stop();
}

TEST(TelemetryHttp, ScrapeWhileWritersAreHotIsConsistent) {
    MetricRegistry reg;
    service::MetricsHttpServer server(0);
    server.addRegistry("phpf", &reg);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        auto& c = reg.counter("hot.count");
        auto& h = reg.histogram("hot.lat_us");
        while (!stop.load()) {
            c.add(1);
            h.record(5);
        }
    });
    for (int i = 0; i < 10; ++i) {
        const std::string body = httpGet(server.port(), "/metrics");
        EXPECT_NE(body.find("200 OK"), std::string::npos);
    }
    stop.store(true);
    writer.join();
    server.stop();
}

#endif  // PHPF_TEST_SOCKETS

}  // namespace
}  // namespace phpf
