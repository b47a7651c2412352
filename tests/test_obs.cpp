#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "obs/chrome_trace.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "programs/programs.h"

namespace phpf {
namespace {

// ---------------------------------------------------------------------------
// Tracer / ScopedSpan
// ---------------------------------------------------------------------------

TEST(ObsTracer, SpansNestAndTimesAreMonotonic) {
    obs::Tracer t;
    const auto outer = t.begin("outer", "pass");
    const auto inner = t.begin("inner", "pass");
    t.end(inner);
    t.end(outer);

    const std::vector<obs::TraceSpan> spans = t.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    const obs::TraceSpan& o = spans[0];
    const obs::TraceSpan& i = spans[1];
    EXPECT_EQ(o.name, "outer");
    EXPECT_EQ(o.parent, 0u);
    EXPECT_EQ(i.parent, o.id);
    ASSERT_TRUE(o.closed());
    ASSERT_TRUE(i.closed());
    EXPECT_GE(o.durNs, 0);
    EXPECT_GE(i.durNs, 0);
    // The inner span starts no earlier and ends no later than the outer.
    EXPECT_GE(i.startNs, o.startNs);
    EXPECT_LE(i.startNs + i.durNs, o.startNs + o.durNs);
}

TEST(ObsTracer, ScopedSpanClosesOnScopeExitAndIsIdempotent) {
    obs::Tracer t;
    {
        obs::ScopedSpan s(t, "scoped", "pass");
        EXPECT_FALSE(t.snapshot()[0].closed());
        s.close();
        EXPECT_TRUE(t.snapshot()[0].closed());
        const std::int64_t dur = t.snapshot()[0].durNs;
        s.close();  // second close must not re-measure
        EXPECT_EQ(t.snapshot()[0].durNs, dur);
    }
    ASSERT_EQ(t.spanCount(), 1u);
}

TEST(ObsTracer, NullTracerIsSafe) {
    obs::ScopedSpan s(nullptr, "nothing");
    EXPECT_EQ(s.context().spanId, 0u);
    s.close();  // must not crash
}

TEST(ObsTracer, DisabledTracerRecordsNothing) {
    obs::Tracer t(false);
    const auto h = t.begin("never");
    EXPECT_EQ(h.id, 0u);
    t.end(h);
    EXPECT_EQ(t.addCompleteSpan("also-never", "", 0, 10), 0u);
    { obs::ScopedSpan s(t, "scoped-never"); }
    EXPECT_EQ(t.spanCount(), 0u);
    EXPECT_TRUE(t.snapshot().empty());
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(ObsMetrics, CounterAndGaugeSemantics) {
    obs::MetricRegistry reg;
    reg.counter("a").add();
    reg.counter("a").add(4);
    EXPECT_EQ(reg.counter("a").value(), 5);
    reg.gauge("g").set(2.5);
    reg.gauge("g").set(7.0);  // last value wins
    EXPECT_EQ(reg.gauge("g").value(), 7.0);
}

TEST(ObsMetrics, HistogramSummaryAndBuckets) {
    obs::Histogram h;
    h.record(0.5);
    h.record(1.0);
    h.record(3.0);
    EXPECT_EQ(h.count(), 3);
    EXPECT_DOUBLE_EQ(h.sum(), 4.5);
    EXPECT_DOUBLE_EQ(h.min(), 0.5);
    EXPECT_DOUBLE_EQ(h.max(), 3.0);
    EXPECT_DOUBLE_EQ(h.mean(), 1.5);
    EXPECT_EQ(h.bucket(0), 1);  // [0, 1)
    EXPECT_EQ(h.bucket(1), 1);  // [1, 2)
    EXPECT_EQ(h.bucket(2), 1);  // [2, 4)
    EXPECT_EQ(h.bucket(3), 0);
}

TEST(ObsMetrics, RegistryToJsonOmitsEmptySections) {
    obs::MetricRegistry reg;
    reg.counter("only.counter").add(3);
    const obs::Json j = reg.toJson();
    EXPECT_EQ(j.at("counters").at("only.counter").intValue(), 3);
    EXPECT_EQ(j.find("gauges"), nullptr);
    EXPECT_EQ(j.find("histograms"), nullptr);
}

// ---------------------------------------------------------------------------
// Json round-trip
// ---------------------------------------------------------------------------

TEST(ObsJson, DumpParseRoundTrip) {
    obs::Json root = obs::Json::object();
    root.set("s", "he\"llo\n");
    root.set("i", std::int64_t{-42});
    root.set("d", 1.5);
    root.set("b", true);
    root.set("n", nullptr);
    obs::Json arr = obs::Json::array();
    arr.push(1);
    arr.push("two");
    root.set("a", std::move(arr));

    for (int indent : {-1, 2}) {
        std::string err;
        const obs::Json back = obs::Json::parse(root.dump(indent), &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_EQ(back.at("s").stringValue(), "he\"llo\n");
        EXPECT_EQ(back.at("i").intValue(), -42);
        EXPECT_DOUBLE_EQ(back.at("d").numberValue(), 1.5);
        EXPECT_TRUE(back.at("b").boolValue());
        EXPECT_TRUE(back.at("n").isNull());
        ASSERT_EQ(back.at("a").size(), 2u);
        EXPECT_EQ(back.at("a").items()[1].stringValue(), "two");
        // Insertion order survives the round trip.
        EXPECT_EQ(back.keys().front(), "s");
    }
}

TEST(ObsJson, ParseReportsErrors) {
    std::string err;
    const obs::Json j = obs::Json::parse("{\"unterminated\": ", &err);
    EXPECT_TRUE(j.isNull());
    EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// Decision records (paper Fig. 1: four privatized scalars, four fates)
// ---------------------------------------------------------------------------

class ObsFig1 : public ::testing::Test {
protected:
    void SetUp() override {
        program_ = programs::fig1(32);
        TargetConfig opts;
        opts.gridExtents = {4};
        compilation_ =
            std::make_unique<Compilation>(Compiler::compile(program_, opts));
    }

    const obs::DecisionLog& log() const {
        return compilation_->mappingPass().decisionLog();
    }

    Program program_;
    std::unique_ptr<Compilation> compilation_;
};

TEST_F(ObsFig1, EveryPrivatizedScalarHasARecord) {
    for (const char* v : {"m", "x", "y", "z"})
        EXPECT_NE(log().findVariable(v), nullptr) << v;
}

TEST_F(ObsFig1, ChosenAlternativesMatchThePaper) {
    EXPECT_EQ(log().findVariable("x")->chosen, "consumer-aligned");
    EXPECT_EQ(log().findVariable("y")->chosen, "producer-aligned");
    EXPECT_EQ(log().findVariable("z")->chosen, "unaligned-private");
}

TEST_F(ObsFig1, RecordsCarryAllAlternativesWithCostsOrNotes) {
    for (const char* v : {"x", "y", "z"}) {
        const obs::DecisionRecord* r = log().findVariable(v);
        ASSERT_NE(r, nullptr) << v;
        ASSERT_EQ(r->alternatives.size(), 4u) << v;

        int chosenCount = 0;
        bool sawConsumer = false, sawProducer = false, sawPrivate = false,
             sawReplicated = false;
        for (const obs::AlternativeCost& a : r->alternatives) {
            sawConsumer |= a.name == "consumer-aligned";
            sawProducer |= a.name == "producer-aligned";
            sawPrivate |= a.name == "unaligned-private";
            sawReplicated |= a.name == "replicated";
            if (a.chosen) {
                ++chosenCount;
                EXPECT_TRUE(a.feasible) << v;
                EXPECT_EQ(a.name, r->chosen) << v;
            }
            if (a.feasible)
                EXPECT_GE(a.costSec, 0.0) << v << " " << a.name;
            else
                EXPECT_FALSE(a.note.empty()) << v << " " << a.name;
        }
        EXPECT_EQ(chosenCount, 1) << v;
        EXPECT_TRUE(sawConsumer && sawProducer && sawPrivate && sawReplicated)
            << v;
    }
    // Replication is always feasible and, with partitioned rhs reads,
    // costs broadcasts — the rejected alternative must carry that cost.
    const obs::DecisionRecord* x = log().findVariable("x");
    for (const obs::AlternativeCost& a : x->alternatives)
        if (a.name == "replicated") {
            EXPECT_TRUE(a.feasible);
            EXPECT_GT(a.costSec, 0.0);
        }
}

TEST_F(ObsFig1, DecisionsSerializeWithNullCostForInfeasible) {
    const obs::Json j = log().toJson();
    ASSERT_TRUE(j.isArray());
    ASSERT_GE(j.size(), 4u);
    bool sawNullCost = false, sawNumericCost = false;
    for (const obs::Json& rec : j.items()) {
        EXPECT_TRUE(rec.at("variable").isString());
        EXPECT_TRUE(rec.at("chosen").isString());
        for (const obs::Json& alt : rec.at("alternatives").items()) {
            if (alt.at("feasible").boolValue())
                sawNumericCost |= alt.at("cost_sec").isNumber();
            else
                sawNullCost |= alt.at("cost_sec").isNull();
        }
    }
    EXPECT_TRUE(sawNullCost);
    EXPECT_TRUE(sawNumericCost);
}

// ---------------------------------------------------------------------------
// Run report + Chrome trace round-trip
// ---------------------------------------------------------------------------

TEST(ObsReport, RunReportRoundTripsThroughJson) {
    Program p = programs::fig1(32);
    DiagEngine diags;
    TargetConfig opts;
    CompileSession session;
    opts.gridExtents = {4};
    session.tracer = std::make_shared<obs::Tracer>();
    session.diags = &diags;
    Compilation c = Compiler::compile(p, opts, PassOptions{}, session);
    auto sim = c.simulate();

    std::string err;
    const obs::Json r = obs::Json::parse(c.buildRunReport(sim.get()).dump(), &err);
    ASSERT_TRUE(err.empty()) << err;

    EXPECT_EQ(r.at("schema").stringValue(), "phpf.run_report");
    EXPECT_EQ(r.at("schema_version").intValue(), 4);
    EXPECT_EQ(r.at("program").stringValue(), "fig1");
    EXPECT_EQ(r.at("total_procs").intValue(), 4);
    EXPECT_EQ(r.at("induction_rewrites").intValue(), 1);

    // Per-pass wall times: every pipeline stage shows up, closed.
    ASSERT_TRUE(r.at("passes").isArray());
    bool sawMapping = false;
    for (const obs::Json& pass : r.at("passes").items()) {
        sawMapping |= pass.at("name").stringValue() == "mapping-pass";
        EXPECT_TRUE(pass.at("wall_us").isNumber());
        EXPECT_GE(pass.at("wall_us").numberValue(), 0.0);
    }
    EXPECT_TRUE(sawMapping);

    // The induction-rewrite note flows from DiagEngine into the report.
    ASSERT_GE(r.at("diagnostics").size(), 1u);
    EXPECT_EQ(r.at("diagnostics").items()[0].at("severity").stringValue(),
              "note");

    ASSERT_GE(r.at("decisions").size(), 4u);
    EXPECT_TRUE(r.at("cost_prediction").at("total_sec").isNumber());

    // Simulation metrics: one entry per processor, consistent totals.
    const obs::Json& sim_j = r.at("simulation");
    ASSERT_EQ(sim_j.at("per_proc").size(), 4u);
    std::int64_t stmts = 0;
    for (const obs::Json& pp : sim_j.at("per_proc").items())
        stmts += pp.at("stmts_executed").intValue();
    EXPECT_EQ(stmts, sim_j.at("statements_executed_all_procs").intValue());
    // The loop driver's proc-statements are a subset of all of them.
    EXPECT_GE(sim_j.at("loop_kernel_instances").intValue(), 0);
    EXPECT_LE(sim_j.at("loop_kernel_instances").intValue(), stmts);
    EXPECT_EQ(sim_j.at("bytes_moved").intValue(),
              sim_j.at("element_transfers").intValue() *
                  sim_j.at("elem_bytes").intValue());
    EXPECT_GE(sim_j.at("imbalance").at("ratio").numberValue(), 1.0);
}

TEST(ObsReport, SimulatorUsesConfiguredElementSize) {
    Program p = programs::fig1(32);
    TargetConfig opts;
    opts.gridExtents = {4};
    opts.costModel.elemBytes = 4;
    Compilation c = Compiler::compile(p, opts);
    auto sim = c.simulate();
    sim->run();
    EXPECT_EQ(sim->elemBytes(), 4);
    EXPECT_EQ(sim->bytesMoved(), sim->elementTransfers() * 4);
}

TEST(ObsReport, ChromeTraceIsValidAndLoadsSpans) {
    Program p = programs::fig1(32);
    TargetConfig opts;
    CompileSession session;
    opts.gridExtents = {4};
    session.tracer = std::make_shared<obs::Tracer>();
    Compilation c = Compiler::compile(p, opts, PassOptions{}, session);

    std::string err;
    const obs::Json t =
        obs::Json::parse(obs::buildChromeTrace(*session.tracer, "phpf test").dump(), &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_TRUE(t.at("traceEvents").isArray());
    ASSERT_GE(t.at("traceEvents").size(), 2u);

    const obs::Json& meta = t.at("traceEvents").items()[0];
    EXPECT_EQ(meta.at("ph").stringValue(), "M");
    EXPECT_EQ(meta.at("name").stringValue(), "process_name");

    // Metadata rows ("M": process and thread names) aside, every event
    // is a complete span with a non-negative start and duration.
    int spans = 0;
    for (const obs::Json& ev : t.at("traceEvents").items()) {
        if (ev.at("ph").stringValue() == "M") continue;
        ++spans;
        EXPECT_EQ(ev.at("ph").stringValue(), "X");
        ASSERT_TRUE(ev.at("ts").isNumber());
        ASSERT_TRUE(ev.at("dur").isNumber());
        EXPECT_GE(ev.at("ts").numberValue(), 0.0);
        EXPECT_GE(ev.at("dur").numberValue(), 0.0);
    }
    EXPECT_EQ(static_cast<std::size_t>(spans), session.tracer->spanCount());
}

}  // namespace
}  // namespace phpf
