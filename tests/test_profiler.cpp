// The per-statement profiler and the cost-model calibration layer:
// exact-count accounting against the simulator's own totals, bit-exact
// determinism across repeated runs and crash recovery, the run
// report's schema-v3 profile/calibration sections, flamegraph folded
// stacks, Prometheus export of the phpf_stmt_self_time_* and
// phpf_model_error_* series, service-side profiled-artifact caching
// (cold/warm identical calibration), the batch runner's v3 calibration
// summary, and the histogram/JSON-escaping edge cases the profile
// surfaces lean on.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "obs/calibration.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/prometheus.h"
#include "programs/programs.h"
#include "service/batch.h"
#include "service/compile_service.h"
#include "support/fault.h"

namespace phpf {
namespace {

using obs::CalibrationReport;
using obs::CalibrationRow;
using obs::Histogram;
using obs::Json;
using obs::MetricRegistry;
using obs::StmtProfile;

// ---------------------------------------------------------------------
// Helpers: one profiled run, everything copied out
// ---------------------------------------------------------------------

struct ProfiledRun {
    StmtProfile prof{0, 0};
    std::int64_t messageEvents = 0;
    std::int64_t elementTransfers = 0;
    std::int64_t stmtsAllProcs = 0;
    int procCount = 0;
    std::string calibrationDump;  ///< compact JSON of the calibration
    std::string profileDump;      ///< compact JSON, times zeroed out
};

/// Strip the host-dependent sampled durations from a profile so dumps
/// can be compared bit-for-bit across runs. The
/// sample *counts* stay: they are part of the determinism contract.
Json countsOnlyProfileJson(const Program& p, const StmtProfile& prof,
                           int elemBytes) {
    Json j = obs::profileJson(p, prof, elemBytes);
    Json stmts = Json::array();
    for (const Json& row : j.at("stmts").items()) {
        Json r = row;
        r.set("eval_us", 0.0);
        r.set("merge_us", 0.0);
        r.set("self_us_est", 0.0);
        stmts.push(std::move(r));
    }
    j.set("stmts", std::move(stmts));
    j.set("quantiles", Json::object());
    return j;
}

ProfiledRun runProfiled(const std::function<Program()>& make,
                        const char* faults = nullptr,
                        int checkpointEvery = 0) {
    Program p = make();
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    FaultInjector inj;
    SimulationRequest req;
    req.profile = true;
    if (faults != nullptr) {
        EXPECT_TRUE(inj.configure(faults));
        req.faults = &inj;
        req.checkpointEvery = checkpointEvery;
        req.maxRecoveries = 8;
    }
    auto sim = c.simulate(req);
    ProfiledRun out;
    EXPECT_NE(sim->profile(), nullptr);
    out.prof = *sim->profile();
    out.messageEvents = sim->messageEvents();
    out.elementTransfers = sim->elementTransfers();
    out.stmtsAllProcs = sim->statementsExecutedAllProcs();
    out.procCount = sim->procCount();
    const CalibrationReport cal = obs::buildCalibration(
        c.lowering(), TargetConfig{}.costModel, *sim, *sim->profile(),
        c.mappingPass().decisionLog());
    out.calibrationDump = cal.toJson().dump(-1);
    out.profileDump =
        countsOnlyProfileJson(c.lowering().program(), *sim->profile(),
                              sim->elemBytes())
            .dump(-1);
    return out;
}

std::function<Program()> makeTomcatv() {
    return [] { return programs::tomcatv(12, 2); };
}
std::function<Program()> makeFig1() {
    return [] { return programs::fig1(24); };
}
std::function<Program()> makeFig6() {
    return [] { return programs::fig6(6, 6, 6); };
}

// ---------------------------------------------------------------------
// Profiler accounting: the profile's totals are the simulator's totals
// ---------------------------------------------------------------------

TEST(ProfilerTotals, ProcStmtExecutionsMatchTheSimulator) {
    const ProfiledRun r = runProfiled(makeTomcatv());
    std::int64_t procStmts = 0;
    for (int s = 0; s < r.prof.stmtCount(); ++s)
        procStmts += r.prof.row(s).procStmts;
    EXPECT_EQ(procStmts, r.stmtsAllProcs);
}

TEST(ProfilerTotals, ElementTransfersMatchTheSimulator) {
    const ProfiledRun r = runProfiled(makeTomcatv());
    std::int64_t elements = 0;
    for (int s = 0; s < r.prof.stmtCount(); ++s)
        elements += r.prof.row(s).elements;
    EXPECT_EQ(elements, r.elementTransfers);
}

TEST(ProfilerTotals, MessageEventsMatchTheSimulator) {
    const ProfiledRun r = runProfiled(makeTomcatv());
    std::int64_t events = 0;
    for (int s = 0; s < r.prof.stmtCount(); ++s)
        events += r.prof.row(s).events;
    EXPECT_EQ(events, r.messageEvents);
}

TEST(ProfilerTotals, PerProcCountsSumToTheRowTotal) {
    const ProfiledRun r = runProfiled(makeTomcatv());
    for (int s = 0; s < r.prof.stmtCount(); ++s) {
        std::int64_t sum = 0;
        for (int p = 0; p < r.procCount; ++p)
            sum += r.prof.procStmtsOf(s, p);
        EXPECT_EQ(sum, r.prof.row(s).procStmts) << "stmt " << s;
    }
}

TEST(ProfilerTotals, MaxProcAndImbalanceAreConsistent) {
    const ProfiledRun r = runProfiled(makeTomcatv());
    for (int s = 0; s < r.prof.stmtCount(); ++s) {
        const auto& row = r.prof.row(s);
        if (row.procStmts == 0) {
            EXPECT_EQ(r.prof.maxProcStmts(s), 0);
            EXPECT_DOUBLE_EQ(r.prof.imbalanceOf(s), 0.0);
            continue;
        }
        // The busiest processor carries at least the mean load, and the
        // imbalance is exactly max/mean.
        const double mean = static_cast<double>(row.procStmts) /
                            static_cast<double>(r.procCount);
        EXPECT_GE(static_cast<double>(r.prof.maxProcStmts(s)), mean);
        EXPECT_NEAR(r.prof.imbalanceOf(s),
                    static_cast<double>(r.prof.maxProcStmts(s)) / mean,
                    1e-12);
    }
}

TEST(ProfilerTotals, ExecutedStatementsExistAndSamplesAccrue) {
    const ProfiledRun r = runProfiled(makeTomcatv());
    std::int64_t instances = 0, evalSamples = 0;
    for (int s = 0; s < r.prof.stmtCount(); ++s) {
        instances += r.prof.row(s).instances;
        evalSamples += r.prof.row(s).evalSamples;
    }
    EXPECT_GT(instances, 0);
    // 1-in-64 sampling over a run this size must land at least once
    // (tick 0 always samples).
    EXPECT_GT(evalSamples, 0);
    EXPECT_LE(evalSamples, instances / 4 + 1);
}

TEST(ProfilerTotals, ProfilingIsOffByDefault) {
    Program p = programs::fig1(16);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    auto sim = c.simulate(SimulationRequest{});
    EXPECT_EQ(sim->profile(), nullptr);
}

TEST(ProfilerTotals, SelfTimeEstimateScalesSampledTime) {
    StmtProfile prof(2, 4);
    prof.beginStmt(1);
    prof.addEvalSample(3.0);
    prof.addMergeSample(2.0);
    EXPECT_DOUBLE_EQ(prof.selfUsEst(1),
                     5.0 * static_cast<double>(StmtProfile::kSampleEvery));
    EXPECT_DOUBLE_EQ(prof.selfUsEst(0), 0.0);
}

// ---------------------------------------------------------------------
// Determinism: bit-identical counts across runs and recovery
// ---------------------------------------------------------------------

void expectCountsIdentical(const std::function<Program()>& make) {
    const ProfiledRun base = runProfiled(make);
    const ProfiledRun r = runProfiled(make);
    EXPECT_EQ(r.profileDump, base.profileDump);
    EXPECT_EQ(r.calibrationDump, base.calibrationDump);
}

TEST(ProfilerDeterminism, Fig1CountsAcrossThreadCounts) {
    expectCountsIdentical(makeFig1());
}

TEST(ProfilerDeterminism, Fig6CountsAcrossThreadCounts) {
    expectCountsIdentical(makeFig6());
}

TEST(ProfilerDeterminism, TomcatvCountsAcrossThreadCounts) {
    expectCountsIdentical(makeTomcatv());
}

TEST(ProfilerDeterminism, RepeatedRunsAreIdentical) {
    const ProfiledRun a = runProfiled(makeTomcatv());
    const ProfiledRun b = runProfiled(makeTomcatv());
    EXPECT_EQ(a.profileDump, b.profileDump);
    EXPECT_EQ(a.calibrationDump, b.calibrationDump);
}

TEST(ProfilerDeterminism, CrashRecoveryReproducesTheProfile) {
    // A proc crash rolls the simulator back to the last checkpoint; the
    // profile (tick counters included) checkpoints with it, so the
    // recovered run's counts and sample schedule match the fault-free
    // run exactly.
    const ProfiledRun clean = runProfiled(makeTomcatv());
    const ProfiledRun faulted = runProfiled(
        makeTomcatv(), "proc.crash:nth=17;limit=3", /*checkpointEvery=*/10);
    EXPECT_EQ(faulted.profileDump, clean.profileDump);
    EXPECT_EQ(faulted.calibrationDump, clean.calibrationDump);
}

// ---------------------------------------------------------------------
// profileJson
// ---------------------------------------------------------------------

TEST(ProfileJson, SchemaTotalsAndRowShape) {
    const ProfiledRun r = runProfiled(makeTomcatv());
    std::string err;
    const Json j = Json::parse(r.profileDump, &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(j.at("schema").stringValue(), "phpf.profile");
    EXPECT_EQ(j.at("sample_every").intValue(),
              static_cast<std::int64_t>(StmtProfile::kSampleEvery));
    std::int64_t instances = 0, events = 0;
    for (const Json& row : j.at("stmts").items()) {
        for (const char* key :
             {"id", "kind", "text", "instances", "proc_stmts",
              "max_proc_stmts", "imbalance", "elements", "events",
              "bytes_moved", "eval_samples", "merge_samples",
              "self_us_est"})
            EXPECT_NE(row.find(key), nullptr) << key;
        instances += row.at("instances").intValue();
        events += row.at("events").intValue();
    }
    EXPECT_EQ(j.at("totals").at("instances").intValue(), instances);
    EXPECT_EQ(j.at("totals").at("events").intValue(), events);
    EXPECT_EQ(j.at("totals").at("events").intValue(), r.messageEvents);
}

TEST(ProfileJson, SkipsStatementsThatNeverExecuted) {
    const ProfiledRun r = runProfiled(makeTomcatv());
    std::string err;
    const Json j = Json::parse(r.profileDump, &err);
    ASSERT_TRUE(err.empty()) << err;
    for (const Json& row : j.at("stmts").items())
        EXPECT_GT(row.at("instances").intValue() +
                      row.at("proc_stmts").intValue() +
                      row.at("events").intValue(),
                  0);
}

TEST(ProfileJson, QuantileSectionPresentOnLiveProfile) {
    Program p = programs::tomcatv(12, 2);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    SimulationRequest req;
    req.profile = true;
    auto sim = c.simulate(req);
    const Json j = obs::profileJson(c.lowering().program(), *sim->profile(),
                                    sim->elemBytes());
    const Json& q = j.at("quantiles").at("self_us_est");
    EXPECT_NE(q.find("p50"), nullptr);
    EXPECT_NE(q.find("p90"), nullptr);
    EXPECT_NE(q.find("p99"), nullptr);
    EXPECT_GE(q.at("p99").numberValue(), q.at("p50").numberValue());
}

// ---------------------------------------------------------------------
// Folded stacks
// ---------------------------------------------------------------------

TEST(FoldedStacks, EveryLineIsFramesSpaceInteger) {
    Program p = programs::tomcatv(12, 2);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    SimulationRequest req;
    req.profile = true;
    auto sim = c.simulate(req);
    const std::string folded =
        obs::foldedStacks(c.lowering().program(), *sim->profile());
    ASSERT_FALSE(folded.empty());
    std::istringstream in(folded);
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        // flamegraph.pl splits on the LAST space: frames, then an
        // integer sample value.
        const size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        const std::string frames = line.substr(0, sp);
        const std::string value = line.substr(sp + 1);
        EXPECT_FALSE(frames.empty()) << line;
        EXPECT_EQ(frames.rfind("tomcatv;", 0), 0u) << line;
        ASSERT_FALSE(value.empty()) << line;
        for (const char ch : value) EXPECT_TRUE(::isdigit(ch)) << line;
    }
    EXPECT_GT(lines, 3);
    // The loop nest is the stack: tomcatv's innermost statements sit
    // under do iter / do j / do i.
    EXPECT_NE(folded.find("do iter;do j;do i;"), std::string::npos);
}

TEST(FoldedStacks, FramesSanitizeControlAndSeparatorChars) {
    Program p = programs::fig1(16);
    p.name = "bad;name\nwith\ttabs";
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    SimulationRequest req;
    req.profile = true;
    auto sim = c.simulate(req);
    const std::string folded =
        obs::foldedStacks(c.lowering().program(), *sim->profile());
    ASSERT_FALSE(folded.empty());
    // The program-name frame must not smuggle in frame separators or
    // newlines — they would corrupt every stack below it.
    EXPECT_NE(folded.find("bad name with tabs;"), std::string::npos);
    std::istringstream in(folded);
    std::string line;
    while (std::getline(in, line))
        EXPECT_EQ(line.find('\t'), std::string::npos) << line;
}

// ---------------------------------------------------------------------
// Prometheus export of the profile
// ---------------------------------------------------------------------

TEST(ProfilerMetrics, StmtSelfTimeSeriesReachesPrometheus) {
    Program p = programs::tomcatv(12, 2);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    SimulationRequest req;
    req.profile = true;
    auto sim = c.simulate(req);
    MetricRegistry reg;
    obs::exportStmtSelfTime(reg, *sim->profile());
    int executed = 0;
    for (int s = 0; s < sim->profile()->stmtCount(); ++s)
        if (sim->profile()->row(s).instances > 0) ++executed;
    EXPECT_EQ(reg.histogram("stmt_self_time.us").count(), executed);
    const std::string text = obs::renderPrometheus(reg, "phpf");
    EXPECT_NE(text.find("phpf_stmt_self_time_us"), std::string::npos);
    EXPECT_NE(text.find("phpf_stmt_self_time_us_count"), std::string::npos);
}

// ---------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------

CalibrationReport calibrationOf(const std::function<Program()>& make) {
    Program p = make();
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    SimulationRequest req;
    req.profile = true;
    auto sim = c.simulate(req);
    return obs::buildCalibration(c.lowering(), TargetConfig{}.costModel,
                                 *sim, *sim->profile(),
                                 c.mappingPass().decisionLog());
}

TEST(Calibration, JoinsEveryDecisionRecord) {
    Program p = programs::tomcatv(12, 2);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    SimulationRequest req;
    req.profile = true;
    auto sim = c.simulate(req);
    const CalibrationReport cal = obs::buildCalibration(
        c.lowering(), TargetConfig{}.costModel, *sim, *sim->profile(),
        c.mappingPass().decisionLog());
    int decisionRows = 0;
    for (const CalibrationRow& r : cal.rows)
        if (r.kind == "decision") ++decisionRows;
    EXPECT_EQ(decisionRows,
              static_cast<int>(c.mappingPass().decisionLog().records().size()));
    EXPECT_EQ(cal.summary.decisions, decisionRows);
    EXPECT_GT(decisionRows, 0);
    // Every privatization decision in this program concerns statements
    // the run actually executed, so every decision row joins a measured
    // cost.
    for (const CalibrationRow& r : cal.rows) {
        if (r.kind == "decision") {
            EXPECT_TRUE(r.joined) << r.label;
        }
    }
}

TEST(Calibration, SummaryCountsAreConsistent) {
    const CalibrationReport cal = calibrationOf(makeTomcatv());
    EXPECT_EQ(cal.summary.rows, static_cast<int>(cal.rows.size()));
    int joined = 0;
    for (const CalibrationRow& r : cal.rows) joined += r.joined ? 1 : 0;
    EXPECT_EQ(cal.summary.joined, joined);
    EXPECT_LE(cal.summary.joined, cal.summary.rows);
    EXPECT_GE(cal.summary.mapeSecPct, 0.0);
    EXPECT_GT(cal.summary.rows, 0);
}

TEST(Calibration, ErrPctMatchesItsDefinition) {
    const CalibrationReport cal = calibrationOf(makeTomcatv());
    for (const CalibrationRow& r : cal.rows) {
        if (!r.joined) continue;
        EXPECT_NEAR(r.errPct,
                    std::abs(r.measuredSec - r.modeledSec) /
                        std::abs(r.modeledSec) * 100.0,
                    1e-9)
            << r.label;
    }
}

TEST(Calibration, WorstRowsAreSortedDescendingByError) {
    const CalibrationReport cal = calibrationOf(makeTomcatv());
    const std::vector<int> worst = cal.worstRows(5);
    ASSERT_FALSE(worst.empty());
    for (size_t i = 1; i < worst.size(); ++i)
        EXPECT_GE(cal.rows[static_cast<size_t>(worst[i - 1])].errPct,
                  cal.rows[static_cast<size_t>(worst[i])].errPct);
    for (const int idx : worst)
        EXPECT_TRUE(cal.rows[static_cast<size_t>(idx)].joined);
    // Asking for more rows than exist just returns them all.
    EXPECT_LE(cal.worstRows(10000).size(), cal.rows.size());
}

TEST(Calibration, EveryRowCarriesEvidence) {
    const CalibrationReport cal = calibrationOf(makeTomcatv());
    for (const CalibrationRow& r : cal.rows) {
        EXPECT_FALSE(r.evidence.empty()) << r.label;
        EXPECT_FALSE(r.label.empty());
        EXPECT_TRUE(r.kind == "stmt" || r.kind == "comm-op" ||
                    r.kind == "decision")
            << r.kind;
    }
}

TEST(Calibration, CoversStmtAndCommOpKinds) {
    const CalibrationReport cal = calibrationOf(makeTomcatv());
    std::set<std::string> kinds;
    for (const CalibrationRow& r : cal.rows) kinds.insert(r.kind);
    EXPECT_EQ(kinds.count("stmt"), 1u);
    EXPECT_EQ(kinds.count("comm-op"), 1u);
    EXPECT_EQ(kinds.count("decision"), 1u);
}

TEST(Calibration, ToJsonShapeAndWorstSection) {
    const CalibrationReport cal = calibrationOf(makeTomcatv());
    const Json j = cal.toJson(3);
    EXPECT_EQ(j.at("schema").stringValue(), "phpf.calibration");
    const Json& s = j.at("summary");
    EXPECT_EQ(s.at("rows").intValue(),
              static_cast<std::int64_t>(cal.rows.size()));
    EXPECT_NE(s.find("mape_sec_pct"), nullptr);
    EXPECT_NE(s.find("mape_events_pct"), nullptr);
    EXPECT_NE(s.find("mape_bytes_pct"), nullptr);
    EXPECT_NE(j.find("err_pct_quantiles"), nullptr);
    EXPECT_EQ(j.at("rows").size(), cal.rows.size());
    EXPECT_LE(j.at("worst").size(), 3u);
    double prev = 1e300;
    for (const Json& w : j.at("worst").items()) {
        EXPECT_LE(w.at("err_pct").numberValue(), prev);
        prev = w.at("err_pct").numberValue();
        EXPECT_FALSE(w.at("evidence").stringValue().empty());
    }
}

TEST(Calibration, ExportToRegistersModelErrorSeries) {
    const CalibrationReport cal = calibrationOf(makeTomcatv());
    MetricRegistry reg;
    cal.exportTo(reg);
    EXPECT_DOUBLE_EQ(reg.gauge("model_error.mape_sec_pct").value(),
                     cal.summary.mapeSecPct);
    EXPECT_EQ(reg.histogram("model_error.row_err_pct").count(),
              cal.summary.joined);
    const std::string text = obs::renderPrometheus(reg, "phpf");
    EXPECT_NE(text.find("phpf_model_error_mape_sec_pct"), std::string::npos);
    EXPECT_NE(text.find("phpf_model_error_mape_events_pct"),
              std::string::npos);
    EXPECT_NE(text.find("phpf_model_error_rows_joined"), std::string::npos);
    EXPECT_NE(text.find("phpf_model_error_row_err_pct"), std::string::npos);
}

// ---------------------------------------------------------------------
// Run report schema v3
// ---------------------------------------------------------------------

TEST(RunReportV3, ProfiledRunCarriesProfileAndCalibrationSections) {
    Program p = programs::tomcatv(12, 2);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    SimulationRequest req;
    req.profile = true;
    auto sim = c.simulate(req);
    const Json report = c.buildRunReport(sim.get());
    EXPECT_EQ(report.at("schema_version").intValue(), 4);
    ASSERT_NE(report.find("profile"), nullptr);
    ASSERT_NE(report.find("calibration"), nullptr);
    EXPECT_GT(report.at("profile").at("stmts").size(), 0u);
    // The calibration joins the decision log that is in the same
    // report: one decision row per record.
    const Json& cs = report.at("calibration").at("summary");
    EXPECT_EQ(static_cast<size_t>(cs.at("decisions").intValue()),
              report.at("decisions").size());
}

TEST(RunReportV3, UnprofiledRunOmitsTheSections) {
    Program p = programs::fig1(16);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    auto sim = c.simulate(SimulationRequest{});
    const Json report = c.buildRunReport(sim.get());
    EXPECT_EQ(report.at("schema_version").intValue(), 4);
    EXPECT_EQ(report.find("profile"), nullptr);
    EXPECT_EQ(report.find("calibration"), nullptr);
}

// ---------------------------------------------------------------------
// Service: profiled artifacts, cold/warm identity, key separation
// ---------------------------------------------------------------------

service::CompileRequest profiledRequest(bool profile) {
    service::CompileRequest req;
    req.name = "tomcatv-prof";
    req.build = [] { return programs::tomcatv(12, 2); };
    req.target.gridExtents = {4};
    req.profile = profile;
    return req;
}

TEST(ServiceProfile, ColdAndWarmHitsReplayIdenticalCalibration) {
    service::CompileService svc;
    const service::CompileResult cold = svc.compile(profiledRequest(true));
    ASSERT_EQ(cold.status, service::CompileStatus::Ok);
    ASSERT_NE(cold.artifact, nullptr);
    EXPECT_FALSE(cold.cacheHit);
    EXPECT_TRUE(cold.artifact->profiled);

    const service::CompileResult warm = svc.compile(profiledRequest(true));
    ASSERT_EQ(warm.status, service::CompileStatus::Ok);
    EXPECT_TRUE(warm.cacheHit);
    ASSERT_TRUE(warm.artifact->profiled);
    EXPECT_EQ(warm.artifact->calibration.dump(-1),
              cold.artifact->calibration.dump(-1));
    EXPECT_EQ(warm.artifact->profile.dump(-1),
              cold.artifact->profile.dump(-1));
    EXPECT_EQ(warm.artifact->runReport.at("calibration").dump(-1),
              cold.artifact->calibration.dump(-1));
}

TEST(ServiceProfile, ProfiledAndPlainRequestsAreDistinctCacheEntries) {
    service::CompileService svc;
    const service::CompileResult plain = svc.compile(profiledRequest(false));
    ASSERT_EQ(plain.status, service::CompileStatus::Ok);
    EXPECT_FALSE(plain.artifact->profiled);
    EXPECT_EQ(plain.artifact->runReport.find("profile"), nullptr);

    // Same program + options, profile on: must MISS (different key),
    // not reuse the unprofiled artifact.
    const service::CompileResult prof = svc.compile(profiledRequest(true));
    ASSERT_EQ(prof.status, service::CompileStatus::Ok);
    EXPECT_FALSE(prof.cacheHit);
    EXPECT_NE(prof.key, plain.key);
    EXPECT_TRUE(prof.artifact->profiled);
    EXPECT_NE(prof.artifact->runReport.find("profile"), nullptr);
}

// ---------------------------------------------------------------------
// Batch: v3 rows + calibration summary, resume keeps journaled MAPEs
// ---------------------------------------------------------------------

service::BatchSpec profiledBatchSpec() {
    service::BatchSpec spec;
    service::BatchJob a;
    a.name = "fig1-prof";
    a.program = "fig1";
    a.n = 24;
    a.profile = true;
    service::BatchJob b;
    b.name = "dgefa-plain";
    b.program = "dgefa";
    b.n = 12;
    spec.jobs = {a, b};
    return spec;
}

std::vector<Json> batchRows(const std::string& text) {
    std::vector<Json> rows;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        std::string err;
        Json j = Json::parse(line, &err);
        EXPECT_TRUE(err.empty()) << err << " in: " << line;
        rows.push_back(std::move(j));
    }
    return rows;
}

TEST(BatchProfile, RowsAndSummaryCarryCalibration) {
    service::CompileService svc;
    std::ostringstream out;
    const service::BatchOutcome outcome =
        service::runBatch(svc, profiledBatchSpec(), out);
    EXPECT_EQ(outcome.ok, 2);
    const std::vector<Json> rows = batchRows(out.str());
    ASSERT_EQ(rows.size(), 3u);  // 2 jobs + summary

    const Json& prof = rows[0];
    EXPECT_EQ(prof.at("job").stringValue(), "fig1-prof");
    ASSERT_NE(prof.find("calibration"), nullptr);
    EXPECT_GE(prof.at("calibration").at("mape_sec_pct").numberValue(), 0.0);
    EXPECT_GT(prof.at("calibration").at("rows").intValue(), 0);

    const Json& plain = rows[1];
    EXPECT_EQ(plain.find("calibration"), nullptr);

    const Json& summary = rows[2];
    EXPECT_EQ(summary.at("schema_version").intValue(), 3);
    ASSERT_NE(summary.find("calibration"), nullptr);
    const Json& cal = summary.at("calibration");
    EXPECT_EQ(cal.at("jobs_profiled").intValue(), 1);
    ASSERT_EQ(cal.at("per_job").size(), 1u);
    EXPECT_EQ(cal.at("per_job").items().front().at("job").stringValue(),
              "fig1-prof");
    EXPECT_NEAR(cal.at("mean_mape_sec_pct").numberValue(),
                prof.at("calibration").at("mape_sec_pct").numberValue(),
                1e-9);
}

TEST(BatchProfile, ResumeKeepsJournaledCalibrationInTheSummary) {
    const std::string journal = "test_profiler_batch_journal.jsonl";
    std::remove(journal.c_str());
    double firstMape = -1.0;
    {
        service::CompileService svc;
        std::ostringstream out;
        service::BatchRunOptions opts;
        opts.journalPath = journal;
        const service::BatchOutcome outcome =
            service::runBatch(svc, profiledBatchSpec(), out, opts);
        ASSERT_EQ(outcome.ok, 2);
        firstMape = batchRows(out.str())[0]
                        .at("calibration")
                        .at("mape_sec_pct")
                        .numberValue();
    }
    // Second run resumes: both jobs are journaled, so nothing recompiles
    // — yet the summary still reports the profiled job's MAPE, read
    // back from the journal.
    service::CompileService svc;
    std::ostringstream out;
    service::BatchRunOptions opts;
    opts.journalPath = journal;
    opts.resume = true;
    const service::BatchOutcome outcome =
        service::runBatch(svc, profiledBatchSpec(), out, opts);
    EXPECT_EQ(outcome.skipped, 2);
    const std::vector<Json> rows = batchRows(out.str());
    const Json& summary = rows.back();
    ASSERT_NE(summary.find("calibration"), nullptr);
    const Json& cal = summary.at("calibration");
    EXPECT_EQ(cal.at("jobs_profiled").intValue(), 1);
    EXPECT_NEAR(cal.at("mean_mape_sec_pct").numberValue(), firstMape, 1e-9);
    std::remove(journal.c_str());
}

TEST(BatchProfile, JobsFileProfileFieldParses) {
    const char* doc = R"({"jobs": [
        {"program": "fig1", "n": 16, "profile": true},
        {"program": "fig1", "n": 16}
    ]})";
    std::string err;
    const Json j = Json::parse(doc, &err);
    ASSERT_TRUE(err.empty()) << err;
    service::BatchSpec spec;
    ASSERT_TRUE(service::parseBatchSpec(j, &spec, &err)) << err;
    ASSERT_EQ(spec.jobs.size(), 2u);
    EXPECT_TRUE(spec.jobs[0].profile);
    EXPECT_FALSE(spec.jobs[1].profile);
}

// ---------------------------------------------------------------------
// Satellite: histogram quantile edge cases
// ---------------------------------------------------------------------

TEST(HistogramEdge, EmptyHistogramQuantilesAreZeroNotGarbage) {
    Histogram h;
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
    EXPECT_DOUBLE_EQ(h.p50(), 0.0);
    EXPECT_DOUBLE_EQ(h.p90(), 0.0);
    EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(HistogramEdge, SingleSampleCollapsesEveryQuantileToIt) {
    Histogram h;
    h.record(37.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 37.5);
    EXPECT_DOUBLE_EQ(h.p50(), 37.5);
    EXPECT_DOUBLE_EQ(h.p99(), 37.5);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 37.5);
}

TEST(HistogramEdge, OutOfRangeQuantileIsClamped) {
    Histogram h;
    h.record(1.0);
    h.record(100.0);
    EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.quantile(0.0));
    EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

// ---------------------------------------------------------------------
// Satellite: JSON escaping of control characters in trace exports
// ---------------------------------------------------------------------

TEST(TraceEscaping, JsonEscapeHandlesEveryControlChar) {
    EXPECT_EQ(obs::jsonEscape("\n\t\r"), "\\n\\t\\r");
    EXPECT_EQ(obs::jsonEscape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(obs::jsonEscape(std::string(1, '\x1f')), "\\u001f");
    EXPECT_EQ(obs::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(TraceEscaping, ChromeTraceWithControlCharNamesStaysParseable) {
    obs::Tracer t;
    t.end(t.begin("pass\nwith\x01newline", "pass"));
    const Json doc = obs::buildChromeTrace(t, "proc\tname\x02");
    const std::string text = doc.dump(-1);  // compact: no format newlines
    // A raw control char in the output would make it invalid JSON.
    for (const char c : text)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control char";
    std::string err;
    const Json back = Json::parse(text, &err);
    ASSERT_TRUE(err.empty()) << err;
    bool sawSpan = false;
    for (const Json& e : back.at("traceEvents").items())
        if (e.at("name").stringValue() == "pass\nwith\x01newline")
            sawSpan = true;
    EXPECT_TRUE(sawSpan);  // escaped on the way out, restored on parse
}

}  // namespace
}  // namespace phpf
