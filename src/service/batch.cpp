#include "service/batch.h"

#include <chrono>
#include <fstream>
#include <future>
#include <ostream>
#include <set>
#include <sstream>

#include "obs/flight_recorder.h"
#include "programs/programs.h"

namespace phpf::service {

namespace {

std::int64_t orDefault(std::int64_t v, std::int64_t dflt) {
    return v > 0 ? v : dflt;
}

/// Builtin kernels at smoke-friendly default sizes; every parameter can
/// be overridden per job.
bool builtinBuilder(const BatchJob& job, std::function<Program()>* out,
                    std::string* err) {
    const std::string& p = job.program;
    const std::int64_t n = job.n, niter = job.niter;
    const std::int64_t nx = job.nx, ny = job.ny, nz = job.nz;
    if (p == "fig1")
        *out = [n] { return programs::fig1(orDefault(n, 32)); };
    else if (p == "fig2")
        *out = [n] { return programs::fig2(orDefault(n, 32)); };
    else if (p == "fig4")
        *out = [n] { return programs::fig4(orDefault(n, 32)); };
    else if (p == "fig5")
        *out = [n] { return programs::fig5(orDefault(n, 16)); };
    else if (p == "fig6")
        *out = [nx, ny, nz] {
            return programs::fig6(orDefault(nx, 8), orDefault(ny, 8),
                                  orDefault(nz, 8));
        };
    else if (p == "fig7")
        *out = [n] { return programs::fig7(orDefault(n, 32)); };
    else if (p == "tomcatv")
        *out = [n, niter] {
            return programs::tomcatv(orDefault(n, 64), orDefault(niter, 2));
        };
    else if (p == "dgefa")
        *out = [n] { return programs::dgefa(orDefault(n, 16)); };
    else if (p == "appsp")
        *out = [nx, ny, nz, niter] {
            return programs::appsp(orDefault(nx, 8), orDefault(ny, 8),
                                   orDefault(nz, 8), orDefault(niter, 2),
                                   /*oneD=*/true);
        };
    else if (p == "appsp2d")
        *out = [nx, ny, nz, niter] {
            return programs::appsp(orDefault(nx, 8), orDefault(ny, 8),
                                   orDefault(nz, 8), orDefault(niter, 2),
                                   /*oneD=*/false);
        };
    else if (p == "adi")
        *out = [n, niter] {
            return programs::adi(orDefault(n, 16), orDefault(niter, 2));
        };
    else {
        if (err != nullptr) *err = "unknown builtin program '" + p + "'";
        return false;
    }
    return true;
}

bool parseOptions(const obs::Json& o, BatchJob* job, std::string* err) {
    for (const std::string& key : o.keys()) {
        const obs::Json& v = o.at(key);
        MappingOptions& m = job->passes.mapping;
        if (key == "privatization") m.privatization = v.boolValue();
        else if (key == "align_policy") {
            if (v.stringValue() == "selected")
                m.alignPolicy = MappingOptions::AlignPolicy::Selected;
            else if (v.stringValue() == "producer-only")
                m.alignPolicy = MappingOptions::AlignPolicy::ProducerOnly;
            else {
                *err = "bad align_policy '" + v.stringValue() + "'";
                return false;
            }
        } else if (key == "reduction_alignment")
            m.reductionAlignment = v.boolValue();
        else if (key == "array_privatization")
            m.arrayPrivatization = v.boolValue();
        else if (key == "partial_privatization")
            m.partialPrivatization = v.boolValue();
        else if (key == "auto_array_privatization")
            m.autoArrayPrivatization = v.boolValue();
        else if (key == "control_flow_privatization")
            m.controlFlowPrivatization = v.boolValue();
        else if (key == "rewrite_induction")
            job->passes.rewriteInduction = v.boolValue();
        else if (key == "elem_bytes")
            job->target.costModel.elemBytes = static_cast<int>(v.intValue());
        else if (key == "combine_messages")
            job->target.costModel.combineMessages = v.boolValue();
        else if (key == "relaxed_merge")
            job->passes.relaxedMerge = v.boolValue();
        else if (key == "target") {
            if (!parseTargetKind(v.stringValue(),
                                 &job->target.targetKind)) {
                *err = "bad target '" + v.stringValue() + "' (want mp|shm)";
                return false;
            }
        } else {
            *err = "unknown option '" + key + "'";
            return false;
        }
    }
    return true;
}

}  // namespace

bool parseBatchJob(const obs::Json& j, int index, BatchJob* job,
                   std::string* err) {
    if (!j.isObject()) {
        *err = "job " + std::to_string(index) + " is not an object";
        return false;
    }
    if (const obs::Json* v = j.find("name")) job->name = v->stringValue();
    if (const obs::Json* v = j.find("program")) job->program = v->stringValue();
    if (const obs::Json* v = j.find("file")) job->file = v->stringValue();
    if (const obs::Json* v = j.find("source")) job->source = v->stringValue();
    if (const obs::Json* v = j.find("n")) job->n = v->intValue();
    if (const obs::Json* v = j.find("niter")) job->niter = v->intValue();
    if (const obs::Json* v = j.find("nx")) job->nx = v->intValue();
    if (const obs::Json* v = j.find("ny")) job->ny = v->intValue();
    if (const obs::Json* v = j.find("nz")) job->nz = v->intValue();
    if (const obs::Json* v = j.find("deadline_ms"))
        job->deadlineMs = v->intValue();
    if (const obs::Json* v = j.find("profile")) job->profile = v->boolValue();
    if (const obs::Json* v = j.find("grid")) {
        if (!v->isArray() || v->size() == 0) {
            *err = "job " + std::to_string(index) + ": grid must be a "
                   "nonempty array";
            return false;
        }
        job->target.gridExtents.clear();
        for (const obs::Json& e : v->items())
            job->target.gridExtents.push_back(static_cast<int>(e.intValue()));
    }
    if (const obs::Json* v = j.find("options")) {
        if (!v->isObject()) {
            *err = "job " + std::to_string(index) + ": options must be an "
                   "object";
            return false;
        }
        std::string oerr;
        if (!parseOptions(*v, job, &oerr)) {
            *err = "job " + std::to_string(index) + ": " + oerr;
            return false;
        }
    }
    const int sources = (job->program.empty() ? 0 : 1) +
                        (job->file.empty() ? 0 : 1) +
                        (job->source.empty() ? 0 : 1);
    if (sources != 1) {
        *err = "job " + std::to_string(index) +
               ": exactly one of program/file/source required";
        return false;
    }
    if (job->name.empty()) {
        std::ostringstream name;
        if (!job->program.empty()) name << job->program;
        else if (!job->file.empty()) name << job->file;
        else name << "inline";
        name << "/grid=";
        for (size_t i = 0; i < job->target.gridExtents.size(); ++i)
            name << (i > 0 ? "x" : "") << job->target.gridExtents[i];
        name << "#" << index;
        job->name = name.str();
    }
    return true;
}

obs::Json batchJobToJson(const BatchJob& job, bool resolveFiles) {
    obs::Json j = obs::Json::object();
    if (!job.name.empty()) j.set("name", job.name);
    if (!job.program.empty()) j.set("program", job.program);
    if (!job.source.empty()) {
        j.set("source", job.source);
    } else if (!job.file.empty()) {
        if (resolveFiles) {
            std::ifstream in(job.file);
            std::stringstream buf;
            buf << in.rdbuf();
            if (in && !buf.str().empty()) {
                j.set("source", buf.str());
            } else {
                // Unreadable here: emit the path unresolved so the
                // consumer's error names the file instead of a
                // baffling empty-source schema violation.
                j.set("file", job.file);
            }
        } else {
            j.set("file", job.file);
        }
    }
    if (job.n > 0) j.set("n", job.n);
    if (job.niter > 0) j.set("niter", job.niter);
    if (job.nx > 0) j.set("nx", job.nx);
    if (job.ny > 0) j.set("ny", job.ny);
    if (job.nz > 0) j.set("nz", job.nz);
    if (job.deadlineMs > 0) j.set("deadline_ms", job.deadlineMs);
    if (job.profile) j.set("profile", true);
    obs::Json grid = obs::Json::array();
    for (int e : job.target.gridExtents) grid.push(e);
    j.set("grid", std::move(grid));
    // Every option explicitly, defaults included: a wire request's
    // meaning must not depend on sender and receiver agreeing on
    // defaults (the keys are exactly parseOptions' vocabulary).
    const MappingOptions& m = job.passes.mapping;
    obs::Json o = obs::Json::object();
    o.set("privatization", m.privatization);
    o.set("align_policy",
          m.alignPolicy == MappingOptions::AlignPolicy::Selected
              ? "selected"
              : "producer-only");
    o.set("reduction_alignment", m.reductionAlignment);
    o.set("array_privatization", m.arrayPrivatization);
    o.set("partial_privatization", m.partialPrivatization);
    o.set("auto_array_privatization", m.autoArrayPrivatization);
    o.set("control_flow_privatization", m.controlFlowPrivatization);
    o.set("rewrite_induction", job.passes.rewriteInduction);
    o.set("elem_bytes", job.target.costModel.elemBytes);
    o.set("combine_messages", job.target.costModel.combineMessages);
    o.set("relaxed_merge", job.passes.relaxedMerge);
    o.set("target", targetKindName(job.target.targetKind));
    j.set("options", std::move(o));
    return j;
}

const std::vector<std::string>& builtinProgramNames() {
    static const std::vector<std::string> names = {
        "fig1", "fig2",  "fig4",    "fig5", "fig6", "fig7",
        "adi",  "dgefa", "tomcatv", "appsp", "appsp2d"};
    return names;
}

bool parseBatchSpec(const obs::Json& doc, BatchSpec* out, std::string* err) {
    const obs::Json* jobs = nullptr;
    if (doc.isArray()) jobs = &doc;
    else if (doc.isObject()) jobs = doc.find("jobs");
    if (jobs == nullptr || !jobs->isArray()) {
        *err = "expected {\"jobs\": [...]} or a bare array of jobs";
        return false;
    }
    // "repeat" duplicates a row N times — handy for cache/coalescing
    // smoke tests without copy-pasting job objects.
    int index = 0;
    for (const obs::Json& j : jobs->items()) {
        std::int64_t repeat = 1;
        if (j.isObject()) {
            if (const obs::Json* v = j.find("repeat")) repeat = v->intValue();
        }
        if (repeat < 1) repeat = 1;
        for (std::int64_t rep = 0; rep < repeat; ++rep) {
            BatchJob job;
            if (!parseBatchJob(j, index, &job, err)) return false;
            if (repeat > 1 && rep > 0)
                job.name += "~rep" + std::to_string(rep);
            out->jobs.push_back(std::move(job));
            ++index;
        }
    }
    if (out->jobs.empty()) {
        *err = "jobs file contains no jobs";
        return false;
    }
    return true;
}

bool loadBatchFile(const std::string& path, BatchSpec* out, std::string* err) {
    std::ifstream in(path);
    if (!in) {
        *err = "cannot open " + path;
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string perr;
    const obs::Json doc = obs::Json::parse(buf.str(), &perr);
    if (!perr.empty()) {
        *err = path + ": " + perr;
        return false;
    }
    return parseBatchSpec(doc, out, err);
}

bool requestOfJob(const BatchJob& job, CompileRequest* out, std::string* err) {
    out->name = job.name;
    out->target = job.target;
    out->passes = job.passes;
    out->deadlineMs = job.deadlineMs;
    out->profile = job.profile;
    if (!job.source.empty()) {
        out->source = job.source;
    } else if (!job.file.empty()) {
        std::ifstream in(job.file);
        if (!in) {
            *err = "cannot open " + job.file;
            return false;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        out->source = buf.str();
        if (out->source.empty()) {
            *err = job.file + " is empty";
            return false;
        }
    } else {
        if (!builtinBuilder(job, &out->build, err)) return false;
    }
    return true;
}

BatchOutcome runBatch(CompileService& svc, const BatchSpec& spec,
                      std::ostream& out, const BatchRunOptions& opts) {
    const auto t0 = std::chrono::steady_clock::now();
    BatchOutcome outcome;
    outcome.jobs = static_cast<int>(spec.jobs.size());

    // Resume: collect the names already journaled by a previous
    // (possibly killed) run. A torn final line — the crash happened
    // mid-write — fails to parse and is simply not counted as done.
    std::set<std::string> done;
    // Per-job model-error MAPE for the summary's calibration section:
    // filled from live profiled rows and — on resume — from journaled
    // rows, so skipped jobs keep their profile data in the summary.
    std::map<std::string, double> mapeByJob;
    if (opts.resume && !opts.journalPath.empty()) {
        std::ifstream in(opts.journalPath);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty()) continue;
            std::string perr;
            const obs::Json row = obs::Json::parse(line, &perr);
            if (!perr.empty() || !row.isObject()) continue;
            if (row.find("summary") != nullptr) continue;
            if (const obs::Json* v = row.find("job")) {
                done.insert(v->stringValue());
                if (const obs::Json* cal = row.find("calibration"))
                    if (const obs::Json* m = cal->find("mape_sec_pct"))
                        mapeByJob[v->stringValue()] = m->numberValue();
            }
        }
    }
    std::ofstream journal;
    if (!opts.journalPath.empty())
        journal.open(opts.journalPath, std::ios::app);

    const FaultInjector* finj = opts.faults != nullptr
                                    ? opts.faults
                                    : FaultInjector::processIfEnabled();
    FaultSite* abortSite =
        finj != nullptr ? finj->find(faultsite::kBatchAbort) : nullptr;

    struct Pending {
        const BatchJob* job;
        std::shared_future<CompileResult> fut;
        std::string error;  ///< request construction failure
        bool skipped = false;
    };
    std::vector<Pending> pending;
    pending.reserve(spec.jobs.size());
    for (const BatchJob& job : spec.jobs) {
        Pending p;
        p.job = &job;
        if (done.count(job.name) != 0) {
            p.skipped = true;
            ++outcome.skipped;
        } else {
            CompileRequest req;
            std::string err;
            if (requestOfJob(job, &req, &err))
                p.fut = svc.submit(std::move(req));
            else
                p.error = std::move(err);
        }
        pending.push_back(std::move(p));
    }

    const auto emit = [&](const obs::Json& row) {
        out << row.dump(-1) << "\n";
        if (journal.is_open()) {
            // Append + flush per row: everything this run completed
            // survives a kill at any point.
            journal << row.dump(-1) << "\n";
            journal.flush();
        }
    };

    for (const Pending& p : pending) {
        if (p.skipped) continue;
        obs::Json row = obs::Json::object();
        row.set("job", p.job->name);
        obs::Json grid = obs::Json::array();
        for (int e : p.job->target.gridExtents) grid.push(e);
        row.set("grid", std::move(grid));
        if (!p.error.empty()) {
            row.set("status", "bad-request");
            row.set("code", errorCodeName(ErrorCode::EmptyRequest));
            row.set("error", p.error);
            ++outcome.failed;
            emit(row);
            continue;
        }
        const CompileResult r = p.fut.get();
        row.set("status", statusName(r.status));
        row.set("code", errorCodeName(r.code));
        row.set("cache_hit", r.cacheHit);
        row.set("coalesced", r.coalesced);
        if (r.retries > 0) row.set("retries", r.retries);
        row.set("parse_us", r.parseUs);
        row.set("compile_us", r.compileUs);
        row.set("total_us", r.totalUs);
        if (r.status == CompileStatus::Ok) {
            ++outcome.ok;
            if (r.cacheHit) ++outcome.cacheHits;
            if (r.coalesced) ++outcome.coalesced;
            row.set("program", r.artifact->programName);
            row.set("cost_total_sec", r.artifact->cost.totalSec());
            row.set("cost_compute_sec", r.artifact->cost.computeSec);
            row.set("cost_comm_sec", r.artifact->cost.commSec);
            row.set("message_events", r.artifact->cost.messageEvents);
            row.set("comm_bytes", r.artifact->cost.commBytes);
            row.set("decisions",
                    static_cast<std::int64_t>(
                        r.artifact->runReport.at("decisions").size()));
            row.set("comm_ops",
                    static_cast<std::int64_t>(
                        r.artifact->runReport.at("comm_ops").size()));
            if (r.artifact->profiled) {
                // Cached with the artifact, so warm hits replay the
                // identical calibration the cold compile produced.
                const obs::Json& cs = r.artifact->calibration.at("summary");
                obs::Json cal = obs::Json::object();
                cal.set("mape_sec_pct", cs.at("mape_sec_pct").numberValue());
                cal.set("mape_events_pct",
                        cs.at("mape_events_pct").numberValue());
                cal.set("rows", cs.at("rows").intValue());
                cal.set("joined", cs.at("joined").intValue());
                row.set("calibration", std::move(cal));
                mapeByJob[p.job->name] =
                    cs.at("mape_sec_pct").numberValue();
            }
        } else {
            ++outcome.failed;
            row.set("error", r.error);
            obs::FlightRecorder::global().record(
                "batch.job_fail",
                p.job->name + " " + statusName(r.status));
            if (!opts.flightRecorderPath.empty())
                obs::FlightRecorder::global().dumpJsonl(
                    opts.flightRecorderPath);
        }
        emit(row);
        // Simulated kill of the batch runner: stop right after a row
        // hit the journal — no summary, later jobs never awaited. The
        // deterministic stand-in for SIGKILL that the resume tests and
        // the CI round-trip drive.
        if (FaultInjector::poll(abortSite)) {
            outcome.aborted = true;
            obs::FlightRecorder::global().record("batch.abort",
                                                 "after " + p.job->name);
            if (!opts.flightRecorderPath.empty())
                obs::FlightRecorder::global().dumpJsonl(
                    opts.flightRecorderPath);
            break;
        }
    }

    outcome.wallSec =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()) /
        1e6;
    if (outcome.aborted) return outcome;

    obs::Json summary = obs::Json::object();
    summary.set("summary", true);
    summary.set("schema", "phpf.batch_report");
    // v2: the embedded service registry's histograms gained
    // p50/p90/p99 quantile estimates.
    // v3: profiled jobs carry a per-row "calibration" object and the
    // summary aggregates their model-error MAPE (journaled rows of a
    // resumed run included).
    summary.set("schema_version", 3);
    summary.set("jobs", outcome.jobs);
    summary.set("ok", outcome.ok);
    summary.set("failed", outcome.failed);
    summary.set("cache_hits", outcome.cacheHits);
    summary.set("coalesced_joins", outcome.coalesced);
    summary.set("skipped", outcome.skipped);
    summary.set("wall_sec", outcome.wallSec);
    if (!mapeByJob.empty()) {
        obs::Json cal = obs::Json::object();
        cal.set("jobs_profiled",
                static_cast<std::int64_t>(mapeByJob.size()));
        double sum = 0.0;
        obs::Json perJob = obs::Json::array();
        // Input order, not map order, so the summary reads like the
        // batch.
        for (const BatchJob& job : spec.jobs) {
            const auto it = mapeByJob.find(job.name);
            if (it == mapeByJob.end()) continue;
            sum += it->second;
            obs::Json pj = obs::Json::object();
            pj.set("job", job.name);
            pj.set("mape_sec_pct", it->second);
            perJob.push(std::move(pj));
        }
        cal.set("mean_mape_sec_pct",
                sum / static_cast<double>(mapeByJob.size()));
        cal.set("per_job", std::move(perJob));
        summary.set("calibration", std::move(cal));
    }
    summary.set("service", svc.metricsJson());
    out << summary.dump(-1) << "\n";
    return outcome;
}

}  // namespace phpf::service
