#include <sched.h>

#include <chrono>
#include <map>
#include <cstdio>
#include <optional>

#include "frontend/parser.h"
#include "layers.h"
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

/// The clock the sim workloads' end-to-end times are read on: CPU time
/// of the client thread, plus the wall time it spends blocked on the
/// compile service, whose worker does that part of the job. All other
/// work of a job runs on the client thread (the lockstep pool's caller
/// is its worker 0 and spins through each barrier), so on a quiet host
/// this reads within a few percent of the wall clock. Unlike the wall
/// clock it leaves out the time the hypervisor takes the vCPU away,
/// which on a shared host comes and goes for minutes at a time and
/// moved whole runs' wall-clock medians by a third.
class RunClock {
public:
    RunClock() : cpu0_(threadCpuSec()) {}
    [[nodiscard]] double sec() const { return threadCpuSec() - cpu0_ + waitedSec_; }
    /// Call `fn`, counting its wall time instead of the thread's CPU time.
    template <typename F>
    void blockedOn(F&& fn) {
        const double cpu = threadCpuSec();
        const Clock::time_point t0 = Clock::now();
        fn();
        waitedSec_ += secondsSince(t0) - (threadCpuSec() - cpu);
    }

private:
    double cpu0_;
    double waitedSec_ = 0;
};

// Set-up runs this many times: once before the timed loop and the rest
// between jobs, spread evenly over the timed window. One set-up costs
// about one job, and the host's speed drifts for seconds at a time, so
// back-to-back repetitions would all land in the same drift; spread
// out, their median samples the host across the run as the job
// metrics do.
constexpr int kSetupReps = 15;
// Job-list cycles generated up front; a run wraps around if it needs
// more (none does: a job takes tens of milliseconds).
constexpr int kOrderCycles = 4096;

/// The process's CPU mask, read once.
const cpu_set_t& processCpus() {
    static const cpu_set_t all = [] {
        cpu_set_t m;
        CPU_ZERO(&m);
        if (sched_getaffinity(0, sizeof m, &m) != 0) CPU_ZERO(&m);
        return m;
    }();
    return all;
}

/// Restrict the calling thread to `cpu`; the kernel moves it there at
/// once. A no-op for `cpu` < 0.
void pinTo(int cpu) {
    if (cpu < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
}

/// Give the calling thread the process's full mask again. It stays on
/// the CPU it is running on, so this never moves it.
void unpin() {
    if (CPU_COUNT(&processCpus()) > 0) sched_setaffinity(0, sizeof(cpu_set_t), &processCpus());
}

/// Everything one job produced. Members are destroyed in reverse
/// order: the report and the simulator before the compile result whose
/// artifact owns the compilation they point into.
struct JobState {
    CompileResult compiled;
    phpf::CostBreakdown mp, shm;
    std::unique_ptr<phpf::SpmdSimulator> sim;
    phpf::obs::Json report;
};

/// One job, as `phpfc --builtin=<kernel> --procs 16 --report` does it
/// in-process, except that the program reaches the compiler as printed
/// source through the run's CompileService. Returns false when
/// compilation did not return Ok. The caller has pinned the thread to
/// `cpu` (-1: not pinned).
///
/// The job first frees the previous job's state, so each job's time
/// includes one job's teardown (simulator, run report) while the
/// previous job's output checks, which need that state, stay untimed.
/// The wait on the service is counted on `clock`.
bool runJob(CompileService& svc, const CompileRequest& req, const SimInput& input,
            int threads, int cpu, SpanRecorder* rec, std::int64_t job,
            std::optional<JobState>* state, RunClock* clock) {
    ScopedSpan root(rec, kJobSpan, job);
    {
        ScopedSpan s(rec, "runtime.teardown", job);
        state->reset();
    }
    JobState& st = state->emplace();
    {
        ScopedSpan s(rec, "service.submit", job);
        clock->blockedOn([&] { st.compiled = svc.submit(req).get(); });
    }
    if (st.compiled.status != phpf::service::CompileStatus::Ok ||
        st.compiled.artifact == nullptr)
        return false;
    const phpf::Compilation& c = *st.compiled.artifact->compilation;
    {
        ScopedSpan s(rec, "target.predict", job);
        st.mp = c.predictCostFor(phpf::TargetKind::MessagePassing);
    }
    {
        ScopedSpan s(rec, "target.predict", job);
        st.shm = c.predictCostFor(phpf::TargetKind::SharedMemory);
    }
    // The lockstep workers inherit the affinity of the thread that
    // builds the simulator and must keep every CPU; releasing and
    // re-pinning the thread where it already runs does not move it.
    unpin();
    st.sim = buildSimulator(c, threads, rec, job);
    pinTo(cpu);
    seedAndRun(*st.sim, c, input, rec, job);
    ScopedSpan s(rec, "obs.run_report", job);
    st.report = c.buildRunReport(st.sim.get());
    return true;
}

/// What set-up produces.
struct Setup {
    CompileRequest request;  ///< the workload's program as printed source
    std::vector<SimInput> inputs;
    std::unique_ptr<CompileService> svc;  ///< the measured service, cache empty
};

/// Print the program, make the seeded input variants, warm the process
/// up with one job on a throwaway service (so the measured service's
/// cache starts empty), and construct the measured service. Returns
/// false when the warm-up job failed.
bool setUp(const RunConfig& cfg, const SimWorkloadSpec& spec, Setup* out, RunClock* clock) {
    const phpf::Program shape = spec.build();
    out->request.name = spec.name;
    out->request.source = printedSource(shape);
    out->request.target.gridExtents = spec.grid;
    Rng rng(cfg.seed);
    out->inputs.clear();
    for (int v = 0; v < kSimVariants; ++v) out->inputs.push_back(spec.makeInput(shape, rng));
    phpf::service::ServiceConfig sc;
    sc.workers = cfg.threads;
    bool ok = false;
    {
        CompileService warm(sc);
        std::optional<JobState> st;
        ok = runJob(warm, out->request, out->inputs[0], cfg.threads, -1, nullptr, -1, &st,
                    clock);
    }
    out->svc = std::make_unique<CompileService>(sc);
    return ok;
}

/// Parse the request's source and run the pipeline stage by stage,
/// under a "replay" root span: the per-stage layer times of a traced
/// job, whose own compile ran inside the service.
bool replayCompile(const CompileRequest& req, SpanRecorder* rec, std::int64_t job) {
    ScopedSpan root(rec, "replay", job);
    phpf::DiagEngine diags;
    phpf::Program prog = [&] {
        ScopedSpan s(rec, "frontend.parse", job);
        phpf::Parser parser(req.source, diags);
        return parser.parse();
    }();
    return !diags.hasErrors() &&
           compileStaged(prog, req.target, req.passes, rec, job).has_value();
}

}  // namespace

RunResult runSimWorkload(const RunConfig& cfg, const SimWorkloadSpec& spec) {
    RunResult r;
    SpanRecorder rec(false);

    // --- set-up (first repetition) ----------------------------------------
    std::vector<double> setupSec;
    Setup setup;
    LatencyProbe probe;
    {
        RunClock clock;
        const bool ok = setUp(cfg, spec, &setup, &clock);
        setupSec.push_back(clock.sec());
        if (!ok) {
            r.fail("warm-up compilation did not return Ok");
            return r;
        }
    }
    CompileService& svc = *setup.svc;
    const std::vector<int> order = simJobOrder(cfg.seed, kOrderCycles);
    // The vCPUs of a shared host each run at their own speed for minutes
    // at a time (DGEFA jobs pinned to one vCPU took ~40 ms on two of
    // four and ~60 ms on the others). A client thread left alone stays
    // on one vCPU, so a run would measure whichever it landed on. Each
    // job therefore runs pinned to the next allowed vCPU. The move
    // happens before the job's clock starts, and the thread is released
    // again before the untimed checks.
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &processCpus())) cpus.push_back(c);

    // --- measured closed loop ------------------------------------------
    std::vector<double> jobMs, wallMs, probeMs, tracedMs, untracedMs;
    std::map<int, std::vector<double>> msOnCpu;
    std::vector<std::optional<SimCounts>> reference(kSimVariants);
    std::vector<double> execUs, nsPerStmt, imbalance, busyRatio, speedup;
    double decisions = 0, commOps = 0;
    std::string key;
    ServiceTally tally;
    std::optional<JobState> state;
    const std::int64_t steal0 = stealTicks();
    const Clock::time_point start = Clock::now();
    for (std::int64_t job = 0; secondsSince(start) < cfg.seconds; ++job) {
        // Teardown of the previous job done outside runJob(), added to
        // this job's time.
        double carriedMs = 0, carriedWallMs = 0;
        const auto rep = static_cast<int>(setupSec.size());
        if (rep < kSetupReps && secondsSince(start) >= cfg.seconds * rep / kSetupReps) {
            // Free the previous job first, so a repetition never runs
            // beside a live job and peak memory stays that of one job.
            const RunClock td;
            const Clock::time_point tw = Clock::now();
            state.reset();
            carriedMs = td.sec() * 1e3;
            carriedWallMs = secondsSince(tw) * 1e3;
            Setup again;
            RunClock clock;
            if (!setUp(cfg, spec, &again, &clock)) r.fail("set-up repetition failed");
            setupSec.push_back(clock.sec());
        }  // its unused service is torn down here, outside the figure

        const int variant = order[static_cast<size_t>(job) % order.size()];
        const SimInput& input = setup.inputs[static_cast<size_t>(variant)];
        // Traced runs alternate whole variant cycles with and without
        // spans; the two medians give the tracing overhead.
        const bool traced = cfg.trace && (job / kSimVariants) % 2 == 0;
        rec.setEnabled(traced);
        ++r.attempted;
        // Shifted each variant cycle so no variant keeps one vCPU.
        const int cpu = cpus.empty() ? -1
                                     : cpus[static_cast<size_t>(job + job / kSimVariants) %
                                            cpus.size()];
        pinTo(cpu);
        // The probe runs on the job's vCPU just before it, untimed.
        probeMs.push_back(probe.runMs());
        const Clock::time_point t0 = Clock::now();
        RunClock clock;
        const bool ok =
            runJob(svc, setup.request, input, cfg.threads, cpu, &rec, job, &state, &clock);
        const double ms = clock.sec() * 1e3 + carriedMs;
        wallMs.push_back(secondsSince(t0) * 1e3 + carriedWallMs);
        unpin();
        rec.setEnabled(false);
        jobMs.push_back(ms);
        msOnCpu[cpu].push_back(ms);
        (traced ? tracedMs : untracedMs).push_back(ms);

        // --- output checks (untimed) -----------------------------------
        const std::string tag = "job " + std::to_string(job) + ": ";
        const CompileResult& res = state->compiled;
        tally.add(res);
        if (!ok) {
            r.fail(tag + "compile status " + phpf::service::statusName(res.status) + " " +
                   res.error);
            continue;
        }
        if (key.empty()) key = res.key;
        if (res.key != key || res.artifact->key != key) {
            r.fail(tag + "artifact under key " + res.artifact->key + ", expected " + key);
            continue;
        }
        const phpf::Compilation& c = *res.artifact->compilation;
        phpf::SpmdSimulator& sim = *state->sim;
        if (std::string why = oracleMismatch(c, sim); !why.empty()) {
            r.fail(tag + why);
            continue;
        }
        const SimCounts counts = countsOf(sim);
        auto& ref = reference[static_cast<size_t>(variant)];
        if (!ref) ref = counts;
        if (!(*ref == counts)) {
            r.fail(tag + "counts differ from the variant's first run");
            continue;
        }
        if (!traced) continue;

        rec.setEnabled(true);
        const bool replayed = replayCompile(setup.request, &rec, job);
        rec.setEnabled(false);
        if (!replayed) {
            r.fail(tag + "replayed compilation did not finish");
            continue;
        }
        const double wall = sim.wallSec();
        execUs.push_back(wall * 1e6);
        imbalance.push_back(sim.imbalanceRatio());
        busyRatio.push_back(wall > 0 ? sim.workerBusySec() / (wall * sim.threads()) : 0);
        decisions = static_cast<double>(c.mappingPass().decisionLog().records().size());
        commOps = static_cast<double>(c.lowering().commOps().size());
        // Same job on one lockstep thread: counts must not change, and
        // the run-time ratio is the lockstep pool's speedup. Untraced,
        // so the job's layer spans stay those of its own run.
        const auto one = simulateSpanned(c, input, 1, nullptr, job);
        if (!(countsOf(*one) == counts)) {
            r.fail(tag + "counts differ between 1 and " + std::to_string(sim.threads()) +
                   " threads");
            continue;
        }
        if (wall > 0) speedup.push_back(one->wallSec() / wall);
        if (counts.procStmts > 0)
            nsPerStmt.push_back(wall * 1e9 / static_cast<double>(counts.procStmts));
    }
    const double measured = secondsSince(start);
    state.reset();

    // --- results -----------------------------------------------------------
    double jobSec = 0;
    for (const double ms : jobMs) jobSec += ms / 1e3;
    const TailPercentile tail = tailPercentile(jobMs);
    r.notes.push_back("jobs " + std::to_string(jobMs.size()) + " in " +
                      std::to_string(measured) + " s, threads " +
                      std::to_string(cfg.threads) + ", set-up repetitions " +
                      std::to_string(setupSec.size()));
    r.notes.push_back(tailNote("job_ms_tail_at_ref", tail));
    // The job metrics are read on the run clock and scaled from the
    // host's memory speed during the run, as the probe measured it, to
    // the development host's.
    const double probeMedian = median(probeMs);
    const double scale = probeMedian > 0 ? LatencyProbe::kNominalMs / probeMedian : 1;
    const TailPercentile wallTail = tailPercentile(wallMs);
    char line[200];
    std::snprintf(line, sizeof line,
                  "unscaled, not gated: run clock p50 %.3f ms, p%g %.3f ms; wall clock p50 "
                  "%.3f ms, p%g %.3f ms",
                  median(jobMs), tail.pct, tail.value, median(wallMs), wallTail.pct,
                  wallTail.value);
    r.notes.push_back(line);
    std::snprintf(line, sizeof line,
                  "latency probe p50 %.4f ms (nominal %.1f ms): job times scaled by %.4f",
                  probeMedian, LatencyProbe::kNominalMs, scale);
    r.notes.push_back(line);
    r.notes.push_back(stealNote(steal0, measured));
    std::string perCpu = "run clock job p50 by vCPU, ms:";
    for (const auto& [c, ms] : msOnCpu) {
        char one[48];
        std::snprintf(one, sizeof one, " %d: %.2f", c, median(ms));
        perCpu += one;
    }
    r.notes.push_back(perCpu);
    if (!cfg.trace) {
        SimCounts mean;
        double n = 0;
        for (const auto& c : reference)
            if (c) {
                mean.procStmts += c->procStmts;
                mean.events += c->events;
                mean.bytes += c->bytes;
                n += 1;
            }
        if (n == 0) n = 1;
        r.add("setup_s", median(setupSec), "s");
        r.add("job_ms_p50_at_ref", median(jobMs) * scale, "ms");
        r.add("job_ms_tail_at_ref", tail.value * scale, "ms");
        r.add("jobs_per_s_at_ref",
              jobSec > 0 ? static_cast<double>(jobMs.size()) / (jobSec * scale) : 0, "1/s");
        r.add("peak_rss_mb", peakRssMb(), "MB");
        r.add("sim_proc_stmts", static_cast<double>(mean.procStmts) / n, "count");
        r.add("sim_message_events", static_cast<double>(mean.events) / n, "count");
        r.add("sim_bytes_moved", mean.bytes / n, "B");
        return r;
    }

    LayerValues v;
    addSpanMedians(rec, &v);
    // One job span per job: its children's medians are the layer costs.
    // The submit span is the service's request time, which the
    // service.* figures below break down.
    for (const char* drop : {"job_us", "replay_us", "driver.finalize_us", "service.submit_us"})
        v.erase(drop);
    v["privatize.decisions"] = decisions;
    v["spmd.comm_ops"] = commOps;
    v["runtime.sim_exec_us"] = median(execUs);
    v["runtime.imbalance"] = median(imbalance);
    v["support.pool_busy_ratio"] = median(busyRatio);
    v["runtime.ns_per_proc_stmt"] = median(nsPerStmt);
    v["support.lockstep_speedup"] = median(speedup);
    tally.addTo(svc.stats(), &v);
    v["bench.unattributed_pct"] = unattributedPct(rec, kJobSpan);
    const double un = median(untracedMs);
    v["bench.trace_overhead_pct"] = un > 0 ? 100.0 * (median(tracedMs) - un) / un : 0;
    addLayerMetrics(v, &r);
    r.notes.push_back("service: hits " + std::to_string(tally.hits) + " of " +
                      std::to_string(tally.requests) +
                      " requests (the first timed job compiles, the rest hit)");
    if (!cfg.traceOut.empty()) {
        if (!rec.writeChromeTrace(cfg.traceOut, "perfbench " + spec.name))
            r.fail("cannot write " + cfg.traceOut);
        else
            r.notes.push_back("chrome trace written to " + cfg.traceOut);
    }
    return r;
}

}  // namespace perfbench
