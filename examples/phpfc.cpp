// phpfc — command-line driver for the mini-HPF compiler.
//
//   phpfc FILE.hpf [--procs NxM] [--report] [--lower] [--cost]
//         [--report=FILE.json] [--trace=FILE.json] [--no-sim]
//         [--faults=SPEC] [--retry=N]
//         [--checkpoint-every=N] [--serve-metrics=PORT]
//         [--flight-recorder=FILE.jsonl]
//         [--profile] [--profile-folded=FILE.folded]
//         [--no-privatization] [--producer-only] [--no-reduction-align]
//         [--no-array-priv] [--no-partial-priv] [--no-cf-priv]
//   phpfc --builtin=NAME ...  (tomcatv, dgefa, appsp, ... instead of a file)
//   phpfc --batch=JOBS.json [--workers=N] [--cache-capacity=N]
//         [--journal=FILE.jsonl] [--resume] [--faults=SPEC] [--retry=N]
//         [--profile] [--serve-metrics=PORT] [--flight-recorder=FILE.jsonl]
//   phpfc --worker[=PORT] [--worker-id=NAME] [--workers=N]
//         [--cache-capacity=N] [--faults=SPEC]
//   phpfc --coordinator --batch=JOBS.json --join=HOST:PORT [--join=...]
//         [--cluster-cache=N] [--dispatchers=N] [--journal=FILE.jsonl]
//         [--resume] [--faults=SPEC] [--serve-metrics=PORT]
//         [--trace=FILE.json] [--trace-sample=N]
//         [--flight-recorder=FILE.jsonl]
//
// Parses the program, runs the privatization mapping pass, and prints
// the requested stages. With no stage flags, prints everything.
// `--report=FILE` writes the machine-readable JSON run report (pass
// timings, decision records with rejected-alternative costs, cost
// prediction, simulation metrics); `--trace=FILE` writes a Chrome
// trace_event file openable in chrome://tracing / Perfetto.
//
// `--batch=JOBS.json` runs a jobs file (program × grid × option
// variants) through the concurrent compile service and emits one JSONL
// row per job on stdout, plus a final {"summary": true, ...} row with
// the service metrics (cache hits/misses/evictions, coalesced joins,
// per-stage latency histograms).
//
// Fault tolerance: `--faults=SPEC` arms the deterministic fault
// injector (same grammar as PHPF_FAULTS, e.g.
// "net.drop:p=0.02;seed=7,proc.crash:nth=40"); `--retry=N` bounds
// transparent service retries and transport resend attempts;
// `--checkpoint-every=N` checkpoints the simulator every N statement
// instances. In batch mode, `--journal=FILE` appends one flushed JSONL
// row per completed job (crash-safe) and `--resume` skips jobs already
// journaled. Exit codes: 0 ok, 1 job failures, 2 usage, 3 batch
// aborted mid-run (batch.abort fault).
//
// Telemetry: `--serve-metrics=PORT` starts the loopback HTTP exposition
// endpoint (GET /metrics Prometheus text, /healthz liveness JSON,
// /report run/metrics JSON) and keeps the process alive after the work
// finishes until GET /quitquitquit — scripts scrape, then release.
// PORT 0 binds an ephemeral port; the bound port is printed on stderr.
// `--flight-recorder=FILE` arms the in-memory flight recorder and dumps
// its event ring (faults fired, retries, evictions, checkpoints) to
// FILE as JSONL when a simulation fault escapes, a batch job fails, or
// the batch aborts. `--faults=...` arms the recorder even without a
// dump file so /report and post-mortem tooling can read it.
//
// Cluster: `--worker` serves the versioned compile wire protocol
// (POST /compile, GET /artifact/<key>, plus /metrics and /healthz) on
// PORT (default 0 = ephemeral; the bound port is printed on stderr as
// "phpfc: worker ... on http://127.0.0.1:PORT") until /quitquitquit.
// `--coordinator` runs a batch through a farm of such workers: each
// `--join=HOST:PORT` is health-probed and added to the consistent-hash
// ring, jobs route by fingerprint through the two-tier cache
// (coordinator LRU of `--cluster-cache` entries -> peer fetch ->
// compute), and a work-stealing dispatcher pool (`--dispatchers` per
// worker) drains the batch with retry/re-route on transient failures.
// `--journal` + `--resume` give exactly-once rows across coordinator
// kills, same contract as plain batch mode. With `--trace=FILE` the
// coordinator stamps a W3C-style trace context onto every request,
// workers ship their compile-stage spans back in the response, and the
// stitcher writes ONE Chrome trace with a named process row per worker
// (clock offsets estimated per worker, NTP-style). `--trace-sample=N`
// traces every Nth request (default 8, which keeps the armed tracer
// under the 2% overhead budget; 1 = every request); with
// `--serve-metrics`
// the coordinator also federates GET /cluster/metrics (every live
// worker's metrics on one page, worker-labeled, with phpf_cluster_*
// rollups) and GET /cluster/healthz.
//
// Profiling: `--profile` arms the per-statement profiler inside the
// functional simulation; the run report (schema v3) gains "profile"
// and "calibration" sections, /metrics gains phpf_stmt_self_time_* and
// phpf_model_error_* series, and `--profile-folded=FILE` writes
// flamegraph.pl-ready collapsed stacks weighted by estimated
// per-statement self time. In batch mode `--profile` turns on the
// profiled simulation for every job (also settable per job via the
// jobs file's "profile" field). `--builtin=NAME` compiles a builtin
// kernel (the same names the batch runner accepts) instead of a file.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <iostream>

#include "driver/compiler.h"
#include "frontend/parser.h"
#include "ir/printer.h"
#include "obs/calibration.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "cluster/cluster_batch.h"
#include "cluster/coordinator.h"
#include "cluster/federation.h"
#include "cluster/worker.h"
#include "service/batch.h"
#include "service/compile_service.h"
#include "service/http_exposition.h"
#include "spmd/cost_report.h"
#include "spmd/spmd_text.h"
#include "support/thread_registry.h"

using namespace phpf;

namespace {

/// std::stoi with CLI-grade failure: a non-numeric flag value exits 2
/// with the offending argument instead of an uncaught std::stoi throw.
int intFlag(const std::string& arg, std::size_t prefixLen) {
    try {
        return std::stoi(arg.substr(prefixLen));
    } catch (const std::exception&) {
        std::fprintf(stderr, "phpfc: bad numeric value in '%s'\n",
                     arg.c_str());
        std::exit(2);
    }
}

std::vector<int> parseGrid(const std::string& spec) {
    std::vector<int> grid;
    std::stringstream ss(spec);
    std::string part;
    try {
        while (std::getline(ss, part, 'x')) grid.push_back(std::stoi(part));
    } catch (const std::exception&) {
        std::fprintf(stderr, "phpfc: bad --procs grid '%s' (want e.g. 2x4)\n",
                     spec.c_str());
        std::exit(2);
    }
    if (grid.empty()) grid.push_back(1);
    return grid;
}

void usage() {
    std::fprintf(stderr,
                 "usage: phpfc FILE.hpf [--procs NxM] [--report] [--lower] "
                 "[--cost] [--spmd]\n"
                 "             [--report=FILE.json] [--trace=FILE.json] "
                 "[--no-sim]\n"
                 "             [--target=mp|shm]  (mp = SP2 message "
                 "passing, default;\n"
                 "              shm = shared-memory OpenMP-style SMP)\n"
                 "             [--relaxed-merge]  (commutative reduction "
                 "merges, unordered)\n"
                 "             [--faults=SPEC] [--retry=N] "
                 "[--checkpoint-every=N]\n"
                 "             [--profile] [--profile-folded=FILE.folded]\n"
                 "             [--no-privatization] [--producer-only]\n"
                 "             [--no-reduction-align] [--no-array-priv]\n"
                 "             [--no-partial-priv] [--no-cf-priv]\n"
                 "       phpfc --builtin=NAME ...  (builtin kernel instead "
                 "of a file)\n"
                 "       phpfc --batch=JOBS.json [--workers=N] "
                 "[--cache-capacity=N]\n"
                 "             [--journal=FILE.jsonl] [--resume] "
                 "[--faults=SPEC] [--retry=N]\n"
                 "             [--profile]  (profiled sim for every job)\n"
                 "       phpfc --worker[=PORT] [--worker-id=NAME] "
                 "[--workers=N]\n"
                 "             [--cache-capacity=N]  (serve the compile "
                 "wire protocol)\n"
                 "       phpfc --coordinator --batch=JOBS.json "
                 "--join=HOST:PORT [--join=...]\n"
                 "             [--cluster-cache=N] [--dispatchers=N] "
                 "[--journal=FILE.jsonl]\n"
                 "             [--resume]  (distributed batch over the "
                 "worker farm)\n"
                 "             [--trace=FILE.json] [--trace-sample=N]  "
                 "(one stitched cluster trace)\n"
                 "       both: [--serve-metrics=PORT]  (0 = ephemeral; "
                 "serves /metrics /healthz\n"
                 "              /report until GET /quitquitquit)\n"
                 "             [--flight-recorder=FILE.jsonl]\n");
}

/// Serve the attached registries until a scraper GETs /quitquitquit.
/// This is how the CI smoke test (and any operator script) gets a
/// deterministic window to curl the endpoints after the work lands,
/// followed by a clean exit instead of a kill.
void serveUntilQuit(service::MetricsHttpServer& server) {
    std::fprintf(stderr,
                 "phpfc: serving http://127.0.0.1:%d/metrics "
                 "(GET /quitquitquit to stop)\n",
                 server.port());
    while (!server.quitRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.stop();
}

int runBatchMode(const std::string& jobsFile, int workers,
                 std::size_t cacheCapacity, int retries,
                 const std::string& journal, bool resume, int servePort,
                 const std::string& flightFile, bool profileAll) {
    service::BatchSpec spec;
    std::string err;
    if (!service::loadBatchFile(jobsFile, &spec, &err)) {
        std::fprintf(stderr, "phpfc: %s\n", err.c_str());
        return 1;
    }
    if (profileAll)
        for (service::BatchJob& job : spec.jobs) job.profile = true;
    service::ServiceConfig cfg;
    cfg.workers = workers;
    if (cacheCapacity > 0) cfg.cacheCapacity = cacheCapacity;
    if (retries >= 0) cfg.maxRetries = retries;
    service::CompileService svc(cfg);

    service::MetricsHttpServer server(servePort);
    if (servePort >= 0) {
        server.addRegistry("phpf", &svc.metrics());
        server.setHealthProvider([&svc] {
            const service::ServiceStats st = svc.stats();
            obs::Json h = obs::Json::object();
            h.set("queue_depth", static_cast<std::int64_t>(st.queueDepth));
            h.set("active_jobs", st.activeJobs);
            h.set("workers", st.workers);
            h.set("requests", st.requests);
            return h;
        });
        server.setReportProvider([&svc] { return svc.metricsJson(); });
        std::string serr;
        if (!server.start(&serr)) {
            std::fprintf(stderr, "phpfc: --serve-metrics: %s\n", serr.c_str());
            return 2;
        }
        std::fprintf(stderr, "phpfc: metrics on http://127.0.0.1:%d\n",
                     server.port());
    }

    service::BatchRunOptions opts;
    opts.journalPath = journal;
    opts.resume = resume;
    opts.flightRecorderPath = flightFile;
    const service::BatchOutcome outcome =
        service::runBatch(svc, spec, std::cout, opts);
    std::fprintf(stderr,
                 "phpfc: %d job(s), %d ok, %d failed, %d skipped, "
                 "%d cache hit(s), %d coalesced, %.3f s%s\n",
                 outcome.jobs, outcome.ok, outcome.failed, outcome.skipped,
                 outcome.cacheHits, outcome.coalesced, outcome.wallSec,
                 outcome.aborted ? " [aborted]" : "");
    if (server.running()) serveUntilQuit(server);
    if (outcome.aborted) return 3;
    return outcome.failed == 0 ? 0 : 1;
}

/// --worker: one farm member. Serves compiles until /quitquitquit.
int runWorkerMode(int port, const std::string& id, int workers,
                  std::size_t cacheCapacity, int retries) {
    cluster::WorkerConfig wc;
    wc.port = port;
    wc.id = id;
    wc.service.workers = workers;
    if (cacheCapacity > 0) wc.service.cacheCapacity = cacheCapacity;
    if (retries >= 0) wc.service.maxRetries = retries;
    cluster::Worker worker(wc);
    std::string err;
    if (!worker.start(&err)) {
        std::fprintf(stderr, "phpfc: --worker: %s\n", err.c_str());
        return 2;
    }
    std::fprintf(stderr,
                 "phpfc: worker %s on http://127.0.0.1:%d "
                 "(GET /quitquitquit to stop)\n",
                 worker.id().c_str(), worker.port());
    while (!worker.quitRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    worker.stop();
    return 0;
}

/// --coordinator: route a jobs file through the worker farm.
int runCoordinatorMode(const std::string& jobsFile,
                       const std::vector<std::string>& joins,
                       std::size_t clusterCache, int dispatchers,
                       const std::string& journal, bool resume,
                       int servePort, const std::string& traceFile,
                       int traceSample, const std::string& flightFile) {
    if (jobsFile.empty()) {
        std::fprintf(stderr, "phpfc: --coordinator needs --batch=JOBS.json\n");
        return 2;
    }
    if (joins.empty()) {
        std::fprintf(stderr, "phpfc: --coordinator needs --join=HOST:PORT\n");
        return 2;
    }
    service::BatchSpec spec;
    std::string err;
    if (!service::loadBatchFile(jobsFile, &spec, &err)) {
        std::fprintf(stderr, "phpfc: %s\n", err.c_str());
        return 1;
    }
    // The distributed trace timeline: workers ship their spans back on
    // the wire and the stitcher lays them out as extra process rows, so
    // one --trace file shows the whole farm.
    obs::Tracer tracer(!traceFile.empty());
    cluster::CoordinatorConfig cc;
    if (clusterCache > 0) cc.cacheCapacity = clusterCache;
    if (!traceFile.empty()) cc.tracer = &tracer;
    if (traceSample > 0) cc.traceSampleEvery = traceSample;
    cluster::Coordinator coord(cc);
    for (const std::string& ep : joins)
        if (!coord.addWorker(ep, &err))
            std::fprintf(stderr, "phpfc: %s (continuing)\n", err.c_str());
    if (coord.workerCount() == 0) {
        std::fprintf(stderr, "phpfc: no worker joined the ring\n");
        return 1;
    }

    service::MetricsHttpServer server(servePort);
    if (servePort >= 0) {
        server.addRegistry("phpf", &coord.metrics());
        // Federation: GET /cluster/metrics scrapes every live worker
        // and re-exports one page; /cluster/healthz aggregates
        // liveness + wire versions.
        server.setApiHandler([&coord](const service::HttpRequest& req) {
            return cluster::handleClusterRequest(coord, req);
        });
        std::string serr;
        if (!server.start(&serr)) {
            std::fprintf(stderr, "phpfc: --serve-metrics: %s\n", serr.c_str());
            return 2;
        }
        std::fprintf(stderr, "phpfc: metrics on http://127.0.0.1:%d\n",
                     server.port());
    }

    cluster::ClusterBatchOptions opts;
    opts.journalPath = journal;
    opts.resume = resume;
    if (dispatchers > 0) opts.dispatchersPerWorker = dispatchers;
    const cluster::ClusterBatchOutcome outcome =
        cluster::runClusterBatch(coord, spec, std::cout, opts);

    if (!traceFile.empty()) {
        // Stitch worker span batches onto the coordinator timeline and
        // export one Perfetto-openable file with a process row per
        // worker.
        const cluster::StitchStats st = coord.stitchTrace();
        if (!obs::writeChromeTrace(tracer, traceFile, "phpfc cluster")) {
            std::fprintf(stderr, "phpfc: cannot write %s\n",
                         traceFile.c_str());
        } else {
            std::fprintf(stderr,
                         "phpfc: cluster trace written to %s "
                         "(%d worker(s), %zu span(s), %zu orphaned)\n",
                         traceFile.c_str(), st.workers, st.spans, st.orphans);
        }
    }
    if (!flightFile.empty() &&
        obs::FlightRecorder::global().dumpJsonl(flightFile))
        std::fprintf(stderr, "phpfc: flight recorder dumped to %s\n",
                     flightFile.c_str());
    std::fprintf(stderr,
                 "phpfc: %d job(s), %d ok, %d failed, %d skipped, "
                 "%d local / %d peer / %d worker hit(s), %d compiled, "
                 "%d stolen, %d requeued, exactly-once=%s, %.3f s\n",
                 outcome.jobs, outcome.ok, outcome.failed, outcome.skipped,
                 outcome.localHits, outcome.peerHits, outcome.workerHits,
                 outcome.compiles, outcome.steals, outcome.requeues,
                 outcome.exactlyOnce ? "yes" : "NO", outcome.wallSec);
    if (server.running()) serveUntilQuit(server);
    return outcome.failed == 0 && outcome.exactlyOnce ? 0 : 1;
}

bool startsWith(const std::string& s, const char* prefix) {
    return s.rfind(prefix, 0) == 0;
}

}  // namespace

int main(int argc, char** argv) {
    thread_registry::setCurrentName("main");
    std::string file;
    std::vector<int> grid{4};
    bool doReport = false, doLower = false, doCost = false, doSpmd = false;
    bool runSim = true;
    // Every which-implementation choice funnels through the one
    // enum-backed selection block (driver/options.h).
    ExecSelection selection;
    std::string reportFile, traceFile;
    MappingOptions mapping;
    std::string batchFile;
    int batchWorkers = 0;
    std::size_t batchCacheCapacity = 0;
    std::string journalFile;
    bool resume = false;
    int retries = -1;  ///< -1 = keep defaults
    int checkpointEvery = 0;
    int servePort = -1;  ///< -1 = no exposition endpoint; 0 = ephemeral
    std::string flightFile;
    bool profile = false;
    std::string foldedFile;
    std::string builtinName;
    bool workerMode = false;
    int workerPort = 0;
    std::string workerId;
    bool coordinatorMode = false;
    std::vector<std::string> joins;
    std::size_t clusterCache = 0;
    int dispatchers = 0;
    int traceSample = 0;  ///< 0 = keep the coordinator default (1 = all)

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--procs" && i + 1 < argc) grid = parseGrid(argv[++i]);
        else if (startsWith(arg, "--batch=")) batchFile = arg.substr(8);
        else if (arg == "--worker") workerMode = true;
        else if (startsWith(arg, "--worker=")) {
            workerMode = true;
            workerPort = intFlag(arg, 9);
        } else if (startsWith(arg, "--worker-id="))
            workerId = arg.substr(12);
        else if (arg == "--coordinator") coordinatorMode = true;
        else if (startsWith(arg, "--join=")) joins.push_back(arg.substr(7));
        else if (startsWith(arg, "--cluster-cache="))
            clusterCache = static_cast<std::size_t>(intFlag(arg, 16));
        else if (startsWith(arg, "--dispatchers="))
            dispatchers = intFlag(arg, 14);
        else if (startsWith(arg, "--builtin=")) builtinName = arg.substr(10);
        else if (arg == "--profile") profile = true;
        else if (startsWith(arg, "--profile-folded="))
            foldedFile = arg.substr(17);
        else if (startsWith(arg, "--workers="))
            batchWorkers = intFlag(arg, 10);
        else if (startsWith(arg, "--cache-capacity="))
            batchCacheCapacity = static_cast<std::size_t>(intFlag(arg, 17));
        else if (startsWith(arg, "--faults=")) {
            std::string ferr;
            if (!FaultInjector::process().configure(arg.substr(9), &ferr)) {
                std::fprintf(stderr, "phpfc: bad --faults spec: %s\n",
                             ferr.c_str());
                return 2;
            }
        } else if (startsWith(arg, "--retry="))
            retries = intFlag(arg, 8);
        else if (startsWith(arg, "--checkpoint-every="))
            checkpointEvery = intFlag(arg, 19);
        else if (startsWith(arg, "--journal="))
            journalFile = arg.substr(10);
        else if (startsWith(arg, "--serve-metrics="))
            servePort = intFlag(arg, 16);
        else if (startsWith(arg, "--flight-recorder="))
            flightFile = arg.substr(18);
        else if (arg == "--resume") resume = true;
        else if (arg == "--report") doReport = true;
        else if (startsWith(arg, "--report=")) reportFile = arg.substr(9);
        else if (startsWith(arg, "--trace=")) traceFile = arg.substr(8);
        else if (startsWith(arg, "--trace-sample="))
            traceSample = intFlag(arg, 15);
        else if (arg == "--no-sim") runSim = false;
        else if (startsWith(arg, "--target=")) {
            if (!parseExecSelection("target", arg.substr(9), &selection)) {
                std::fprintf(stderr, "phpfc: bad --target '%s' (want mp|shm)\n",
                             arg.substr(9).c_str());
                return 2;
            }
        } else if (arg == "--relaxed-merge")
            selection.relaxedMerge = true;
        else if (arg == "--lower") doLower = true;
        else if (arg == "--cost") doCost = true;
        else if (arg == "--spmd") doSpmd = true;
        else if (arg == "--no-privatization") mapping.privatization = false;
        else if (arg == "--producer-only")
            mapping.alignPolicy = MappingOptions::AlignPolicy::ProducerOnly;
        else if (arg == "--no-reduction-align")
            mapping.reductionAlignment = false;
        else if (arg == "--no-array-priv") mapping.arrayPrivatization = false;
        else if (arg == "--no-partial-priv")
            mapping.partialPrivatization = false;
        else if (arg == "--no-cf-priv")
            mapping.controlFlowPrivatization = false;
        else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage();
            return 2;
        } else {
            file = arg;
        }
    }
    // Arm the flight recorder whenever there is a dump destination or
    // fault injection is live — the ring is cheap to fill and priceless
    // when the injected fault actually escapes.
    if (!flightFile.empty() || FaultInjector::processIfEnabled() != nullptr)
        obs::FlightRecorder::global().setEnabled(true);

    if (workerMode)
        return runWorkerMode(workerPort, workerId, batchWorkers,
                             batchCacheCapacity, retries);
    if (coordinatorMode)
        return runCoordinatorMode(batchFile, joins, clusterCache, dispatchers,
                                  journalFile, resume, servePort, traceFile,
                                  traceSample, flightFile);
    if (!batchFile.empty())
        return runBatchMode(batchFile, batchWorkers, batchCacheCapacity,
                            retries, journalFile, resume, servePort,
                            flightFile, profile);
    if (file.empty() && builtinName.empty()) {
        usage();
        return 2;
    }
    const bool jsonOnly = !reportFile.empty() || !traceFile.empty() ||
                          profile || !foldedFile.empty();
    if (!doReport && !doLower && !doCost && !doSpmd && !jsonOnly)
        doReport = doLower = doCost = doSpmd = true;

    std::stringstream buf;
    if (builtinName.empty()) {
        std::ifstream in(file);
        if (!in) {
            std::fprintf(stderr, "phpfc: cannot open %s\n", file.c_str());
            return 1;
        }
        buf << in.rdbuf();
    }

    // One tracer covers the whole run: the front end, the compiler
    // passes and the simulation share one timeline, for the report and
    // the trace.
    obs::MetricRegistry runMetrics;
    auto tracer = std::make_shared<obs::Tracer>();
    DiagEngine diags;
    // --builtin resolves through the batch runner's kernel table so the
    // CLI and jobs files accept exactly the same names.
    std::function<Program()> buildBuiltin;
    if (!builtinName.empty()) {
        service::BatchJob job;
        job.program = builtinName;
        service::CompileRequest breq;
        std::string berr;
        if (!service::requestOfJob(job, &breq, &berr)) {
            std::fprintf(stderr, "phpfc: %s\n", berr.c_str());
            return 2;
        }
        buildBuiltin = breq.build;
    }
    Program p = [&] {
        obs::ScopedSpan span(*tracer, "parse", "pass");
        if (buildBuiltin) return buildBuiltin();
        Parser parser(buf.str(), diags);
        return parser.parse();
    }();
    if (diags.hasErrors()) {
        std::fprintf(stderr, "%s", diags.dump().c_str());
        return 1;
    }

    TargetConfig target;
    target.gridExtents = grid;
    PassOptions passes;
    passes.mapping = mapping;
    selection.applyTo(&target, &passes);
    CompileSession session;
    session.tracer = tracer;
    session.diags = &diags;
    Compilation c = Compiler::compile(p, target, passes, std::move(session));

    const Target& backend = c.compileTarget();
    std::printf("compiled '%s' for grid %s, target %s\n", p.name.c_str(),
                ProcGrid(grid).str().c_str(), backend.name());
    if (doReport) std::printf("\n%s", c.report().c_str());
    if (doLower) std::printf("\n%s", c.lowering().dump().c_str());
    if (doSpmd) std::printf("\n%s", backend.emitText(c.lowering()).c_str());
    if (doCost) {
        const CostReport report = backend.costReport(c.lowering(), target);
        std::printf("\npredicted execution (%s):\n%s", backend.displayName(),
                    report.str(p).c_str());
    }

    // The JSON report and the exposition endpoint carry per-processor
    // metrics only when the functional simulation runs (zero-seeded
    // inputs; message and guard accounting do not depend on values).
    // The Chrome trace needs the run too: it carries the simulate and
    // sim-exec spans.
    std::unique_ptr<SpmdSimulator> sim;
    const bool wantSim =
        runSim && (!reportFile.empty() || !traceFile.empty() ||
                   servePort >= 0 || profile || !foldedFile.empty());
    if (wantSim) {
        SimulationRequest sreq;
        sreq.faults = FaultInjector::processIfEnabled();
        sreq.checkpointEvery = checkpointEvery;
        if (retries > 0) sreq.maxAttempts = retries;
        sreq.metrics = &runMetrics;
        sreq.profile = profile || !foldedFile.empty();
        try {
            sim = c.simulate(sreq);
        } catch (const SimFault& e) {
            std::fprintf(stderr, "phpfc: %s\n", e.what());
            if (!flightFile.empty() &&
                obs::FlightRecorder::global().dumpJsonl(flightFile))
                std::fprintf(stderr, "phpfc: flight recorder dumped to %s\n",
                             flightFile.c_str());
            return 1;
        }
    }
    if (sim != nullptr && sim->profile() != nullptr) {
        // Feed the profile into the run registry so --serve-metrics
        // exposes phpf_stmt_self_time_* and phpf_model_error_* series.
        obs::exportStmtSelfTime(runMetrics, *sim->profile());
        const obs::CalibrationReport cal = obs::buildCalibration(
            c.lowering(), target.costModel, *sim, *sim->profile(),
            c.mappingPass().decisionLog());
        cal.exportTo(runMetrics);
        std::printf("calibration: %d/%d rows joined, model MAPE %.2f%%\n",
                    cal.summary.joined, static_cast<int>(cal.rows.size()),
                    cal.summary.mapeSecPct);
        if (!foldedFile.empty()) {
            std::ofstream folded(foldedFile);
            if (!folded) {
                std::fprintf(stderr, "phpfc: cannot write %s\n",
                             foldedFile.c_str());
                return 1;
            }
            folded << obs::foldedStacks(c.lowering().program(),
                                        *sim->profile());
            std::printf("folded stacks written to %s (feed to "
                        "flamegraph.pl)\n",
                        foldedFile.c_str());
        }
    }
    if (!reportFile.empty()) {
        if (!c.writeReport(reportFile, sim.get())) {
            std::fprintf(stderr, "phpfc: cannot write %s\n",
                         reportFile.c_str());
            return 1;
        }
        std::printf("run report written to %s\n", reportFile.c_str());
    }
    if (!traceFile.empty()) {
        if (!obs::writeChromeTrace(*tracer, traceFile, "phpfc " + p.name)) {
            std::fprintf(stderr, "phpfc: cannot write %s\n", traceFile.c_str());
            return 1;
        }
        std::printf("chrome trace written to %s (open in chrome://tracing "
                    "or ui.perfetto.dev)\n",
                    traceFile.c_str());
    }
    if (servePort >= 0) {
        service::MetricsHttpServer server(servePort);
        server.addRegistry("phpf", &runMetrics);
        server.setHealthProvider([&] {
            obs::Json h = obs::Json::object();
            h.set("program", p.name);
            h.set("sim_ran", sim != nullptr);
            return h;
        });
        const obs::Json report = c.buildRunReport(sim.get());
        server.setReportProvider([report] { return report; });
        std::string serr;
        if (!server.start(&serr)) {
            std::fprintf(stderr, "phpfc: --serve-metrics: %s\n", serr.c_str());
            return 2;
        }
        serveUntilQuit(server);
    }
    return 0;
}
