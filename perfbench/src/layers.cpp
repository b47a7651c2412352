#include "layers.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <future>
#include <thread>

#include "runtime/interp.h"
#include "runtime/store.h"

#include "stats.h"

namespace perfbench {

using phpf::CompileStage;

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const char* stageSpanName(CompileStage stage) {
    switch (stage) {
        case CompileStage::Finalize: return "driver.finalize";
        case CompileStage::Cfg: return "analysis.cfg";
        case CompileStage::Dominators: return "analysis.dominators";
        case CompileStage::Ssa: return "analysis.ssa";
        case CompileStage::ConstProp: return "analysis.const_prop";
        case CompileStage::InductionRewrite: return "analysis.induction";
        case CompileStage::DataMapping: return "mapping.data_mapping";
        case CompileStage::MappingPass: return "privatize.mapping_pass";
        case CompileStage::SpmdLowering: return "spmd.lowering";
        case CompileStage::Done: break;
    }
    return "driver.unknown_stage";
}

SimCounts countsOf(const phpf::SpmdSimulator& sim) {
    return {sim.statementsExecutedAllProcs(), sim.messageEvents(),
            sim.elementTransfers(), sim.bytesMoved()};
}

bool sameBits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string oracleMismatch(const phpf::Compilation& c, phpf::SpmdSimulator& sim) {
    const phpf::Store& ref = sim.oracle().store();
    const int procs = sim.procCount();
    // The check runs after every job and looks each element up by array
    // name, so processors are split over parallel lanes.
    const int lanes = std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, procs);
    const auto lane = [&](int first) -> std::string {
        for (int p = first; p < procs; p += lanes)
            for (const phpf::Symbol& s : c.program().symbols) {
                if (!s.isArray()) continue;
                for (std::int64_t flat = 0; flat < ref.sizeOf(s.id); ++flat) {
                    if (!sim.validOn(p, s.name, flat)) continue;
                    const double got = sim.valueOn(p, s.name, flat);
                    const double want = ref.get(s.id, flat);
                    if (sameBits(got, want)) continue;
                    char buf[160];
                    std::snprintf(buf, sizeof buf,
                                  "element %lld on processor %d is %.17g, the interpreter's %.17g",
                                  static_cast<long long>(flat), p, got, want);
                    return "array " + s.name + " " + buf;
                }
            }
        return {};
    };
    std::vector<std::future<std::string>> others;
    for (int l = 1; l < lanes; ++l) others.push_back(std::async(std::launch::async, lane, l));
    std::string why = lane(0);
    for (auto& f : others) {
        std::string w = f.get();
        if (why.empty()) why = std::move(w);
    }
    return why;
}

std::optional<phpf::Compilation> compileStaged(
    phpf::Program& p, const phpf::TargetConfig& target,
    const phpf::PassOptions& passes, SpanRecorder* rec, std::int64_t job) {
    ScopedSpan all(rec, "driver.compile", job);
    phpf::CompilePipeline pipe(p, target, passes);
    while (!pipe.done()) {
        ScopedSpan stage(rec, stageSpanName(pipe.next()), job);
        if (!pipe.step()) return std::nullopt;
    }
    return std::move(pipe).take();
}

std::unique_ptr<phpf::SpmdSimulator> buildSimulator(const phpf::Compilation& c,
                                                    int threads, SpanRecorder* rec,
                                                    std::int64_t job) {
    ScopedSpan s(rec, "runtime.sim_ctor", job);
    return std::make_unique<phpf::SpmdSimulator>(
        c.lowering(), c.target().costModel.elemBytes, threads,
        phpf::SimRecoveryConfig{}, c.passes().simEngine, c.passes().relaxedMerge,
        c.target().targetKind);
}

void seedAndRun(phpf::SpmdSimulator& sim, const phpf::Compilation& c,
                const SimInput& input, SpanRecorder* rec, std::int64_t job) {
    {
        ScopedSpan s(rec, "runtime.sim_seed", job);
        applyInput(input, c.program(), sim.oracle());
    }
    ScopedSpan s(rec, "runtime.sim_run", job);
    sim.run();
}

std::unique_ptr<phpf::SpmdSimulator> simulateSpanned(
    const phpf::Compilation& c, const SimInput& input, int threads,
    SpanRecorder* rec, std::int64_t job) {
    auto sim = buildSimulator(c, threads, rec, job);
    seedAndRun(*sim, c, input, rec, job);
    return sim;
}

void addSpanMedians(const SpanRecorder& rec, LayerValues* out) {
    // job -> span name -> summed ns
    std::map<std::int64_t, std::map<std::string, std::int64_t>> perJob;
    for (const Span& s : rec.spans())
        if (s.job >= 0) perJob[s.job][s.name] += s.durNs();
    std::map<std::string, std::vector<double>> byName;
    for (const auto& [job, names] : perJob)
        for (const auto& [name, ns] : names)
            byName[name].push_back(static_cast<double>(ns) / 1e3);
    for (auto& [name, us] : byName) (*out)[name + "_us"] = median(std::move(us));
}

void ServiceTally::add(const phpf::service::CompileResult& r) {
    ++requests;
    if (r.cacheHit) {
        ++hits;
        hitUs.push_back(r.totalUs);
    } else if (!r.coalesced) {
        missCompileUs.push_back(r.compileUs);
    }
    queueUs.push_back(r.totalUs - r.parseUs - r.compileUs);
}

void ServiceTally::addTo(const phpf::service::ServiceStats& stats, LayerValues* v) const {
    (*v)["service.hit_ratio"] =
        requests > 0 ? static_cast<double>(hits) / static_cast<double>(requests) : 0;
    (*v)["service.hits"] = static_cast<double>(hits);
    (*v)["service.requests"] = static_cast<double>(requests);
    (*v)["service.evictions"] = static_cast<double>(stats.cache.evictions);
    (*v)["service.coalesced_joins"] = static_cast<double>(stats.coalescedJoins);
    if (!hitUs.empty()) (*v)["service.hit_us_p50"] = median(hitUs);
    if (!missCompileUs.empty()) (*v)["service.miss_compile_us_p50"] = median(missCompileUs);
    (*v)["service.queue_wait_us_p50"] = median(queueUs);
}

double unattributedPct(const SpanRecorder& rec, const char* rootName) {
    const std::vector<std::int64_t> self = rec.selfNs();
    std::vector<double> pct;
    for (size_t i = 0; i < rec.spans().size(); ++i) {
        const Span& s = rec.spans()[i];
        if (s.parent >= 0 || s.name != rootName || s.durNs() <= 0) continue;
        pct.push_back(100.0 * static_cast<double>(self[i]) /
                      static_cast<double>(s.durNs()));
    }
    return median(std::move(pct));
}

namespace {

struct LayerMetric {
    const char* name;
    const char* unit;
};

// Canonical per-layer metric list; BENCHMARK.json names the same set.
constexpr LayerMetric kLayerMetrics[] = {
    {"frontend.parse_us", "us"},
    {"analysis.cfg_us", "us"},
    {"analysis.dominators_us", "us"},
    {"analysis.ssa_us", "us"},
    {"analysis.const_prop_us", "us"},
    {"analysis.induction_us", "us"},
    {"mapping.data_mapping_us", "us"},
    {"privatize.mapping_pass_us", "us"},
    {"spmd.lowering_us", "us"},
    {"target.predict_us", "us"},
    {"driver.compile_us", "us"},
    {"privatize.decisions", "count"},
    {"spmd.comm_ops", "count"},
    {"runtime.sim_ctor_us", "us"},
    {"runtime.sim_seed_us", "us"},
    {"runtime.sim_run_us", "us"},
    {"runtime.teardown_us", "us"},
    {"runtime.sim_exec_us", "us"},
    {"runtime.ns_per_proc_stmt", "ns"},
    {"runtime.imbalance", "ratio"},
    {"support.pool_busy_ratio", "ratio"},
    {"support.lockstep_speedup", "ratio"},
    {"obs.run_report_us", "us"},
    {"service.hit_ratio", "ratio"},
    {"service.hits", "count"},
    {"service.requests", "count"},
    {"service.evictions", "count"},
    {"service.coalesced_joins", "count"},
    {"service.hit_us_p50", "us"},
    {"service.miss_compile_us_p50", "us"},
    {"service.queue_wait_us_p50", "us"},
    {"bench.unattributed_pct", "%"},
    {"bench.trace_overhead_pct", "%"},
};

}  // namespace

void addLayerMetrics(const LayerValues& v, RunResult* r) {
    std::string absent;
    for (const LayerMetric& m : kLayerMetrics) {
        const auto it = v.find(m.name);
        if (it != v.end())
            r->add(m.name, it->second, m.unit);
        else
            absent += std::string(absent.empty() ? "" : ", ") + m.name;
    }
    if (!absent.empty()) r->notes.push_back("not exercised on this workload: " + absent);
}

std::int64_t stealTicks() {
    // /proc/stat: "cpu user nice system idle iowait irq softirq steal ..."
    std::ifstream in("/proc/stat");
    std::string cpu;
    std::int64_t f[8] = {};
    in >> cpu;
    for (std::int64_t& x : f) in >> x;
    return in && cpu == "cpu" ? f[7] : -1;
}

std::string stealNote(std::int64_t ticks0, double seconds) {
    const std::int64_t ticks1 = stealTicks();
    if (ticks0 < 0 || ticks1 < 0 || seconds <= 0) return "host steal: not available";
    const double stolen = static_cast<double>(ticks1 - ticks0) /
                          static_cast<double>(sysconf(_SC_CLK_TCK));
    const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "host steal during the timed loop: %.2f CPU-s, %.1f%% of %ld CPUs",
                  stolen, 100.0 * stolen / (seconds * static_cast<double>(cpus)), cpus);
    return buf;
}

}  // namespace perfbench
