// perfbench: the repository benchmark driver.
//
//   perfbench --workload tomcatv_sim|dgefa_sim|compile_mix --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints one line per metric ("name = value unit"), context notes, and
// as its last line one JSON object {correct, attempted, failed,
// metrics}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics of a traced run (and writes a Chrome trace when
// --trace-out is given). Exit 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n",
                 why);
    return 2;
}

bool parseNumber(const std::string& s, double* out) {
    char* end = nullptr;
    *out = std::strtod(s.c_str(), &end);
    return !s.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
    using namespace perfbench;
    RunConfig cfg;
    cfg.threads = static_cast<int>(std::thread::hardware_concurrency());
    if (cfg.threads < 1) cfg.threads = 1;
    bool haveWorkload = false, haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        double num = 0;
        if (arg == "--workload") {
            cfg.workload = val;
            haveWorkload = true;
        } else if (arg == "--trace-out") {
            cfg.traceOut = val;
        } else if (!parseNumber(val, &num)) {
            return usage(("non-numeric value for " + arg).c_str());
        } else if (arg == "--seed") {
            if (num < 0) return usage("--seed must be non-negative");
            cfg.seed = static_cast<std::uint64_t>(num);
            haveSeed = true;
        } else if (arg == "--seconds") {
            if (!(num > 0)) return usage("--seconds must be positive");
            cfg.seconds = num;
        } else if (arg == "--trace") {
            if (num != 0 && num != 1) return usage("--trace takes 0 or 1");
            cfg.trace = num == 1;
        } else {
            return usage(("unknown flag " + arg).c_str());
        }
    }
    if (!haveWorkload || !haveSeed) return usage("--workload and --seed are required");

    RunResult r;
    SimWorkloadSpec spec;
    if (cfg.workload == "compile_mix")
        r = runCompileMix(cfg);
    else if (simWorkloadSpec(cfg.workload, &spec))
        r = runSimWorkload(cfg, spec);
    else
        return usage(("unknown workload " + cfg.workload).c_str());

    std::printf("workload %s seed %llu trace %d\n", cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0);
    for (const std::string& n : r.notes) std::printf("  note: %s\n", n.c_str());
    for (const std::string& f : r.failures) std::printf("  FAILED: %s\n", f.c_str());
    const double errorRate = r.attempted > 0 ? static_cast<double>(r.failed) /
                                                   static_cast<double>(r.attempted)
                                             : 1.0;
    std::printf("  %-28s = %.6g %s\n", "error_rate", errorRate, "ratio");
    for (const Metric& m : r.metrics)
        std::printf("  %-28s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

    const bool correct = r.failed == 0 && r.attempted > 0;
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(r.attempted);
    line += ", \"failed\": " + std::to_string(r.failed);
    line += ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", r.metrics[i].value);
        line += (i ? ", \"" : "\"") + r.metrics[i].name + "\": {\"value\": " + num +
                ", \"unit\": \"" + r.metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}
