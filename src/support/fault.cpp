#include "support/fault.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace phpf {

namespace {

/// splitmix64: tiny, seedable, and statistically fine for fault draws.
/// Deterministic across platforms — the fault schedule is part of a
/// run's reproducible behaviour, so no std:: engine (implementation-
/// defined streams) is used.
std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Stable 64-bit hash of the site name (FNV-1a): the default per-site
/// seed, so `net.drop` and `net.dup` under the same spec never share a
/// stream.
std::uint64_t hashName(const std::string& s) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h == 0 ? 1 : h;
}

bool parseParam(const std::string& kv, FaultSiteSpec* spec, std::string* err) {
    const size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == kv.size()) {
        if (err != nullptr) *err = "bad fault parameter '" + kv + "'";
        return false;
    }
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    char* end = nullptr;
    if (key == "p") {
        spec->probability = std::strtod(val.c_str(), &end);
        if (end == nullptr || *end != '\0' || spec->probability < 0.0 ||
            spec->probability > 1.0) {
            if (err != nullptr)
                *err = "fault probability must be in [0,1], got '" + val + "'";
            return false;
        }
        return true;
    }
    const long long n = std::strtoll(val.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || n < 0) {
        if (err != nullptr)
            *err = "fault parameter " + key + " must be a non-negative "
                   "integer, got '" + val + "'";
        return false;
    }
    if (key == "nth") spec->nth = n;
    else if (key == "seed") spec->seed = static_cast<std::uint64_t>(n);
    else if (key == "limit") spec->limit = n;
    else if (key == "ticks") spec->ticks = n;
    else {
        if (err != nullptr) *err = "unknown fault parameter '" + key + "'";
        return false;
    }
    return true;
}

std::vector<std::string> split(const std::string& s, char sep) {
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            if (i > start) out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

}  // namespace

FaultSite::FaultSite(FaultSiteSpec spec) : spec_(std::move(spec)) {
    rng_ = spec_.seed != 0 ? spec_.seed : hashName(spec_.site);
}

bool FaultSite::fire() {
    if (spec_.probability <= 0.0) {
        // nth-only site: the decision depends only on the poll number,
        // so a poll takes no lock; only a hit does, to re-check the
        // limit and count the fire.
        const std::int64_t poll =
            polls_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (spec_.nth <= 0 || poll % spec_.nth != 0) return false;
        std::lock_guard<std::mutex> lock(mu_);
        return countFire(poll);
    }
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t poll = polls_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (spec_.limit > 0 &&
        fires_.load(std::memory_order_relaxed) >= spec_.limit)
        return false;
    bool hit = spec_.nth > 0 && poll % spec_.nth == 0;
    if (!hit) {
        // 53-bit uniform in [0,1); the draw happens on every poll that
        // reaches it, so the stream position depends only on the poll
        // count.
        const double u =
            static_cast<double>(splitmix64(rng_) >> 11) * 0x1.0p-53;
        hit = u < spec_.probability;
    }
    return hit && countFire(poll);
}

bool FaultSite::countFire(std::int64_t poll) {
    if (spec_.limit > 0 &&
        fires_.load(std::memory_order_relaxed) >= spec_.limit)
        return false;
    fires_.fetch_add(1, std::memory_order_relaxed);
    // Individual polls are far too hot to log; a fault actually firing
    // is exactly the kind of rare event the recorder exists for.
    obs::FlightRecorder::global().record(
        "fault.fire",
        spec_.site + " poll=" + std::to_string(poll) + " fire=" +
            std::to_string(fires_.load(std::memory_order_relaxed)));
    return true;
}

bool FaultInjector::configure(const std::string& spec, std::string* err) {
    std::map<std::string, std::unique_ptr<FaultSite>> sites;
    for (const std::string& part : split(spec, ',')) {
        const size_t colon = part.find(':');
        FaultSiteSpec s;
        s.site = part.substr(0, colon);
        if (s.site.empty()) {
            if (err != nullptr) *err = "empty fault site in '" + part + "'";
            return false;
        }
        if (colon != std::string::npos) {
            for (const std::string& kv : split(part.substr(colon + 1), ';'))
                if (!parseParam(kv, &s, err)) return false;
        }
        if (s.probability <= 0.0 && s.nth <= 0) {
            if (err != nullptr)
                *err = "fault site '" + s.site +
                       "' has no trigger (need p= or nth=)";
            return false;
        }
        if (sites.count(s.site) != 0) {
            if (err != nullptr)
                *err = "fault site '" + s.site + "' configured twice";
            return false;
        }
        const std::string name = s.site;
        sites.emplace(name, std::make_unique<FaultSite>(std::move(s)));
    }
    sites_ = std::move(sites);
    spec_ = spec;
    return true;
}

FaultSite* FaultInjector::find(const std::string& name) const {
    const auto it = sites_.find(name);
    return it == sites_.end() ? nullptr : it->second.get();
}

void FaultInjector::exportTo(obs::MetricRegistry& reg) const {
    for (const auto& [name, site] : sites_) {
        // Counters are monotonic; set-to-current via add(delta) keeps a
        // re-export after more polls correct.
        obs::Counter& polls = reg.counter("fault." + name + ".polls");
        polls.add(site->polls() - polls.value());
        obs::Counter& fires = reg.counter("fault." + name + ".fires");
        fires.add(site->fires() - fires.value());
    }
}

void FaultInjector::reset() {
    sites_.clear();
    spec_.clear();
}

FaultInjector& FaultInjector::process() {
    static FaultInjector* inj = [] {
        auto* p = new FaultInjector();
        if (const char* env = std::getenv("PHPF_FAULTS")) {
            std::string err;
            if (!p->configure(env, &err))
                std::fprintf(stderr, "phpf: ignoring bad PHPF_FAULTS: %s\n",
                             err.c_str());
        }
        return p;
    }();
    return *inj;
}

}  // namespace phpf
