#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace phpf::obs {
class MetricRegistry;
}  // namespace phpf::obs

namespace phpf {

/// Structured failure surfaced when injected faults exhaust a recovery
/// budget (transport retries, crash-recovery attempts, a cancelled
/// simulation). Carries the fault site that killed the run so callers
/// can distinguish "the network stayed down" from "the process kept
/// crashing" without parsing message text — the whole point is that an
/// unrecoverable fault is a *typed* outcome, never garbage data.
class SimFault : public std::exception {
public:
    SimFault(std::string site, std::string detail)
        : site_(std::move(site)),
          detail_(std::move(detail)),
          msg_("sim fault at " + site_ + ": " + detail_) {}

    [[nodiscard]] const char* what() const noexcept override {
        return msg_.c_str();
    }
    /// Fault site that made the run unrecoverable ("net.drop",
    /// "proc.crash", "sim.cancel", ...).
    [[nodiscard]] const std::string& site() const { return site_; }
    [[nodiscard]] const std::string& detail() const { return detail_; }

private:
    std::string site_;
    std::string detail_;
    std::string msg_;
};

/// Well-known fault site names. A site is just a string tag; these
/// constants only keep the spelling in one place.
namespace faultsite {
inline constexpr const char* kNetDrop = "net.drop";        ///< message lost
inline constexpr const char* kNetDup = "net.dup";          ///< delivered twice
inline constexpr const char* kNetDelay = "net.delay";      ///< delivery delayed
inline constexpr const char* kProcCrash = "proc.crash";    ///< simulated proc dies
inline constexpr const char* kSvcTransient = "svc.transient";  ///< compile job fails transiently
inline constexpr const char* kSvcMemPressure = "svc.mem_pressure";  ///< shed the artifact cache
inline constexpr const char* kBatchAbort = "batch.abort";  ///< batch runner dies mid-matrix
/// Cluster sites (src/cluster): a compile worker dies abruptly at the
/// start of handling a request — a real worker process _exit()s (the
/// deterministic stand-in for kill -9), an in-process test worker drops
/// the connection and stops serving.
inline constexpr const char* kClusterWorkerKill = "cluster.worker_kill";
/// A peer-fetch attempt finds the peer partitioned away: the fetch is
/// dropped before any bytes move and the coordinator degrades to the
/// next cache tier.
inline constexpr const char* kClusterPartition = "cluster.partition";
/// Not an injectable site: the SimFault tag of a cancelled simulation
/// (deadline expiry or explicit CancelToken).
inline constexpr const char* kSimCancel = "sim.cancel";
}  // namespace faultsite

/// Trigger configuration of one fault site, parsed from a spec segment
/// like `net.drop:p=0.02;seed=7` or `proc.crash:nth=40;limit=3`.
struct FaultSiteSpec {
    std::string site;
    /// Probability trigger: each poll fires with probability `p` drawn
    /// from the site's own seeded generator. Mutually composable with
    /// `nth` (either firing fires the site), though specs normally use
    /// one or the other.
    double probability = 0.0;
    /// Deterministic trigger: fires on every nth poll (poll counter
    /// multiple of `nth`). 0 = off.
    std::int64_t nth = 0;
    /// Site-local seed for the probability draw. 0 = derive a stable
    /// default from the site name, so distinct sites get independent
    /// streams even under one global spec seed.
    std::uint64_t seed = 0;
    /// Maximum number of fires; 0 = unlimited.
    std::int64_t limit = 0;
    /// Site-specific magnitude payload (`ticks=` — e.g. how many
    /// simulated ticks a net.delay fault delays delivery by).
    std::int64_t ticks = 0;
};

/// One registered site: the spec plus its live trigger state. Obtained
/// once via FaultInjector::find() and then polled; polling is
/// internally synchronized so service worker threads can share a site.
class FaultSite {
public:
    explicit FaultSite(FaultSiteSpec spec);

    /// Poll the site: true when a fault fires now. Deterministic for a
    /// fixed spec: the decision depends only on the poll count and the
    /// seeded generator state, never on wall clock or thread identity.
    bool fire();

    [[nodiscard]] const FaultSiteSpec& spec() const { return spec_; }
    [[nodiscard]] std::int64_t polls() const {
        return polls_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::int64_t fires() const {
        return fires_.load(std::memory_order_relaxed);
    }

private:
    /// Count a hit at `poll` as a fire unless the limit is reached, and
    /// record it in the flight recorder. Caller holds mu_.
    bool countFire(std::int64_t poll);

    FaultSiteSpec spec_;
    /// Guards rng_ and the fire count. An nth-only site (probability 0)
    /// decides each poll from the atomic poll counter alone and takes
    /// the mutex only on a hit.
    std::mutex mu_;
    std::uint64_t rng_;
    std::atomic<std::int64_t> polls_{0};
    std::atomic<std::int64_t> fires_{0};
};

/// Seeded, site-tagged fault-injection registry.
///
/// A spec string (from the PHPF_FAULTS environment variable or the
/// `--faults=` CLI flag) lists comma-separated sites, each with
/// semicolon-separated parameters:
///
///     net.drop:p=0.02;seed=7,proc.crash:nth=40;limit=3,net.delay:p=0.01;ticks=4
///
/// Parameters: `p=<float>` (probability per poll), `nth=<N>` (fire on
/// every Nth poll), `seed=<S>` (site-local stream seed), `limit=<N>`
/// (max fires), `ticks=<N>` (site-specific magnitude). The same spec
/// always produces the same fault schedule — triggers depend only on
/// poll counts and seeded generators.
///
/// Hot paths hold a `FaultSite*` resolved once via find(); a null
/// pointer (site not configured, or injection disabled) costs one
/// branch, which is what keeps the fault-disabled path at ~zero
/// overhead (bench/bench_fault_overhead.cpp enforces this).
class FaultInjector {
public:
    FaultInjector() = default;

    /// Parse and install `spec`, replacing any existing configuration.
    /// Empty spec = disable. Returns false (and fills *err) on a
    /// malformed spec, leaving the previous configuration in place.
    bool configure(const std::string& spec, std::string* err = nullptr);

    [[nodiscard]] bool enabled() const { return !sites_.empty(); }
    [[nodiscard]] const std::string& spec() const { return spec_; }

    /// The registered site, or nullptr when `name` is not in the spec.
    /// The pointer stays valid until the next configure().
    [[nodiscard]] FaultSite* find(const std::string& name) const;

    /// Null-safe poll helper for resolved site handles.
    static bool poll(FaultSite* site) {
        return site != nullptr && site->fire();
    }

    /// Write per-site poll/fire counters into `reg` as counters named
    /// `fault.<site>.polls` / `fault.<site>.fires` (set-to-current; the
    /// injector's own counters remain the source of truth).
    void exportTo(obs::MetricRegistry& reg) const;

    /// Forget all sites and counters (tests).
    void reset();

    /// Process-wide injector, configured lazily from PHPF_FAULTS on
    /// first access; `phpfc --faults=` reconfigures it. Disabled when
    /// the variable is unset.
    static FaultInjector& process();
    /// The process injector when it has sites configured, else nullptr
    /// — the form components take as their default fault source.
    static FaultInjector* processIfEnabled() {
        FaultInjector& p = process();
        return p.enabled() ? &p : nullptr;
    }

private:
    std::string spec_;
    std::map<std::string, std::unique_ptr<FaultSite>> sites_;
};

}  // namespace phpf
