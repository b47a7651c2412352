#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace phpf::obs {

/// One span recorded by a Tracer. Times are nanoseconds on the
/// monotonic clock relative to one process-wide epoch, so spans from
/// different tracers in the same process share a timeline.
struct TraceSpan {
    std::string name;
    std::string category;     ///< e.g. "pass", "sim", "service"
    std::int64_t startNs = 0;
    std::int64_t durNs = -1;  ///< -1 while still open
    std::uint64_t id = 0;     ///< unique within the process, never 0
    std::uint64_t parent = 0; ///< 0 = root
    int tid = 0;              ///< thread_registry tid of the recorder
    /// Process row this span renders under: 0 = this process (exported
    /// as pid 1); >= 2 = a remote process registered via
    /// registerProcess() (a worker whose spans were stitched in).
    int pid = 0;

    [[nodiscard]] bool closed() const { return durNs >= 0; }
};

/// A propagatable point in the span tree: "parent spans created under
/// this context here". Captured on one thread (usually where a request
/// root span was opened) and adopted on another (a pool worker) via
/// ContextScope, so cross-thread work parents correctly under its
/// request instead of floating as a root.
struct SpanContext {
    std::uint64_t spanId = 0;  ///< 0 = no parent (root)
};

/// Thread-safe span recorder: every recording thread appends to its own
/// sharded buffer (one uncontended mutex per thread), spans are
/// tid-stamped via the process thread registry, and snapshot() merges
/// the shards at export time. A single-threaded session (one compile)
/// is simply a tracer with one shard.
///
/// The parent id is fixed when a span begins: the thread's innermost
/// open span on this tracer, else its adopted ContextScope context,
/// else root. Cross-thread parenting goes through SpanContext +
/// ContextScope.
///
/// Disabled tracers cost a branch per begin/end — instrumentation can
/// stay compiled in. Span mutation always happens under the owning
/// buffer's mutex, so end() may run on a different thread than begin()
/// (a request span opened on the caller and closed by the worker that
/// finished the job).
class Tracer {
public:
    explicit Tracer(bool enabled = true);
    ~Tracer();

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// Any thread may flip the switch while others record (a cluster
    /// worker arms its tracer on the first sampled request).
    [[nodiscard]] bool enabled() const {
        return enabled_.load(std::memory_order_relaxed);
    }
    void setEnabled(bool e) { enabled_.store(e, std::memory_order_relaxed); }

    /// Nanoseconds since the process-wide trace epoch (monotonic).
    [[nodiscard]] static std::int64_t nowNs();

    /// Handle of one begun span; pass back to end(). Empty (id 0) when
    /// the tracer is disabled.
    struct Handle {
        void* buf = nullptr;
        int idx = -1;
        std::uint64_t id = 0;
    };

    /// Open a span on the calling thread.
    Handle begin(const char* name, const char* category = "");
    /// Close a span (idempotent; any thread).
    void end(const Handle& h);

    /// Record an already-measured interval on the calling thread's
    /// buffer under `parent` (or, when `parent.spanId == 0`, under the
    /// thread's current context). Returns the span's id so callers can
    /// parent further spans under it.
    std::uint64_t addCompleteSpan(const char* name, const char* category,
                                  std::int64_t startNs, std::int64_t durNs,
                                  SpanContext parent = {});

    /// The calling thread's current context: innermost open span, else
    /// the adopted ContextScope context, else none.
    [[nodiscard]] SpanContext currentContext();

    /// Copy `src`'s spans into this tracer as they are (ids, times and
    /// tids are process-wide), hanging `src`'s roots under `parent`.
    /// This is how a compile session's private tracer lands under its
    /// request span in a service tracer.
    void append(const Tracer& src, SpanContext parent);

    /// Merged copy of every thread's spans, ordered by (startNs, id).
    [[nodiscard]] std::vector<TraceSpan> snapshot() const;

    /// Process-unique id of this tracer instance. Workers ship it as
    /// the batch epoch so a restarted worker (fresh tracer) is never
    /// confused with its previous life.
    [[nodiscard]] std::uint64_t instanceId() const { return traceId_; }

    /// Reserve a fresh span id without recording a span. The stitcher
    /// uses this to renumber remote spans into this process's id space.
    [[nodiscard]] static std::uint64_t allocateSpanId();

    /// Register a remote process row (a worker) and get its export pid
    /// (2, 3, ... — pid 1 is this process). Re-registering the same
    /// name returns the existing pid.
    int registerProcess(const std::string& name);

    /// Registered (pid, name) pairs, pid-ascending.
    [[nodiscard]] std::vector<std::pair<int, std::string>> processes() const;

    /// Name a remote process's thread row for export ("" = unnamed).
    void setRemoteThreadName(int pid, int tid, const std::string& name);
    [[nodiscard]] std::string remoteThreadName(int pid, int tid) const;

    /// Append a fully-formed span verbatim (id/parent/pid/tid already
    /// resolved by the caller — the cluster span stitcher). The id
    /// should come from allocateSpanId() so it cannot collide with
    /// locally recorded spans.
    void addRemoteSpan(TraceSpan s);

    /// Remove and return up to `maxSpans` closed spans across all
    /// thread buffers (ordered by startNs, id); open spans stay put and
    /// their handles remain valid. Workers use this to harvest a
    /// bounded batch of finished spans into each traced response
    /// without holding the whole history forever.
    [[nodiscard]] std::vector<TraceSpan> drainClosed(std::size_t maxSpans);

    /// Distinct thread buffers that recorded at least one span.
    [[nodiscard]] int threadCount() const;

    /// Total spans across all buffers.
    [[nodiscard]] std::size_t spanCount() const;

    /// Drop all spans (open handles become harmless no-ops on end()).
    void clear();

private:
    friend class ContextScope;

    struct ThreadBuf {
        std::mutex mu;
        int tid = 0;
        std::vector<TraceSpan> spans;
        /// Innermost-last open span ids (and their span indices).
        std::vector<std::uint64_t> openIds;
        std::vector<int> openIdx;
        /// Adopted cross-thread contexts (ContextScope nesting).
        std::vector<std::uint64_t> adopted;
    };

    ThreadBuf& localBuf();

    std::atomic<bool> enabled_;
    std::uint64_t traceId_;  ///< process-unique instance id
    mutable std::mutex bufsMu_;
    std::vector<std::unique_ptr<ThreadBuf>> bufs_;
    /// Remote-process registry (stitched worker rows), own lock so
    /// export metadata never contends with the recording hot path.
    mutable std::mutex remoteMu_;
    std::vector<std::string> processNames_;  ///< index 0 -> pid 2
    std::map<std::pair<int, int>, std::string> remoteThreadNames_;
};

/// RAII adoption of a cross-thread parent context: spans the calling
/// thread creates while the scope is alive parent under `ctx` (unless
/// nested under a newer open span). Construct and destroy on the same
/// thread.
class ContextScope {
public:
    ContextScope(Tracer& t, SpanContext ctx);
    ~ContextScope();

    ContextScope(const ContextScope&) = delete;
    ContextScope& operator=(const ContextScope&) = delete;

private:
    Tracer& tracer_;
    bool pushed_;
};

/// RAII span: opens on construction, closes on scope exit. Safe to use
/// with a null tracer (no-op), so call sites never need to branch.
class ScopedSpan {
public:
    ScopedSpan(Tracer* t, const char* name, const char* category = "")
        : tracer_(t) {
        if (t != nullptr) handle_ = t->begin(name, category);
    }
    ScopedSpan(Tracer& t, const char* name, const char* category = "")
        : ScopedSpan(&t, name, category) {}
    ~ScopedSpan() { close(); }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /// Context of this span, for propagation into workers.
    [[nodiscard]] SpanContext context() const { return {handle_.id}; }

    /// Close early (before scope exit); idempotent.
    void close() {
        if (tracer_ != nullptr && handle_.id != 0) tracer_->end(handle_);
        handle_ = {};
    }

private:
    Tracer* tracer_;
    Tracer::Handle handle_{};
};

}  // namespace phpf::obs
