#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "support/thread_registry.h"

namespace phpf::obs {

namespace {

/// Live-tracer registry: localBuf() caches ThreadBuf pointers in
/// thread_local storage keyed by tracer instance id; pruning stale
/// cache entries needs to know which ids still exist without touching
/// the (possibly freed) tracer.
std::mutex& liveMutex() {
    static std::mutex m;
    return m;
}
std::unordered_set<std::uint64_t>& liveIds() {
    static std::unordered_set<std::uint64_t> s;
    return s;
}
std::uint64_t registerTracer() {
    static std::atomic<std::uint64_t> next{1};
    const std::uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(liveMutex());
    liveIds().insert(id);
    return id;
}
void unregisterTracer(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(liveMutex());
    liveIds().erase(id);
}

struct CacheEntry {
    std::uint64_t traceId;
    void* buf;
};

/// Span ids are process-wide, so spans copied between tracers (a
/// compile session into its service) keep their ids and parent links.
std::atomic<std::uint64_t> nextSpanId{1};

/// Export order: start time, ties broken by id (begin order).
void sortByStart(std::vector<TraceSpan>& spans) {
    std::sort(spans.begin(), spans.end(),
              [](const TraceSpan& a, const TraceSpan& b) {
                  if (a.startNs != b.startNs) return a.startNs < b.startNs;
                  return a.id < b.id;
              });
}

}  // namespace

std::int64_t Tracer::nowNs() {
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

Tracer::Tracer(bool enabled) : enabled_(enabled), traceId_(registerTracer()) {}

Tracer::~Tracer() { unregisterTracer(traceId_); }

std::uint64_t Tracer::allocateSpanId() {
    return nextSpanId.fetch_add(1, std::memory_order_relaxed);
}

Tracer::ThreadBuf& Tracer::localBuf() {
    thread_local std::vector<CacheEntry> cache;
    for (const CacheEntry& e : cache)
        if (e.traceId == traceId_) return *static_cast<ThreadBuf*>(e.buf);
    // Miss: create this thread's buffer for this tracer. Keep the cache
    // bounded by dropping entries whose tracer has since died (their
    // buffer pointers dangle, but we only ever compare their ids).
    if (cache.size() >= 16) {
        std::lock_guard<std::mutex> lock(liveMutex());
        const auto& live = liveIds();
        std::erase_if(cache, [&](const CacheEntry& e) {
            return live.find(e.traceId) == live.end();
        });
    }
    auto buf = std::make_unique<ThreadBuf>();
    buf->tid = thread_registry::currentTid();
    ThreadBuf* raw = buf.get();
    {
        std::lock_guard<std::mutex> lock(bufsMu_);
        bufs_.push_back(std::move(buf));
    }
    cache.push_back({traceId_, raw});
    return *raw;
}

Tracer::Handle Tracer::begin(const char* name, const char* category) {
    if (!enabled()) return {};
    ThreadBuf& buf = localBuf();
    const std::uint64_t id = allocateSpanId();
    const std::int64_t start = nowNs();
    std::lock_guard<std::mutex> lock(buf.mu);
    TraceSpan s;
    s.name = name;
    s.category = category;
    s.startNs = start;
    s.id = id;
    s.tid = buf.tid;
    if (!buf.openIds.empty())
        s.parent = buf.openIds.back();
    else if (!buf.adopted.empty())
        s.parent = buf.adopted.back();
    const int idx = static_cast<int>(buf.spans.size());
    buf.spans.push_back(std::move(s));
    buf.openIds.push_back(id);
    buf.openIdx.push_back(idx);
    return {&buf, idx, id};
}

void Tracer::end(const Handle& h) {
    if (h.id == 0 || h.buf == nullptr) return;
    ThreadBuf& buf = *static_cast<ThreadBuf*>(h.buf);
    const std::int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(buf.mu);
    // The handle's index is a hint: drainClosed() compacts the buffer
    // under our feet, so fall back to the open-span list when the hint
    // no longer points at our span. clear() empties that list too, so
    // stale handles stay no-ops instead of corrupting another span.
    int idx = -1;
    if (h.idx >= 0 && h.idx < static_cast<int>(buf.spans.size()) &&
        buf.spans[static_cast<size_t>(h.idx)].id == h.id) {
        idx = h.idx;
    } else {
        for (std::size_t i = 0; i < buf.openIds.size(); ++i) {
            if (buf.openIds[i] == h.id) {
                idx = buf.openIdx[i];
                break;
            }
        }
    }
    if (idx < 0 || idx >= static_cast<int>(buf.spans.size())) return;
    TraceSpan& s = buf.spans[static_cast<size_t>(idx)];
    if (s.id != h.id || s.closed()) return;
    s.durNs = now - s.startNs;
    // Usually the innermost open span; a cross-thread end() may close
    // out of order, so search from the top.
    for (int i = static_cast<int>(buf.openIds.size()) - 1; i >= 0; --i) {
        if (buf.openIds[static_cast<size_t>(i)] == h.id) {
            buf.openIds.erase(buf.openIds.begin() + i);
            buf.openIdx.erase(buf.openIdx.begin() + i);
            break;
        }
    }
}

std::uint64_t Tracer::addCompleteSpan(const char* name, const char* category,
                                      std::int64_t startNs, std::int64_t durNs,
                                      SpanContext parent) {
    if (!enabled()) return 0;
    ThreadBuf& buf = localBuf();
    const std::uint64_t id = allocateSpanId();
    std::lock_guard<std::mutex> lock(buf.mu);
    TraceSpan s;
    s.name = name;
    s.category = category;
    s.startNs = startNs;
    s.durNs = durNs;
    s.id = id;
    s.tid = buf.tid;
    if (parent.spanId != 0)
        s.parent = parent.spanId;
    else if (!buf.openIds.empty())
        s.parent = buf.openIds.back();
    else if (!buf.adopted.empty())
        s.parent = buf.adopted.back();
    buf.spans.push_back(std::move(s));
    return id;
}

SpanContext Tracer::currentContext() {
    if (!enabled()) return {};
    ThreadBuf& buf = localBuf();
    std::lock_guard<std::mutex> lock(buf.mu);
    if (!buf.openIds.empty()) return {buf.openIds.back()};
    if (!buf.adopted.empty()) return {buf.adopted.back()};
    return {};
}

void Tracer::append(const Tracer& src, SpanContext parent) {
    if (!enabled()) return;
    std::vector<TraceSpan> spans = src.snapshot();
    ThreadBuf& buf = localBuf();
    std::lock_guard<std::mutex> lock(buf.mu);
    for (TraceSpan& s : spans) {
        if (s.parent == 0) s.parent = parent.spanId;
        buf.spans.push_back(std::move(s));
    }
}

std::vector<TraceSpan> Tracer::snapshot() const {
    std::vector<TraceSpan> out;
    {
        std::lock_guard<std::mutex> lock(bufsMu_);
        for (const auto& buf : bufs_) {
            std::lock_guard<std::mutex> bl(buf->mu);
            out.insert(out.end(), buf->spans.begin(), buf->spans.end());
        }
    }
    sortByStart(out);
    return out;
}

int Tracer::registerProcess(const std::string& name) {
    std::lock_guard<std::mutex> lock(remoteMu_);
    for (std::size_t i = 0; i < processNames_.size(); ++i)
        if (processNames_[i] == name) return static_cast<int>(i) + 2;
    processNames_.push_back(name);
    return static_cast<int>(processNames_.size()) + 1;
}

std::vector<std::pair<int, std::string>> Tracer::processes() const {
    std::lock_guard<std::mutex> lock(remoteMu_);
    std::vector<std::pair<int, std::string>> out;
    out.reserve(processNames_.size());
    for (std::size_t i = 0; i < processNames_.size(); ++i)
        out.emplace_back(static_cast<int>(i) + 2, processNames_[i]);
    return out;
}

void Tracer::setRemoteThreadName(int pid, int tid, const std::string& name) {
    std::lock_guard<std::mutex> lock(remoteMu_);
    remoteThreadNames_[{pid, tid}] = name;
}

std::string Tracer::remoteThreadName(int pid, int tid) const {
    std::lock_guard<std::mutex> lock(remoteMu_);
    auto it = remoteThreadNames_.find({pid, tid});
    return it == remoteThreadNames_.end() ? std::string() : it->second;
}

void Tracer::addRemoteSpan(TraceSpan s) {
    if (!enabled()) return;
    ThreadBuf& buf = localBuf();
    std::lock_guard<std::mutex> lock(buf.mu);
    buf.spans.push_back(std::move(s));
}

std::vector<TraceSpan> Tracer::drainClosed(std::size_t maxSpans) {
    std::vector<TraceSpan> out;
    {
        std::lock_guard<std::mutex> lock(bufsMu_);
        for (const auto& buf : bufs_) {
            if (out.size() >= maxSpans) break;
            std::lock_guard<std::mutex> bl(buf->mu);
            // Scan-before-move: most buffers have nothing closed (the
            // harvest runs on every traced request), and rebuilding an
            // untouched buffer would cost two allocations per call.
            bool anyClosed = false;
            for (const TraceSpan& s : buf->spans) {
                if (s.closed()) {
                    anyClosed = true;
                    break;
                }
            }
            if (!anyClosed) continue;
            bool drained = false;
            std::vector<TraceSpan> keep;
            for (TraceSpan& s : buf->spans) {
                if (s.closed() && out.size() < maxSpans) {
                    out.push_back(std::move(s));
                    drained = true;
                } else {
                    keep.push_back(std::move(s));
                }
            }
            if (!drained) continue;
            buf->spans = std::move(keep);
            // Open-span indices shifted; re-derive them from the ids.
            for (std::size_t i = 0; i < buf->openIds.size(); ++i) {
                buf->openIdx[i] = -1;
                for (std::size_t j = 0; j < buf->spans.size(); ++j) {
                    if (buf->spans[j].id == buf->openIds[i]) {
                        buf->openIdx[i] = static_cast<int>(j);
                        break;
                    }
                }
            }
        }
    }
    sortByStart(out);
    return out;
}

int Tracer::threadCount() const {
    std::lock_guard<std::mutex> lock(bufsMu_);
    int n = 0;
    for (const auto& buf : bufs_) {
        std::lock_guard<std::mutex> bl(buf->mu);
        if (!buf->spans.empty()) ++n;
    }
    return n;
}

std::size_t Tracer::spanCount() const {
    std::lock_guard<std::mutex> lock(bufsMu_);
    std::size_t n = 0;
    for (const auto& buf : bufs_) {
        std::lock_guard<std::mutex> bl(buf->mu);
        n += buf->spans.size();
    }
    return n;
}

void Tracer::clear() {
    std::lock_guard<std::mutex> lock(bufsMu_);
    for (const auto& buf : bufs_) {
        std::lock_guard<std::mutex> bl(buf->mu);
        buf->spans.clear();
        buf->openIds.clear();
        buf->openIdx.clear();
    }
}

ContextScope::ContextScope(Tracer& t, SpanContext ctx)
    : tracer_(t), pushed_(false) {
    if (!t.enabled() || ctx.spanId == 0) return;
    Tracer::ThreadBuf& buf = t.localBuf();
    std::lock_guard<std::mutex> lock(buf.mu);
    buf.adopted.push_back(ctx.spanId);
    pushed_ = true;
}

ContextScope::~ContextScope() {
    if (!pushed_) return;
    Tracer::ThreadBuf& buf = tracer_.localBuf();
    std::lock_guard<std::mutex> lock(buf.mu);
    if (!buf.adopted.empty()) buf.adopted.pop_back();
}

}  // namespace phpf::obs
