#include "cluster/trace_stitch.h"

#include <algorithm>
#include <unordered_map>

namespace phpf::cluster {

std::int64_t estimateClockOffsetNs(std::int64_t sendNs,
                                   std::int64_t remoteRecvNs,
                                   std::int64_t remoteSendNs,
                                   std::int64_t recvNs) {
    // worker + offset = coordinator. From the two one-way legs:
    //   sendNs + delay1 = remoteRecvNs + offset
    //   remoteSendNs + offset + delay2 = recvNs
    // Assume delay1 == delay2 and solve.
    return ((sendNs - remoteRecvNs) + (recvNs - remoteSendNs)) / 2;
}

void SpanStitcher::addBatch(const std::string& workerKey,
                            const std::string& displayName,
                            std::int64_t offsetNs,
                            std::int64_t uncertaintyNs,
                            std::vector<WireSpan> spans) {
    std::lock_guard<std::mutex> lock(mu_);
    WorkerSpans& w = workers_[workerKey];
    if (w.displayName.empty()) w.displayName = displayName;
    if (uncertaintyNs < w.uncertaintyNs) {
        w.uncertaintyNs = uncertaintyNs;
        w.offsetNs = offsetNs;
    }
    for (WireSpan& s : spans) {
        if (total_ >= maxSpans_) {
            ++dropped_;
            continue;
        }
        ++total_;
        w.spans.push_back(std::move(s));
    }
}

std::size_t SpanStitcher::spanCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
}

StitchStats SpanStitcher::stitchInto(obs::Tracer& tracer) {
    std::lock_guard<std::mutex> lock(mu_);
    StitchStats st;
    st.dropped = dropped_;

    for (auto& [key, w] : workers_) {
        if (w.spans.empty()) continue;
        ++st.workers;
        const int pid = tracer.registerProcess(w.displayName);

        // Renumber the worker's whole id space first so in-batch parent
        // references resolve regardless of which response carried which
        // span.
        std::unordered_map<std::uint64_t, std::uint64_t> idMap;
        idMap.reserve(w.spans.size());
        for (const WireSpan& s : w.spans) idMap[s.id] = tracer.allocateSpanId();

        std::uint64_t lostId = 0;
        std::int64_t lostStart = 0, lostEnd = 0;

        for (WireSpan& s : w.spans) {
            obs::TraceSpan cs;
            cs.name = std::move(s.name);
            cs.category = std::move(s.category);
            cs.startNs = s.startNs + w.offsetNs;
            cs.durNs = s.durNs < 0 ? 0 : s.durNs;
            cs.id = idMap[s.id];
            cs.tid = s.tid;
            cs.pid = pid;
            if (s.ctx != 0) {
                // The propagated coordinator span id: already in the
                // target id space, the one true cross-process edge.
                cs.parent = s.ctx;
            } else if (s.parent == 0) {
                // A genuine worker-side root (work outside any traced
                // request): floats as a root on the worker's row.
                cs.parent = 0;
            } else if (idMap.count(s.parent) != 0) {
                cs.parent = idMap[s.parent];
            } else {
                // Parent never made it back (worker died mid-request,
                // batch cap, dropped response). Keep the span; hang it
                // under a synthetic per-worker "lost" row.
                if (lostId == 0) {
                    lostId = tracer.allocateSpanId();
                    lostStart = cs.startNs;
                    lostEnd = cs.startNs + cs.durNs;
                }
                lostStart = std::min(lostStart, cs.startNs);
                lostEnd = std::max(lostEnd, cs.startNs + cs.durNs);
                cs.parent = lostId;
                ++st.orphans;
            }
            if (!s.threadName.empty())
                tracer.setRemoteThreadName(pid, s.tid, s.threadName);
            tracer.addRemoteSpan(std::move(cs));
            ++st.spans;
        }

        if (lostId != 0) {
            obs::TraceSpan lost;
            lost.name = "lost:" + w.displayName;
            lost.category = "cluster";
            lost.startNs = lostStart;
            lost.durNs = lostEnd - lostStart;
            lost.id = lostId;
            lost.tid = 0;
            lost.pid = pid;
            tracer.setRemoteThreadName(pid, 0, "(lost spans)");
            tracer.addRemoteSpan(std::move(lost));
        }
    }

    workers_.clear();
    total_ = 0;
    dropped_ = 0;
    return st;
}

}  // namespace phpf::cluster
