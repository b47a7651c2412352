#include "spans.h"

#include <algorithm>
#include <fstream>

#include "obs/json.h"

namespace perfbench {

int SpanRecorder::begin(const char* name, std::int64_t job) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    const std::int64_t now = nowNs();
    spans_.push_back(Span{name, now, now, parent, job});
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void SpanRecorder::end(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].endNs = nowNs();
    // Spans close in LIFO order on the recording thread; tolerate an
    // out-of-order close by dropping everything opened after `id`.
    const auto it = std::find(open_.begin(), open_.end(), id);
    if (it != open_.end()) open_.erase(it, open_.end());
}

int SpanRecorder::add(std::string name, std::int64_t startNs,
                      std::int64_t endNs, int parent, std::int64_t job) {
    spans_.push_back(Span{std::move(name), startNs, endNs, parent, job});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<std::int64_t> SpanRecorder::selfNs() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans_.size());
    for (const Span& s : spans_)
        if (s.parent >= 0)
            kids[static_cast<size_t>(s.parent)].emplace_back(s.startNs, s.endNs);
    std::vector<std::int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Union of the children's intervals, clipped to the parent's.
        std::int64_t covered = 0;
        std::int64_t curLo = 0, curHi = -1;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.startNs);
            hi = std::min(hi, s.endNs);
            if (hi <= lo) continue;
            if (open && lo <= curHi) {
                curHi = std::max(curHi, hi);
                continue;
            }
            if (open) covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
            open = true;
        }
        if (open) covered += curHi - curLo;
        self[i] = s.durNs() - covered;
    }
    return self;
}

bool SpanRecorder::writeChromeTrace(const std::string& path,
                                    const std::string& processName) const {
    using phpf::obs::Json;
    Json events = Json::array();
    Json meta = Json::object();
    meta.set("name", "process_name");
    meta.set("ph", "M");
    meta.set("pid", 1);
    meta.set("tid", 1);
    Json margs = Json::object();
    margs.set("name", processName);
    meta.set("args", std::move(margs));
    events.push(std::move(meta));
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        Json e = Json::object();
        e.set("name", s.name);
        e.set("cat", "perfbench");
        e.set("ph", "X");
        e.set("ts", static_cast<double>(s.startNs) / 1e3);
        e.set("dur", static_cast<double>(s.durNs()) / 1e3);
        e.set("pid", 1);
        e.set("tid", 1);
        Json args = Json::object();
        args.set("span_id", static_cast<std::int64_t>(i));
        args.set("parent_id", static_cast<std::int64_t>(s.parent));
        args.set("job", s.job);
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    Json root = Json::object();
    root.set("traceEvents", std::move(events));
    std::ofstream out(path);
    if (!out) return false;
    out << root.dump(-1) << "\n";
    return static_cast<bool>(out);
}

}  // namespace perfbench
