#include "obs/chrome_trace.h"

#include <fstream>
#include <set>
#include <utility>

#include "support/thread_registry.h"

namespace phpf::obs {

Json buildChromeTrace(const Tracer& tracer, const std::string& processName) {
    Json root = Json::object();
    Json events = Json::array();

    const std::vector<TraceSpan> spans = tracer.snapshot();

    // Process rows: pid 1 is this process; stitched remote processes
    // (cluster workers) render under their registered pids so Perfetto
    // shows one named row per worker.
    Json procMeta = Json::object();
    procMeta.set("name", "process_name");
    procMeta.set("ph", "M");
    procMeta.set("pid", 1);
    procMeta.set("tid", 0);
    Json procArgs = Json::object();
    procArgs.set("name", processName);
    procMeta.set("args", std::move(procArgs));
    events.push(std::move(procMeta));

    for (const auto& [pid, name] : tracer.processes()) {
        Json m = Json::object();
        m.set("name", "process_name");
        m.set("ph", "M");
        m.set("pid", pid);
        m.set("tid", 0);
        Json a = Json::object();
        a.set("name", name);
        m.set("args", std::move(a));
        events.push(std::move(m));
    }

    // One named row per recording (pid, tid); sort index = tid keeps
    // the main thread on top and workers in pool order. Local rows name
    // from the in-process thread registry; remote rows carry their
    // names in the tracer's remote registry.
    std::set<std::pair<int, int>> rows;
    for (const TraceSpan& s : spans)
        rows.insert({s.pid == 0 ? 1 : s.pid, s.tid});
    for (const auto& [pid, tid] : rows) {
        Json nameMeta = Json::object();
        nameMeta.set("name", "thread_name");
        nameMeta.set("ph", "M");
        nameMeta.set("pid", pid);
        nameMeta.set("tid", tid);
        Json nameArgs = Json::object();
        nameArgs.set("name", pid == 1 ? thread_registry::nameOf(tid)
                                      : tracer.remoteThreadName(pid, tid));
        nameMeta.set("args", std::move(nameArgs));
        events.push(std::move(nameMeta));

        Json sortMeta = Json::object();
        sortMeta.set("name", "thread_sort_index");
        sortMeta.set("ph", "M");
        sortMeta.set("pid", pid);
        sortMeta.set("tid", tid);
        Json sortArgs = Json::object();
        sortArgs.set("sort_index", tid);
        sortMeta.set("args", std::move(sortArgs));
        events.push(std::move(sortMeta));
    }

    const std::int64_t nowNs = tracer.nowNs();
    for (const TraceSpan& s : spans) {
        Json e = Json::object();
        e.set("name", s.name);
        e.set("cat", s.category.empty() ? std::string("span") : s.category);
        e.set("ph", "X");
        e.set("ts", static_cast<double>(s.startNs) / 1000.0);
        const std::int64_t dur = s.closed() ? s.durNs : nowNs - s.startNs;
        e.set("dur", static_cast<double>(dur) / 1000.0);
        e.set("pid", s.pid == 0 ? 1 : s.pid);
        e.set("tid", s.tid);
        Json args = Json::object();
        args.set("span_id", static_cast<std::int64_t>(s.id));
        args.set("parent_id", static_cast<std::int64_t>(s.parent));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }

    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", "ms");
    return root;
}

bool writeChromeTrace(const Tracer& tracer, const std::string& path,
                      const std::string& processName) {
    std::ofstream out(path);
    if (!out) return false;
    out << buildChromeTrace(tracer, processName).dump() << "\n";
    return static_cast<bool>(out);
}

}  // namespace phpf::obs
