#pragma once

#include <string>

#include "obs/json.h"
#include "obs/trace.h"

namespace phpf::obs {

/// Convert a tracer's merged spans to the Chrome trace_event JSON
/// format (loadable in chrome://tracing and Perfetto). Each recording
/// thread becomes its own named row: a thread_name metadata ("M") event
/// per registered tid (names from the process thread registry, e.g.
/// "svc-worker-2"), and every span is a complete ("X") event on its
/// real tid with its span id and parent id in args, so cross-thread
/// parenting survives the export. Still-open spans end at the tracer's
/// current time. `processName` labels this process's pid row.
[[nodiscard]] Json buildChromeTrace(const Tracer& tracer,
                                    const std::string& processName = "phpf");

/// Write the Chrome trace to `path`; returns false on I/O failure.
bool writeChromeTrace(const Tracer& tracer, const std::string& path,
                      const std::string& processName = "phpf");

}  // namespace phpf::obs
