#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace phpf {

/// Process-wide registry of the threads that participate in telemetry:
/// every thread that touches an obs::Tracer or the flight recorder
/// gets a small stable integer id (assigned on first use, in first-use
/// order) and an optional human-readable name. Pool workers register
/// names like "svc-worker-0"; the Chrome trace
/// exporter turns them into named per-thread rows and the flight
/// recorder stamps every event with the recording tid.
///
/// Ids are never reused within a process; name lookups snapshot under a
/// mutex, while the per-thread id itself is a thread_local read (the
/// hot path costs nothing after the first call on a thread).
namespace thread_registry {

/// Small dense id of the calling thread (0 is the first thread that
/// ever asked — normally the main thread). Assigns on first call.
int currentTid();

/// Name the calling thread for telemetry ("svc-worker-3"). Safe to call
/// repeatedly; the last name wins. Implies registration.
void setCurrentName(const std::string& name);

/// Name of the calling thread; "thread-<tid>" when never named.
std::string currentName();

/// Name of an arbitrary registered tid ("thread-<tid>" when unnamed or
/// unknown).
std::string nameOf(int tid);

/// Snapshot of every registered (tid, name) pair, tid-ascending.
std::vector<std::pair<int, std::string>> all();

/// Threads registered so far.
int count();

}  // namespace thread_registry

}  // namespace phpf
