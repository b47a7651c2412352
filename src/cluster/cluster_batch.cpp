#include "cluster/cluster_batch.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include "service/batch_journal.h"

namespace phpf::cluster {

using service::BatchJob;
using service::CompileStatus;
using service::ErrorCode;

namespace {

obs::Json rowOf(const BatchJob& job, const ClusterOutcome& o, int requeues) {
    obs::Json row = obs::Json::object();
    row.set("job", job.name);
    row.set("status", service::statusName(o.status));
    row.set("code", service::errorCodeName(o.code));
    row.set("ok", o.ok());
    if (o.hasArtifact) {
        row.set("key", o.artifact.key);
        row.set("content_hash", o.artifact.contentHash());
        row.set("total_sec", o.artifact.computeSec + o.artifact.commSec);
    }
    if (!o.worker.empty()) row.set("worker", o.worker);
    if (!o.traceId.empty()) row.set("trace_id", o.traceId);
    row.set("local_hit", o.localHit);
    row.set("peer_hit", o.peerHit);
    row.set("worker_hit", o.workerHit);
    row.set("attempts", o.attempts);
    if (requeues > 0) row.set("requeues", requeues);
    if (!o.error.empty()) row.set("error", o.error);
    return row;
}

}  // namespace

ClusterBatchOutcome runClusterBatch(Coordinator& coord,
                                    const service::BatchSpec& spec,
                                    std::ostream& out,
                                    const ClusterBatchOptions& opts) {
    auto t0 = std::chrono::steady_clock::now();
    ClusterBatchOutcome outcome;
    outcome.jobs = static_cast<int>(spec.jobs.size());

    // Resume: names already journaled by a previous run are done —
    // their jobs are never scheduled, so nothing can run twice.
    service::BatchJournal journal(out, opts.journalPath, opts.resume);

    // Affinity queues: one per alive worker, each job on its ring
    // owner's queue. Queue fronts are the owner's warm path; thieves
    // take from the back (the classic deque split keeps owner locality
    // where it matters most).
    std::mutex qmu;
    std::condition_variable qcv;
    std::map<std::string, std::deque<int>> queues;
    std::vector<int> requeueCount(spec.jobs.size(), 0);
    int unfinished = 0;

    std::vector<std::string> workers = coord.aliveWorkers();
    for (const std::string& w : workers) queues[w];

    std::mutex statsMu;  // guards the tallies below until threads join
    auto finish = [&](int index, const ClusterOutcome& o) {
        const BatchJob& job = spec.jobs[static_cast<std::size_t>(index)];
        journal.emit(job.name, rowOf(job, o, requeueCount[index]));
        std::lock_guard<std::mutex> lk(statsMu);
        if (o.ok()) {
            ++outcome.ok;
            if (o.localHit) ++outcome.localHits;
            if (o.peerHit) ++outcome.peerHits;
            if (o.workerHit) ++outcome.workerHits;
            if (!o.localHit && !o.peerHit && !o.workerHit)
                ++outcome.compiles;
        } else {
            ++outcome.failed;
        }
    };

    {
        std::lock_guard<std::mutex> lk(qmu);
        for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
            if (journal.done(spec.jobs[i].name)) {
                ++outcome.skipped;
                continue;
            }
            std::string owner = coord.ownerOf(spec.jobs[i]);
            if (owner.empty()) {
                // No cluster at all: fail the row now, exactly once.
                ClusterOutcome dead;
                dead.code = ErrorCode::RemoteUnreachable;
                dead.error = "no alive worker";
                finish(static_cast<int>(i), dead);
                continue;
            }
            queues[owner].push_back(static_cast<int>(i));
            ++unfinished;
        }
    }

    auto dispatcher = [&](const std::string& myWorker) {
        for (;;) {
            int index = -1;
            bool stolen = false;
            {
                std::unique_lock<std::mutex> lk(qmu);
                for (;;) {
                    if (unfinished == 0) return;
                    auto mine = queues.find(myWorker);
                    if (mine != queues.end() && !mine->second.empty()) {
                        index = mine->second.front();
                        mine->second.pop_front();
                        break;
                    }
                    // Steal from the longest backlog — a dead or slow
                    // worker's queue drains through everyone else.
                    auto victim = queues.end();
                    std::size_t longest = 0;
                    for (auto it = queues.begin(); it != queues.end(); ++it)
                        if (it->first != myWorker &&
                            it->second.size() > longest) {
                            longest = it->second.size();
                            victim = it;
                        }
                    if (victim != queues.end()) {
                        index = victim->second.back();
                        victim->second.pop_back();
                        stolen = true;
                        break;
                    }
                    // Nothing queued but jobs are in flight — one may
                    // be re-queued yet.
                    qcv.wait_for(lk, std::chrono::milliseconds(50));
                }
            }

            ClusterOutcome o = coord.compileJob(
                spec.jobs[static_cast<std::size_t>(index)], myWorker);
            if (stolen) {
                std::lock_guard<std::mutex> lk(statsMu);
                ++outcome.steals;
            }

            bool requeue = false;
            if (!o.ok() && service::isTransient(o.code) &&
                requeueCount[index] < opts.maxRequeues) {
                std::lock_guard<std::mutex> lk(qmu);
                // Current ring owner — a re-owned hash range re-routes
                // the job automatically. Requires a survivor.
                std::string owner =
                    coord.ownerOf(spec.jobs[static_cast<std::size_t>(index)]);
                if (!owner.empty()) {
                    ++requeueCount[index];
                    queues[owner].push_back(index);
                    requeue = true;
                }
            }
            if (requeue) {
                {
                    std::lock_guard<std::mutex> lk(statsMu);
                    ++outcome.requeues;
                }
                qcv.notify_all();
                continue;
            }

            finish(index, o);
            {
                std::lock_guard<std::mutex> lk(qmu);
                --unfinished;
            }
            qcv.notify_all();
        }
    };

    int perWorker = std::max(1, opts.dispatchersPerWorker);
    std::vector<std::thread> threads;
    threads.reserve(workers.size() * static_cast<std::size_t>(perWorker));
    for (const std::string& w : workers)
        for (int d = 0; d < perWorker; ++d)
            threads.emplace_back(dispatcher, w);
    for (std::thread& t : threads) t.join();

    // Jobs that queued but found no surviving worker to re-queue onto
    // were finished inside the loop; `unfinished` is 0 here by
    // construction unless there were no workers at all (no threads).
    if (workers.empty()) {
        std::lock_guard<std::mutex> lk(qmu);
        for (auto& [owner, q] : queues)
            for (int index : q) {
                ClusterOutcome dead;
                dead.code = ErrorCode::RemoteUnreachable;
                dead.error = "no alive worker";
                finish(index, dead);
            }
    }

    outcome.exactlyOnce = journal.duplicates() == 0;
    outcome.wallSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    obs::Json summary = obs::Json::object();
    summary.set("summary", true);
    summary.set("schema", "phpf.cluster_batch_report");
    summary.set("schema_version", 1);
    summary.set("jobs", outcome.jobs);
    summary.set("ok", outcome.ok);
    summary.set("failed", outcome.failed);
    summary.set("skipped", outcome.skipped);
    summary.set("local_hits", outcome.localHits);
    summary.set("peer_hits", outcome.peerHits);
    summary.set("worker_hits", outcome.workerHits);
    summary.set("compiles", outcome.compiles);
    summary.set("steals", outcome.steals);
    summary.set("requeues", outcome.requeues);
    summary.set("exactly_once", outcome.exactlyOnce);
    summary.set("wall_sec", outcome.wallSec);
    obs::Json ws = obs::Json::array();
    for (const std::string& w : coord.aliveWorkers()) ws.push(w);
    summary.set("workers", std::move(ws));
    // Slowest requests with their full causal chains — the batch's own
    // "why was this slow" exemplars, no trace viewer required.
    std::vector<RequestChain> slow = coord.slowRequests();
    if (!slow.empty()) {
        obs::Json sl = obs::Json::array();
        for (const RequestChain& c : slow) sl.push(c.toJson());
        summary.set("slow_requests", std::move(sl));
    }
    out << summary.dump(-1) << "\n";
    out.flush();

    return outcome;
}

}  // namespace phpf::cluster
