// Tests for the distributed compile farm: consistent-hash ring
// determinism and bounded re-ownership, the versioned JSON wire
// protocol (round trips, tamper detection, stale-version handling),
// the hardened HTTP server's request limits, worker endpoints, the
// coordinator's two-tier cache (local LRU -> peer fetch -> compute),
// work-stealing batch execution with bit-identical results across
// cluster shapes, worker death (hash range re-owned, jobs re-queued,
// exactly-once preserved), and journal + resume across coordinator
// restarts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster_batch.h"
#include "cluster/coordinator.h"
#include "cluster/hash_ring.h"
#include "cluster/http_client.h"
#include "cluster/wire.h"
#include "cluster/worker.h"
#include "obs/json.h"
#include "service/batch.h"
#include "service/error_code.h"

namespace phpf {
namespace {

using cluster::ClusterBatchOptions;
using cluster::ClusterBatchOutcome;
using cluster::Coordinator;
using cluster::CoordinatorConfig;
using cluster::HashRing;
using cluster::HttpResult;
using cluster::KillMode;
using cluster::WireArtifact;
using cluster::WireResponse;
using cluster::Worker;
using cluster::WorkerConfig;
using service::BatchSpec;
using service::ErrorCode;

// ---------------------------------------------------------------------
// Consistent-hash ring.

TEST(HashRing, EmptyRingOwnsNothing) {
    HashRing ring;
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.ownerOf("anything"), "");
    EXPECT_TRUE(ring.ownersOf("anything", 3).empty());
}

TEST(HashRing, DeterministicAcrossInstances) {
    HashRing a, b;
    for (const char* n : {"w1", "w2", "w3", "w4"}) {
        a.add(n);
        b.add(n);
    }
    for (int i = 0; i < 200; ++i) {
        const std::string key = "key-" + std::to_string(i);
        EXPECT_EQ(a.ownerOf(key), b.ownerOf(key));
    }
}

TEST(HashRing, OwnersOfYieldsDistinctFailoverSequence) {
    HashRing ring;
    for (const char* n : {"w1", "w2", "w3"}) ring.add(n);
    const std::vector<std::string> seq = ring.ownersOf("some-key", 3);
    ASSERT_EQ(seq.size(), 3u);
    EXPECT_EQ(std::set<std::string>(seq.begin(), seq.end()).size(), 3u);
    EXPECT_EQ(seq[0], ring.ownerOf("some-key"));
    // Asking for more owners than nodes clamps.
    EXPECT_EQ(ring.ownersOf("some-key", 10).size(), 3u);
}

TEST(HashRing, RemovalMovesOnlyTheDeadNodesShare) {
    HashRing ring;
    for (const char* n : {"w1", "w2", "w3", "w4"}) ring.add(n);
    std::map<std::string, std::string> before;
    for (int i = 0; i < 400; ++i) {
        const std::string key = "key-" + std::to_string(i);
        before[key] = ring.ownerOf(key);
    }
    ring.remove("w3");
    int moved = 0, w3Keys = 0;
    for (const auto& [key, owner] : before) {
        if (owner == "w3") {
            ++w3Keys;
            continue;  // had to move
        }
        if (ring.ownerOf(key) != owner) ++moved;
    }
    // The whole point of consistent hashing: only the dead node's keys
    // re-route. Keys owned by survivors stay put.
    EXPECT_GT(w3Keys, 0);
    EXPECT_EQ(moved, 0);
    // And they re-route to survivors, spread around.
    for (const auto& [key, owner] : before) {
        if (owner == "w3") {
            EXPECT_NE(ring.ownerOf(key), "w3");
        }
    }
}

TEST(HashRing, ReAddRestoresOwnership) {
    HashRing ring;
    for (const char* n : {"w1", "w2", "w3"}) ring.add(n);
    std::map<std::string, std::string> before;
    for (int i = 0; i < 100; ++i) {
        const std::string key = "k" + std::to_string(i);
        before[key] = ring.ownerOf(key);
    }
    ring.remove("w2");
    ring.add("w2");
    for (const auto& [key, owner] : before) EXPECT_EQ(ring.ownerOf(key), owner);
}

// ---------------------------------------------------------------------
// Remote-layer error taxonomy (the retry policy's contract).

TEST(ClusterErrorCode, RemoteCodesAreTransient) {
    // All three remote failures are worth re-routing: a dead worker's
    // range is re-owned, so the retry lands somewhere the failure
    // cannot simply repeat.
    EXPECT_TRUE(service::isTransient(ErrorCode::RemoteUnreachable));
    EXPECT_TRUE(service::isTransient(ErrorCode::PeerTimeout));
    EXPECT_TRUE(service::isTransient(ErrorCode::StaleWorker));
    // Sanity: the permanent classes stayed permanent.
    EXPECT_FALSE(service::isTransient(ErrorCode::ParseError));
    EXPECT_FALSE(service::isTransient(ErrorCode::Internal));
    EXPECT_FALSE(service::isTransient(ErrorCode::None));
}

TEST(ClusterErrorCode, RemoteCodeNamesAreStable) {
    EXPECT_STREQ(service::errorCodeName(ErrorCode::RemoteUnreachable),
                 "remote-unreachable");
    EXPECT_STREQ(service::errorCodeName(ErrorCode::PeerTimeout),
                 "peer-timeout");
    EXPECT_STREQ(service::errorCodeName(ErrorCode::StaleWorker),
                 "stale-worker");
}

// ---------------------------------------------------------------------
// Wire protocol.

service::BatchJob sampleJob() {
    service::BatchJob job;
    job.name = "sample";
    job.program = "fig1";
    job.n = 16;
    job.target.gridExtents = {4};
    job.passes.mapping.partialPrivatization = true;
    job.deadlineMs = 5000;
    return job;
}

TEST(Wire, JobSurvivesRoundTrip) {
    const service::BatchJob job = sampleJob();
    const obs::Json j = service::batchJobToJson(job);
    service::BatchJob back;
    std::string err;
    ASSERT_TRUE(service::parseBatchJob(j, 0, &back, &err)) << err;
    // Canonical form is the equality test: serialize both and compare.
    EXPECT_EQ(service::batchJobToJson(back).dump(-1), j.dump(-1));
    EXPECT_EQ(back.name, "sample");
    EXPECT_EQ(back.program, "fig1");
    EXPECT_EQ(back.n, 16);
    EXPECT_EQ(back.deadlineMs, 5000);
    EXPECT_TRUE(back.passes.mapping.partialPrivatization);
}

TEST(Wire, CompileRequestRoundTrip) {
    const std::string body = cluster::encodeCompileRequest(sampleJob());
    service::BatchJob back;
    std::string err;
    ASSERT_TRUE(cluster::parseCompileRequest(body, &back, &err)) << err;
    EXPECT_EQ(back.program, "fig1");
}

TEST(Wire, RequestVersionMismatchRejected) {
    obs::Json j = obs::Json::parse(cluster::encodeCompileRequest(sampleJob()));
    j.set("v", cluster::kWireVersion + 1);
    service::BatchJob back;
    std::string err;
    EXPECT_FALSE(cluster::parseCompileRequest(j.dump(-1), &back, &err));
    EXPECT_NE(err.find("version"), std::string::npos);
}

WireArtifact sampleArtifact() {
    WireArtifact a;
    a.key = "p0123|opts";
    a.programName = "fig1";
    a.spmdText = "spmd text";
    a.decisionReport = "decisions";
    a.computeSec = 0.125;
    a.commSec = 0.0625;
    a.messageEvents = 42;
    a.commBytes = 1024;
    return a;
}

TEST(Wire, ArtifactSurvivesRoundTrip) {
    const WireArtifact a = sampleArtifact();
    WireArtifact back;
    std::string err;
    ASSERT_TRUE(WireArtifact::fromJson(a.toJson(), &back, &err)) << err;
    EXPECT_EQ(back.contentHash(), a.contentHash());
    EXPECT_EQ(back.key, a.key);
    EXPECT_EQ(back.spmdText, a.spmdText);
    EXPECT_EQ(back.messageEvents, 42);
}

TEST(Wire, TamperedArtifactDetected) {
    obs::Json j = sampleArtifact().toJson();
    j.set("spmd", "tampered payload");  // content_hash now lies
    WireArtifact back;
    std::string err;
    EXPECT_FALSE(WireArtifact::fromJson(j, &back, &err));
    EXPECT_NE(err.find("hash"), std::string::npos);
}

TEST(Wire, ResponseVersionMismatchParsesAsStaleWorker) {
    // A peer speaking another protocol version is a ROUTING outcome
    // (re-route via the transient policy), not a parse error.
    obs::Json j = obs::Json::object();
    j.set("v", cluster::kWireVersion + 7);
    j.set("worker", "w-old");
    WireResponse r;
    std::string err;
    ASSERT_TRUE(cluster::parseWireResponse(j.dump(-1), &r, &err)) << err;
    EXPECT_EQ(r.code, ErrorCode::StaleWorker);
    EXPECT_FALSE(r.ok());
}

TEST(Wire, MalformedResponseIsAnError) {
    WireResponse r;
    std::string err;
    EXPECT_FALSE(cluster::parseWireResponse("not json at all", &r, &err));
}

// ---------------------------------------------------------------------
// Worker endpoints + hardened HTTP limits.

std::unique_ptr<Worker> startWorker(const FaultInjector* faults = nullptr,
                                    int wireVersion = cluster::kWireVersion) {
    WorkerConfig cfg;
    cfg.killMode = KillMode::Drop;  // never _exit the test runner
    cfg.service.cacheCapacity = 32;
    cfg.service.workers = 2;
    cfg.faults = faults;
    cfg.wireVersion = wireVersion;
    auto w = std::make_unique<Worker>(cfg);
    std::string err;
    EXPECT_TRUE(w->start(&err)) << err;
    return w;
}

TEST(ClusterWorker, CompileAndArtifactFetch) {
    auto w = startWorker();
    const std::string body = cluster::encodeCompileRequest(sampleJob());
    HttpResult r =
        cluster::httpPost("127.0.0.1", w->port(), "/compile", body, 10000);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.status, 200);
    WireResponse resp;
    std::string err;
    ASSERT_TRUE(cluster::parseWireResponse(r.body, &resp, &err)) << err;
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_EQ(resp.worker, w->id());
    EXPECT_FALSE(resp.artifact.key.empty());

    // The artifact is now cached: peer fetch finds it...
    HttpResult hit = cluster::httpGet(
        "127.0.0.1", w->port(), "/artifact/" + resp.artifact.key, 10000);
    ASSERT_TRUE(hit.ok) << hit.error;
    EXPECT_EQ(hit.status, 200);
    WireResponse fetched;
    ASSERT_TRUE(cluster::parseWireResponse(hit.body, &fetched, &err)) << err;
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched.artifact.contentHash(), resp.artifact.contentHash());

    // ...and a bogus key 404s without compiling anything.
    HttpResult miss =
        cluster::httpGet("127.0.0.1", w->port(), "/artifact/bogus", 10000);
    ASSERT_TRUE(miss.ok) << miss.error;
    EXPECT_EQ(miss.status, 404);
}

TEST(ClusterWorker, MalformedCompileBodyIs400) {
    auto w = startWorker();
    HttpResult r = cluster::httpPost("127.0.0.1", w->port(), "/compile",
                                     "{\"v\":" +
                                         std::to_string(cluster::kWireVersion) +
                                         ",\"job\":{}}",
                                     10000);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status, 400);
}

TEST(HttpLimits, OversizedBodyRejectedWith413) {
    WorkerConfig cfg;
    cfg.killMode = KillMode::Drop;
    cfg.limits.maxBodyBytes = 1024;
    Worker w(cfg);
    std::string err;
    ASSERT_TRUE(w.start(&err)) << err;
    const std::string huge(4096, 'x');
    HttpResult r =
        cluster::httpPost("127.0.0.1", w.port(), "/compile", huge, 10000);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status, 413);
    EXPECT_GE(w.server().requestsRejected(), 1);
}

TEST(HttpLimits, OversizedHeaderRejectedWith431) {
    WorkerConfig cfg;
    cfg.killMode = KillMode::Drop;
    cfg.limits.maxHeaderBytes = 512;
    Worker w(cfg);
    std::string err;
    ASSERT_TRUE(w.start(&err)) << err;
    HttpResult r = cluster::httpGet("127.0.0.1", w.port(),
                                    "/" + std::string(2048, 'a'), 10000);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status, 431);
    EXPECT_GE(w.server().requestsRejected(), 1);
}

// ---------------------------------------------------------------------
// Coordinator: tiers, routing, farm membership.

BatchSpec specOf(const char* text) {
    std::string perr, err;
    const obs::Json doc = obs::Json::parse(text, &perr);
    EXPECT_TRUE(perr.empty()) << perr;
    BatchSpec spec;
    EXPECT_TRUE(service::parseBatchSpec(doc, &spec, &err)) << err;
    return spec;
}

const char* kSmallBatch = R"({
  "jobs": [
    {"name": "a", "program": "fig1", "n": 16, "grid": [4]},
    {"name": "b", "program": "fig1", "n": 16, "grid": [2]},
    {"name": "c", "program": "fig1", "n": 16, "grid": [4],
     "options": {"privatization": false}},
    {"name": "d", "program": "fig1", "n": 16, "grid": [4]},
    {"name": "e", "program": "fig1", "n": 32, "grid": [4]},
    {"name": "f", "program": "fig1", "n": 16, "grid": [2]},
    {"name": "g", "program": "fig1", "n": 32, "grid": [2]},
    {"name": "h", "program": "fig1", "n": 16, "grid": [4],
     "options": {"align_policy": "producer-only"}}
  ]
})";

std::map<std::string, std::string> hashesOf(const std::string& jsonl) {
    std::map<std::string, std::string> out;
    std::istringstream in(jsonl);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        const obs::Json row = obs::Json::parse(line);
        if (row.find("summary") != nullptr) continue;
        out[row.at("job").stringValue()] =
            row.at("content_hash").stringValue();
    }
    return out;
}

TEST(ClusterCoordinator, JoinRejectsUnreachableAndStaleWorkers) {
    Coordinator coord;
    std::string err;
    EXPECT_FALSE(coord.addWorker("127.0.0.1:1", &err));  // nothing there
    EXPECT_EQ(coord.workerCount(), 0u);

    auto stale = startWorker(nullptr, /*wireVersion=*/99);
    EXPECT_FALSE(coord.addWorker(stale->endpoint(), &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
    EXPECT_EQ(coord.workerCount(), 0u);

    auto good = startWorker();
    EXPECT_TRUE(coord.addWorker(good->endpoint(), &err)) << err;
    EXPECT_EQ(coord.workerCount(), 1u);
}

TEST(ClusterCoordinator, TwoTierCacheLocalThenPeer) {
    auto w = startWorker();
    CoordinatorConfig cc;
    cc.cacheCapacity = 1;  // tiny local tier forces evictions
    Coordinator coord(cc);
    std::string err;
    ASSERT_TRUE(coord.addWorker(w->endpoint(), &err)) << err;

    service::BatchJob jobA = sampleJob();
    service::BatchJob jobB = sampleJob();
    jobB.n = 32;  // different compile

    auto first = coord.compileJob(jobA);
    ASSERT_TRUE(first.ok()) << first.error;
    EXPECT_FALSE(first.localHit);
    EXPECT_FALSE(first.peerHit);

    // Same job again: the coordinator tier answers, no network.
    auto second = coord.compileJob(jobA);
    ASSERT_TRUE(second.ok()) << second.error;
    EXPECT_TRUE(second.localHit);

    // Evict A from the 1-entry local tier, then ask for A again: the
    // location hint routes a peer fetch, which must NOT recompile.
    auto other = coord.compileJob(jobB);
    ASSERT_TRUE(other.ok()) << other.error;
    auto third = coord.compileJob(jobA);
    ASSERT_TRUE(third.ok()) << third.error;
    EXPECT_TRUE(third.peerHit);
    EXPECT_EQ(third.artifact.contentHash(), first.artifact.contentHash());
    EXPECT_GE(w->metrics().counterValue("cluster.worker.artifact_hits"), 1);
}

TEST(ClusterCoordinator, RoutingKeyIgnoresJobName) {
    service::BatchJob a = sampleJob();
    service::BatchJob b = sampleJob();
    b.name = "a totally different label";
    EXPECT_EQ(Coordinator::routingKey(a), Coordinator::routingKey(b));
    b.n = 32;
    EXPECT_NE(Coordinator::routingKey(a), Coordinator::routingKey(b));
}

// ---------------------------------------------------------------------
// Distributed batch: bit-identity, stealing, exactly-once.

TEST(ClusterBatch, ResultsBitIdenticalAcrossClusterShapes) {
    // The same batch through a 3-worker farm and a 1-worker farm must
    // produce identical content hashes for every row — distribution
    // must never change results.
    auto w1 = startWorker();
    auto w2 = startWorker();
    auto w3 = startWorker();
    Coordinator three;
    std::string err;
    ASSERT_TRUE(three.addWorker(w1->endpoint(), &err)) << err;
    ASSERT_TRUE(three.addWorker(w2->endpoint(), &err)) << err;
    ASSERT_TRUE(three.addWorker(w3->endpoint(), &err)) << err;

    std::ostringstream outThree;
    ClusterBatchOutcome a =
        cluster::runClusterBatch(three, specOf(kSmallBatch), outThree);
    EXPECT_EQ(a.ok, 8);
    EXPECT_EQ(a.failed, 0);
    EXPECT_TRUE(a.exactlyOnce);

    auto solo = startWorker();
    Coordinator one;
    ASSERT_TRUE(one.addWorker(solo->endpoint(), &err)) << err;
    std::ostringstream outOne;
    ClusterBatchOutcome b =
        cluster::runClusterBatch(one, specOf(kSmallBatch), outOne);
    EXPECT_EQ(b.ok, 8);
    EXPECT_TRUE(b.exactlyOnce);

    const auto hashesA = hashesOf(outThree.str());
    const auto hashesB = hashesOf(outOne.str());
    ASSERT_EQ(hashesA.size(), 8u);
    EXPECT_EQ(hashesA, hashesB);
}

TEST(ClusterBatch, WorkerDeathReownsRangeAndStaysExactlyOnce) {
    // One worker dies on its first compile (Drop mode: connection cut,
    // then mute forever). The batch must still complete every job
    // exactly once on the survivors, and the dead worker's hash range
    // must be re-owned.
    FaultInjector faults;
    std::string ferr;
    ASSERT_TRUE(
        faults.configure("cluster.worker_kill:nth=1;limit=1", &ferr))
        << ferr;

    auto victim = startWorker(&faults);
    auto w2 = startWorker();
    auto w3 = startWorker();
    Coordinator coord;
    std::string err;
    ASSERT_TRUE(coord.addWorker(victim->endpoint(), &err)) << err;
    ASSERT_TRUE(coord.addWorker(w2->endpoint(), &err)) << err;
    ASSERT_TRUE(coord.addWorker(w3->endpoint(), &err)) << err;
    ASSERT_EQ(coord.workerCount(), 3u);

    std::ostringstream out;
    ClusterBatchOutcome o =
        cluster::runClusterBatch(coord, specOf(kSmallBatch), out);
    EXPECT_EQ(o.ok, 8) << out.str();
    EXPECT_EQ(o.failed, 0);
    EXPECT_TRUE(o.exactlyOnce);
    EXPECT_TRUE(victim->killed());
    // The corpse is off the ring; its range belongs to the survivors.
    EXPECT_EQ(coord.workerCount(), 2u);
    const auto alive = coord.aliveWorkers();
    EXPECT_EQ(std::count(alive.begin(), alive.end(), victim->endpoint()), 0);
}

TEST(ClusterBatch, JournalPlusResumeSkipsCompletedJobs) {
    const std::string journal =
        testing::TempDir() + "phpf_cluster_journal.jsonl";
    std::remove(journal.c_str());

    auto w = startWorker();
    Coordinator coord;
    std::string err;
    ASSERT_TRUE(coord.addWorker(w->endpoint(), &err)) << err;

    ClusterBatchOptions opts;
    opts.journalPath = journal;
    std::ostringstream out1;
    ClusterBatchOutcome first =
        cluster::runClusterBatch(coord, specOf(kSmallBatch), out1, opts);
    EXPECT_EQ(first.ok, 8);

    // "Restart": a fresh coordinator resuming from the journal has
    // nothing left to do — every job already completed exactly once.
    Coordinator coord2;
    ASSERT_TRUE(coord2.addWorker(w->endpoint(), &err)) << err;
    ClusterBatchOptions resume;
    resume.journalPath = journal;
    resume.resume = true;
    std::ostringstream out2;
    ClusterBatchOutcome second =
        cluster::runClusterBatch(coord2, specOf(kSmallBatch), out2, resume);
    EXPECT_EQ(second.skipped, 8);
    EXPECT_EQ(second.ok, 0);
    EXPECT_TRUE(second.exactlyOnce);
    std::remove(journal.c_str());
}

TEST(ClusterBatch, NoWorkersFailsEveryRowOnce) {
    Coordinator coord;  // nobody ever joined
    std::ostringstream out;
    ClusterBatchOutcome o =
        cluster::runClusterBatch(coord, specOf(kSmallBatch), out);
    EXPECT_EQ(o.ok, 0);
    EXPECT_EQ(o.failed, 8);
    EXPECT_TRUE(o.exactlyOnce);
    std::istringstream in(out.str());
    std::string line;
    int rows = 0;
    while (std::getline(in, line)) {
        const obs::Json row = obs::Json::parse(line);
        if (row.find("summary") != nullptr) continue;
        ++rows;
        EXPECT_EQ(row.at("code").stringValue(), "remote-unreachable");
    }
    EXPECT_EQ(rows, 8);
}

}  // namespace
}  // namespace phpf
