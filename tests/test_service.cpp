// Tests for the concurrent compile service: cache-key canonicalization
// (what must collide, what must not), in-flight request coalescing,
// LRU eviction, deadline cancellation, the stage-oriented pipeline, the
// batch runner, and bit-identical cached-vs-fresh results over the
// paper's Table 1/2/3 variants.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <sstream>
#include <thread>

#include "driver/compiler.h"
#include "frontend/parser.h"
#include "ir/printer.h"
#include "programs/programs.h"
#include "service/artifact_cache.h"
#include "service/batch.h"
#include "service/compile_service.h"
#include "service/fingerprint.h"

namespace phpf {
namespace {

using service::ArtifactCache;
using service::CompileArtifact;
using service::CompileRequest;
using service::CompileResult;
using service::CompileService;
using service::CompileStatus;

// ---------------------------------------------------------------------
// Cache-key canonicalization: requests that MUST share one entry.

TEST(Fingerprint, DefaultedAndExplicitOptionsCollide) {
    TargetConfig defaulted;
    defaulted.gridExtents = {4};

    TargetConfig spelledOut;
    spelledOut.gridExtents = {4};
    spelledOut.costModel = CostModel{};  // every field at its default

    PassOptions p1;
    PassOptions p2;
    p2.mapping = MappingOptions{};

    EXPECT_EQ(service::canonicalOptionsKey(defaulted, p1),
              service::canonicalOptionsKey(spelledOut, p2));
}

TEST(Fingerprint, SourceFormattingDoesNotSplitTheFingerprint) {
    // The fingerprint hashes the canonical printed program, so
    // whitespace/comment differences in the source text collide.
    CompileService svc;
    CompileRequest a;
    a.source = R"(
program f
  parameter (n = 16)
  real A(n), B(n)
!hpf$ distribute A(block)
!hpf$ align B(i) with A(i)
  do i = 2, n-1
    A(i) = B(i-1)
  end do
end
)";
    CompileRequest b;
    b.source = R"(
program f
  parameter (n = 16)

  real A(n), B(n)
! formatting and comments must not split the cache key
!hpf$ distribute A(block)
!hpf$ align B(i) with A(i)
  do i = 2, n - 1
      A(i)   =   B(i - 1)
  end do
end
)";
    b.target = a.target;
    const CompileResult ra = svc.compile(a);
    const CompileResult rb = svc.compile(b);
    ASSERT_EQ(ra.status, CompileStatus::Ok) << ra.error;
    ASSERT_EQ(rb.status, CompileStatus::Ok) << rb.error;
    EXPECT_EQ(ra.key, rb.key);
    EXPECT_TRUE(rb.cacheHit);
    EXPECT_EQ(ra.artifact.get(), rb.artifact.get());
}

TEST(Fingerprint, BuilderAndSourceProvenanceCollide) {
    // The same program arriving as IR (builder) and as parsed source
    // must hash identically — the fingerprint is over canonical IR
    // text, not over provenance.
    Program built = programs::fig1(16);
    built.finalize();
    DiagEngine diags;
    Parser parser(printProgram(built), diags);
    Program parsed = parser.parse();
    ASSERT_FALSE(diags.hasErrors()) << diags.dump();
    parsed.finalize();
    EXPECT_EQ(service::programFingerprint(built),
              service::programFingerprint(parsed));
}

// ---------------------------------------------------------------------
// Cache-key canonicalization: requests that must NOT share an entry.

TEST(Fingerprint, GridShapeSplitsTheKey) {
    // {4} and {2,2} have equal processor counts but different mapping
    // spaces — Table 3's 1-D vs 2-D distinction depends on this.
    TargetConfig flat;
    flat.gridExtents = {4};
    TargetConfig square;
    square.gridExtents = {2, 2};
    PassOptions p;
    EXPECT_NE(service::canonicalOptionsKey(flat, p),
              service::canonicalOptionsKey(square, p));
}

TEST(Fingerprint, CostModelAndMappingVariantsSplitTheKey) {
    TargetConfig base;
    base.gridExtents = {4};
    PassOptions p;
    const std::string baseKey = service::canonicalOptionsKey(base, p);

    TargetConfig elem = base;
    elem.costModel.elemBytes = 4;
    EXPECT_NE(service::canonicalOptionsKey(elem, p), baseKey);

    TargetConfig combine = base;
    combine.costModel.combineMessages = true;
    EXPECT_NE(service::canonicalOptionsKey(combine, p), baseKey);

    PassOptions producerOnly;
    producerOnly.mapping.alignPolicy =
        MappingOptions::AlignPolicy::ProducerOnly;
    EXPECT_NE(service::canonicalOptionsKey(base, producerOnly), baseKey);

    PassOptions noPriv;
    noPriv.mapping.privatization = false;
    EXPECT_NE(service::canonicalOptionsKey(base, noPriv), baseKey);

    PassOptions noInduction;
    noInduction.rewriteInduction = false;
    EXPECT_NE(service::canonicalOptionsKey(base, noInduction), baseKey);
}

TEST(Fingerprint, RelaxedMergeSplitsTheKey) {
    // The relaxed-merge mode is artifact identity: relaxed merges are
    // numerically distinct for float SUM reductions. Near-miss: every
    // other field equal, exactly the flag flipped.
    TargetConfig base;
    base.gridExtents = {4};
    PassOptions p;
    const std::string baseKey = service::canonicalOptionsKey(base, p);

    PassOptions relaxed = p;
    relaxed.relaxedMerge = true;
    EXPECT_NE(service::canonicalOptionsKey(base, relaxed), baseKey);
}

TEST(Fingerprint, TargetKindSplitsTheKey) {
    // Identical program/options differing ONLY in the target kind must
    // produce distinct keys: mp and shm artifacts differ in emitted
    // text, predicted tables, and simulation accounting.
    TargetConfig mp;
    mp.gridExtents = {4};
    TargetConfig shm = mp;
    shm.targetKind = TargetKind::SharedMemory;
    PassOptions p;
    EXPECT_NE(service::canonicalOptionsKey(mp, p),
              service::canonicalOptionsKey(shm, p));

    // The shared-memory machine parameters are part of shm identity...
    TargetConfig slowBarrier = shm;
    slowBarrier.shmModel.barrierSec *= 2.0;
    EXPECT_NE(service::canonicalOptionsKey(slowBarrier, p),
              service::canonicalOptionsKey(shm, p));

    // ...but an mp request's key must NOT depend on a model it never
    // consults — tweaking shmModel under mp must not split the entry.
    TargetConfig mpTweaked = mp;
    mpTweaked.shmModel.barrierSec *= 2.0;
    EXPECT_EQ(service::canonicalOptionsKey(mpTweaked, p),
              service::canonicalOptionsKey(mp, p));
}

TEST(Fingerprint, DifferentProgramsSplitTheFingerprint) {
    Program a = programs::fig1(16);
    a.finalize();
    Program b = programs::fig1(32);  // same shape, different extent
    b.finalize();
    EXPECT_NE(service::programFingerprint(a), service::programFingerprint(b));
}

// ---------------------------------------------------------------------
// Service behavior.

CompileRequest fig1Request(int n = 16) {
    CompileRequest req;
    req.build = [n] { return programs::fig1(n); };
    req.target.gridExtents = {4};
    return req;
}

TEST(CompileService, MissThenHitReturnsTheSameArtifact) {
    CompileService svc;
    const CompileResult cold = svc.compile(fig1Request());
    ASSERT_EQ(cold.status, CompileStatus::Ok) << cold.error;
    EXPECT_FALSE(cold.cacheHit);
    EXPECT_GT(cold.compileUs, 0);

    const CompileResult warm = svc.compile(fig1Request());
    ASSERT_EQ(warm.status, CompileStatus::Ok);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.compileUs, 0);
    EXPECT_EQ(cold.artifact.get(), warm.artifact.get());

    const service::ServiceStats st = svc.stats();
    EXPECT_EQ(st.requests, 2);
    EXPECT_EQ(st.compiles, 1);
    EXPECT_EQ(st.cache.hits, 1);
    EXPECT_EQ(st.cache.misses, 1);
}

TEST(CompileService, ParseErrorsSurfaceAndAreNotCached) {
    CompileService svc;
    CompileRequest req;
    req.source = "program broken\n  do i = \nend\n";  // malformed do header
    const CompileResult r = svc.compile(req);
    EXPECT_EQ(r.status, CompileStatus::ParseError);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(r.artifact, nullptr);
    EXPECT_EQ(svc.stats().parseErrors, 1);
    EXPECT_EQ(svc.stats().cache.size, 0u);
}

TEST(CompileService, TwoConcurrentIdenticalRequestsRunOneCompile) {
    CompileService svc;
    // Both threads rendezvous inside the builder, so they fingerprint
    // the same request at the same time; whichever registers in-flight
    // first leads, the other must join (or hit the cache if the leader
    // already published) — either way exactly one compile runs.
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    std::atomic<int> builds{0};
    CompileRequest req;
    req.target.gridExtents = {4};
    req.build = [&] {
        builds.fetch_add(1);
        {
            std::unique_lock<std::mutex> lock(mu);
            ++arrived;
            cv.notify_all();
            cv.wait(lock, [&] { return arrived >= 2; });
        }
        return programs::tomcatv(129, 20);
    };

    CompileResult r1, r2;
    std::thread t1([&] { r1 = svc.compile(req); });
    std::thread t2([&] { r2 = svc.compile(req); });
    t1.join();
    t2.join();

    ASSERT_EQ(r1.status, CompileStatus::Ok) << r1.error;
    ASSERT_EQ(r2.status, CompileStatus::Ok) << r2.error;
    EXPECT_EQ(builds.load(), 2);  // both fingerprinted...
    EXPECT_EQ(svc.stats().compiles, 1);  // ...but only one compiled
    EXPECT_EQ(r1.artifact.get(), r2.artifact.get());
    // Exactly one of the two was served without compiling.
    const int served = (r1.cacheHit || r1.coalesced ? 1 : 0) +
                       (r2.cacheHit || r2.coalesced ? 1 : 0);
    EXPECT_EQ(served, 1);
}

TEST(CompileService, ExpiredDeadlineCancelsBetweenStages) {
    CompileService svc;
    CompileRequest req;
    req.deadlineMs = 1;
    req.build = [] {
        // Burn the whole budget before the pipeline starts: the first
        // between-stage poll must then cancel, deterministically.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return programs::fig1(16);
    };
    req.target.gridExtents = {4};
    const CompileResult r = svc.compile(req);
    EXPECT_EQ(r.status, CompileStatus::DeadlineExceeded);
    EXPECT_NE(r.error.find("finalize"), std::string::npos) << r.error;
    EXPECT_EQ(svc.stats().deadlineExceeded, 1);
    EXPECT_EQ(svc.stats().cache.size, 0u);  // nothing partial published
}

TEST(CompileService, SubmitRunsOnTheWorkerPool) {
    service::ServiceConfig cfg;
    cfg.workers = 2;
    CompileService svc(cfg);
    std::vector<std::shared_future<CompileResult>> futs;
    futs.reserve(8);
    for (int i = 0; i < 8; ++i) futs.push_back(svc.submit(fig1Request()));
    for (auto& f : futs) {
        const CompileResult r = f.get();
        ASSERT_EQ(r.status, CompileStatus::Ok) << r.error;
    }
    const service::ServiceStats st = svc.stats();
    EXPECT_EQ(st.requests, 8);
    EXPECT_EQ(st.compiles, 1);
    EXPECT_EQ(st.cache.hits + st.coalescedJoins, 7);
}

TEST(CompileService, AutoWorkersIsHardwareConcurrencyClampedToEight) {
    service::ServiceConfig cfg;
    cfg.workers = 0;
    CompileService svc(cfg);
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    EXPECT_EQ(svc.stats().workers, std::clamp(hw, 1, 8));
}

TEST(CompileService, MetricsJsonCarriesCacheAndStageData) {
    CompileService svc;
    ASSERT_EQ(svc.compile(fig1Request()).status, CompileStatus::Ok);
    ASSERT_EQ(svc.compile(fig1Request()).status, CompileStatus::Ok);
    const obs::Json m = svc.metricsJson();
    EXPECT_EQ(m.at("cache").at("hits").intValue(), 1);
    EXPECT_EQ(m.at("cache").at("misses").intValue(), 1);
    const obs::Json& hist = m.at("registry").at("histograms");
    EXPECT_NE(hist.find("service.stage.mapping-pass_us"), nullptr);
    EXPECT_NE(hist.find("service.stage.spmd-lowering_us"), nullptr);
}

// ---------------------------------------------------------------------
// Artifact cache.

TEST(ArtifactCache, EvictsLeastRecentlyUsed) {
    ArtifactCache cache(/*capacity=*/2, /*shards=*/1);
    auto art = [](const char* key) {
        auto a = std::make_shared<CompileArtifact>();
        a->key = key;
        return a;
    };
    cache.put("a", art("a"));
    cache.put("b", art("b"));
    ASSERT_NE(cache.get("a"), nullptr);  // bump "a": now "b" is LRU
    cache.put("c", art("c"));            // evicts "b"
    EXPECT_NE(cache.get("a"), nullptr);
    EXPECT_EQ(cache.get("b"), nullptr);
    EXPECT_NE(cache.get("c"), nullptr);
    const service::CacheStats st = cache.stats();
    EXPECT_EQ(st.evictions, 1);
    EXPECT_EQ(st.size, 2u);
}

TEST(ArtifactCache, ShardCountNeverExceedsCapacity) {
    ArtifactCache cache(/*capacity=*/2, /*shards=*/8);
    EXPECT_EQ(cache.stats().shards, 2);
    EXPECT_GE(cache.stats().capacity, 2u);
}

TEST(ArtifactCache, ShedRacesConcurrentInsertsSafely) {
    // Memory-pressure shedding runs while service workers keep
    // inserting (that is exactly when it runs in production). The
    // invariants under the race: no crash, no deadlock, size never
    // exceeds capacity, artifacts already handed out stay alive, and a
    // final quiescent shed(0) really empties the cache.
    ArtifactCache cache(/*capacity=*/64, /*shards=*/8);
    auto art = [](const std::string& key) {
        auto a = std::make_shared<CompileArtifact>();
        a->key = key;
        return a;
    };
    // A survivor handed out before the storm must outlive every shed.
    cache.put("pinned", art("pinned"));
    auto pinned = cache.get("pinned");
    ASSERT_NE(pinned, nullptr);

    std::atomic<bool> go{false};
    std::atomic<int> writersDone{0};
    std::atomic<std::size_t> totalShed{0};
    std::vector<std::thread> writers;
    writers.reserve(4);
    for (int t = 0; t < 4; ++t)
        writers.emplace_back([&cache, &go, &writersDone, t, &art] {
            while (!go.load()) {
            }
            for (int i = 0; i < 500; ++i) {
                const std::string key =
                    "w" + std::to_string(t) + "-" + std::to_string(i);
                cache.put(key, art(key));
                if (i % 16 == 0) (void)cache.get(key);
            }
            writersDone.fetch_add(1);
        });
    std::thread shedder([&cache, &go, &writersDone, &totalShed] {
        while (!go.load()) {
        }
        for (int i = 0; i < 200; ++i) totalShed += cache.shed(8);
        // A shedder scheduled ahead of every writer finds an empty
        // cache; keep shedding until the writers finish, then once
        // more, so the storm's inserts always meet a shed.
        while (writersDone.load() < 4) totalShed += cache.shed(8);
        totalShed += cache.shed(8);
    });
    go.store(true);
    for (std::thread& w : writers) w.join();
    shedder.join();

    EXPECT_GT(totalShed.load(), 0u);
    const service::CacheStats mid = cache.stats();
    EXPECT_LE(mid.size, mid.capacity);
    EXPECT_EQ(pinned->key, "pinned");  // shared_ptr kept it alive

    const std::size_t remaining = cache.stats().size;
    EXPECT_EQ(cache.shed(0), remaining);
    EXPECT_EQ(cache.stats().size, 0u);
}

// ---------------------------------------------------------------------
// Stage-oriented pipeline.

TEST(CompilePipeline, StepsThroughEveryStageInOrder) {
    Program p = programs::fig1(16);
    TargetConfig target;
    target.gridExtents = {4};
    std::vector<CompileStage> visited;
    CompilePipeline pipe(p, target, PassOptions{});
    while (!pipe.done()) {
        visited.push_back(pipe.next());
        ASSERT_TRUE(pipe.step());
    }
    const std::vector<CompileStage> expected = {
        CompileStage::Finalize,      CompileStage::Cfg,
        CompileStage::Dominators,    CompileStage::Ssa,
        CompileStage::ConstProp,     CompileStage::InductionRewrite,
        CompileStage::DataMapping,   CompileStage::MappingPass,
        CompileStage::SpmdLowering,
    };
    EXPECT_EQ(visited, expected);
    EXPECT_FALSE(pipe.step());  // done pipelines refuse to step
    Compilation c = std::move(pipe).take();
    EXPECT_GT(c.lowering().commOps().size(), 0u);
}

TEST(CompilePipeline, CancelledTokenStopsAtTheNextBoundary) {
    Program p = programs::fig1(16);
    TargetConfig target;
    target.gridExtents = {4};
    CancelSource cancel;
    CompileSession session;
    session.cancel = cancel.token();
    CompilePipeline pipe(p, target, PassOptions{}, std::move(session));
    ASSERT_TRUE(pipe.step());  // finalize
    ASSERT_TRUE(pipe.step());  // cfg
    cancel.cancel();
    EXPECT_FALSE(pipe.step());
    EXPECT_TRUE(pipe.cancelled());
    EXPECT_EQ(pipe.next(), CompileStage::Dominators);  // never ran
    EXPECT_FALSE(pipe.run());  // stays cancelled
}

TEST(Cancellation, DeadlineTokenExpires) {
    CancelSource src;
    EXPECT_FALSE(src.token().cancelled());
    src.setDeadlineAfter(std::chrono::milliseconds(-1));
    EXPECT_TRUE(src.token().cancelled());

    CancelSource flag;
    CancelToken t = flag.token();
    EXPECT_FALSE(t.cancelled());
    flag.cancel();
    EXPECT_TRUE(t.cancelled());
}

// ---------------------------------------------------------------------
// Cached vs fresh must be bit-identical for the paper's variants.

struct TableVariant {
    const char* label;
    std::function<Program()> build;
    TargetConfig target;
    PassOptions passes;
};

std::vector<TableVariant> tableVariants() {
    std::vector<TableVariant> vs;
    {
        TableVariant v;
        v.label = "table1/replication";
        v.build = [] { return programs::tomcatv(65, 5); };
        v.target.gridExtents = {4};
        v.passes.mapping.privatization = false;
        vs.push_back(v);
    }
    {
        TableVariant v;
        v.label = "table1/producer-only";
        v.build = [] { return programs::tomcatv(65, 5); };
        v.target.gridExtents = {4};
        v.passes.mapping.alignPolicy =
            MappingOptions::AlignPolicy::ProducerOnly;
        vs.push_back(v);
    }
    {
        TableVariant v;
        v.label = "table1/selected";
        v.build = [] { return programs::tomcatv(65, 5); };
        v.target.gridExtents = {4};
        vs.push_back(v);
    }
    {
        TableVariant v;
        v.label = "table2/default";
        v.build = [] { return programs::dgefa(32); };
        v.target.gridExtents = {4};
        v.passes.mapping.reductionAlignment = false;
        vs.push_back(v);
    }
    {
        TableVariant v;
        v.label = "table2/alignment";
        v.build = [] { return programs::dgefa(32); };
        v.target.gridExtents = {4};
        vs.push_back(v);
    }
    {
        TableVariant v;
        v.label = "table3/1d-priv";
        v.build = [] { return programs::appsp(8, 8, 8, 2, /*oneD=*/true); };
        v.target.gridExtents = {4};
        v.passes.mapping.arrayPrivatization = true;
        vs.push_back(v);
    }
    {
        TableVariant v;
        v.label = "table3/2d-partial";
        v.build = [] { return programs::appsp(8, 8, 8, 2, /*oneD=*/false); };
        v.target.gridExtents = {2, 2};
        v.passes.mapping.arrayPrivatization = true;
        v.passes.mapping.partialPrivatization = true;
        vs.push_back(v);
    }
    {
        TableVariant v;
        v.label = "table3/2d-partial-combine";
        v.build = [] { return programs::appsp(8, 8, 8, 2, /*oneD=*/false); };
        v.target.gridExtents = {2, 2};
        v.target.costModel.combineMessages = true;
        v.passes.mapping.arrayPrivatization = true;
        v.passes.mapping.partialPrivatization = true;
        vs.push_back(v);
    }
    return vs;
}

TEST(CompileService, CachedEqualsFreshForEveryTableVariant) {
    CompileService svc;
    for (const TableVariant& v : tableVariants()) {
        SCOPED_TRACE(v.label);

        // Fresh: straight through the compiler, no service.
        Program fresh = v.build();
        Compilation direct = Compiler::compile(fresh, v.target, v.passes);
        const std::string directDecisions = direct.report();
        const CostBreakdown directCost = direct.predictCost();

        CompileRequest req;
        req.name = v.label;
        req.build = v.build;
        req.target = v.target;
        req.passes = v.passes;
        const CompileResult miss = svc.compile(req);
        ASSERT_EQ(miss.status, CompileStatus::Ok) << miss.error;
        ASSERT_FALSE(miss.cacheHit);
        const CompileResult hit = svc.compile(req);
        ASSERT_EQ(hit.status, CompileStatus::Ok);
        ASSERT_TRUE(hit.cacheHit);

        // Decision records: identical text, fresh vs miss vs hit.
        EXPECT_EQ(miss.artifact->decisionReport, directDecisions);
        EXPECT_EQ(hit.artifact->decisionReport, directDecisions);

        // Cost numbers: bit-identical doubles, not approximate.
        for (const CompileResult* r : {&miss, &hit}) {
            EXPECT_EQ(r->artifact->cost.computeSec, directCost.computeSec);
            EXPECT_EQ(r->artifact->cost.commSec, directCost.commSec);
            EXPECT_EQ(r->artifact->cost.messageEvents,
                      directCost.messageEvents);
            EXPECT_EQ(r->artifact->cost.commBytes, directCost.commBytes);
        }

        // Simulation metrics from the cached compilation (simulate() is
        // const — safe on the shared artifact).
        auto directSim = direct.simulate({});
        auto cachedSim = hit.artifact->compilation->simulate({});
        EXPECT_EQ(cachedSim->messageEvents(), directSim->messageEvents());
        EXPECT_EQ(cachedSim->elementTransfers(),
                  directSim->elementTransfers());
        EXPECT_EQ(cachedSim->bytesMoved(), directSim->bytesMoved());
    }
}

TEST(CompileService, SharedMemoryArtifactReplaysBitIdentically) {
    // A cached shm artifact must replay bit-identically cold vs warm:
    // same emitted text, same decision records, the same cost doubles,
    // and a warm simulate() reproducing every metric (barrier epochs
    // included) of the cold run.
    CompileService svc;
    CompileRequest req;
    req.name = "shm/tomcatv";
    req.build = [] { return programs::tomcatv(65, 5); };
    req.target.gridExtents = {4};
    req.target.targetKind = TargetKind::SharedMemory;

    const CompileResult cold = svc.compile(req);
    ASSERT_EQ(cold.status, CompileStatus::Ok) << cold.error;
    ASSERT_FALSE(cold.cacheHit);
    const CompileResult warm = svc.compile(req);
    ASSERT_EQ(warm.status, CompileStatus::Ok);
    ASSERT_TRUE(warm.cacheHit);
    EXPECT_EQ(cold.artifact.get(), warm.artifact.get());

    // The cached artifact carries the shm emission, not mp send/recv.
    EXPECT_NE(cold.artifact->spmdText.find("!$omp parallel"),
              std::string::npos);

    // Cold vs warm vs a fresh direct compile: bit-identical.
    Program fresh = req.build();
    Compilation direct = Compiler::compile(fresh, req.target, req.passes);
    EXPECT_EQ(warm.artifact->spmdText,
              direct.compileTarget().emitText(direct.lowering()));
    EXPECT_EQ(warm.artifact->decisionReport, direct.report());
    const CostBreakdown directCost = direct.predictCost();
    EXPECT_EQ(warm.artifact->cost.computeSec, directCost.computeSec);
    EXPECT_EQ(warm.artifact->cost.commSec, directCost.commSec);
    EXPECT_EQ(warm.artifact->cost.messageEvents, directCost.messageEvents);
    EXPECT_EQ(warm.artifact->cost.commBytes, directCost.commBytes);

    // Warm simulation replays the cold run's metrics exactly.
    auto coldSim = direct.simulate({});
    auto warmSim = warm.artifact->compilation->simulate({});
    EXPECT_EQ(warmSim->targetKind(), TargetKind::SharedMemory);
    EXPECT_EQ(warmSim->barrierEvents(), coldSim->barrierEvents());
    EXPECT_GT(warmSim->barrierEvents(), 0);
    EXPECT_EQ(warmSim->messageEvents(), coldSim->messageEvents());
    EXPECT_EQ(warmSim->elementTransfers(), coldSim->elementTransfers());
    EXPECT_EQ(warmSim->bytesMoved(), coldSim->bytesMoved());
}

// ---------------------------------------------------------------------
// Batch runner.

TEST(Batch, ParsesJobsAndRunsThemThroughTheService) {
    const char* spec = R"({
      "jobs": [
        {"program": "fig1", "n": 16, "grid": [4]},
        {"program": "fig1", "n": 16, "grid": [4]},
        {"program": "fig1", "n": 16, "grid": [2],
         "options": {"privatization": false}},
        {"program": "unknown-kernel", "grid": [4]}
      ]
    })";
    std::string perr;
    const obs::Json doc = obs::Json::parse(spec, &perr);
    ASSERT_TRUE(perr.empty()) << perr;
    service::BatchSpec batch;
    std::string err;
    ASSERT_TRUE(service::parseBatchSpec(doc, &batch, &err)) << err;
    ASSERT_EQ(batch.jobs.size(), 4u);
    EXPECT_EQ(batch.jobs[2].target.gridExtents, (std::vector<int>{2}));
    EXPECT_FALSE(batch.jobs[2].passes.mapping.privatization);

    CompileService svc;
    std::ostringstream out;
    const service::BatchOutcome outcome =
        service::runBatch(svc, batch, out);
    EXPECT_EQ(outcome.jobs, 4);
    EXPECT_EQ(outcome.ok, 3);
    EXPECT_EQ(outcome.failed, 1);
    EXPECT_EQ(outcome.cacheHits + outcome.coalesced, 1);

    // One JSONL row per job, in input order, then the summary row.
    std::vector<obs::Json> rows;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        rows.push_back(obs::Json::parse(line, &perr));
        ASSERT_TRUE(perr.empty()) << perr << ": " << line;
    }
    ASSERT_EQ(rows.size(), 5u);
    EXPECT_EQ(rows[0].at("status").stringValue(), "ok");
    EXPECT_EQ(rows[1].at("status").stringValue(), "ok");
    // The two identical jobs race for the in-flight key (it is
    // registered on the worker thread), so either may lead: exactly
    // one of them is the cache hit or the coalesced join.
    const auto joined = [&](size_t r) {
        return rows[r].at("cache_hit").boolValue() ||
               rows[r].at("coalesced").boolValue();
    };
    EXPECT_NE(joined(0), joined(1));
    EXPECT_EQ(rows[2].at("status").stringValue(), "ok");
    EXPECT_EQ(rows[3].at("status").stringValue(), "bad-request");
    EXPECT_TRUE(rows[4].at("summary").boolValue());
    EXPECT_EQ(rows[4].at("jobs").intValue(), 4);
    EXPECT_EQ(rows[4].at("schema").stringValue(), "phpf.batch_report");
}

TEST(Batch, RejectsUnknownOptionKeys) {
    // The simulator has one engine: an engine selection is an unknown
    // option, like any other key the jobs schema does not define.
    std::string perr;
    const obs::Json doc = obs::Json::parse(
        R"([{"program": "fig1", "grid": [4],
             "options": {"engine": "bytecode"}}])",
        &perr);
    ASSERT_TRUE(perr.empty()) << perr;
    service::BatchSpec batch;
    std::string err;
    EXPECT_FALSE(service::parseBatchSpec(doc, &batch, &err));
    EXPECT_NE(err.find("unknown option 'engine'"), std::string::npos) << err;
}

TEST(Batch, RejectsDuplicateJobNames) {
    // The journal and --resume key rows by name: two jobs sharing one
    // would make the second row vanish as a duplicate.
    std::string perr, err;
    const obs::Json doc = obs::Json::parse(
        R"([{"name": "x", "program": "fig1", "grid": [4]},
            {"name": "x", "program": "fig2", "grid": [4]}])",
        &perr);
    ASSERT_TRUE(perr.empty());
    service::BatchSpec spec;
    EXPECT_FALSE(service::parseBatchSpec(doc, &spec, &err));
    EXPECT_NE(err.find("duplicate job name 'x'"), std::string::npos) << err;
}

TEST(Batch, RepeatExpandsAndRejectsAmbiguousJobs) {
    std::string perr;
    service::BatchSpec batch;
    std::string err;

    const obs::Json rep = obs::Json::parse(
        R"([{"program": "fig1", "grid": [4], "repeat": 3}])", &perr);
    ASSERT_TRUE(perr.empty());
    ASSERT_TRUE(service::parseBatchSpec(rep, &batch, &err)) << err;
    EXPECT_EQ(batch.jobs.size(), 3u);

    const obs::Json ambiguous = obs::Json::parse(
        R"([{"program": "fig1", "source": "program p\nend", "grid": [4]}])",
        &perr);
    ASSERT_TRUE(perr.empty());
    service::BatchSpec bad;
    EXPECT_FALSE(service::parseBatchSpec(ambiguous, &bad, &err));
    EXPECT_NE(err.find("exactly one"), std::string::npos) << err;
}

// ---------------------------------------------------------------------
// Simulation span regression: the sim-exec span must sit inside the
// tracer's own timeline (the old reconstruction from wallSec could
// drift before the enclosing span or go negative).

TEST(SimulateSpan, ExecSpanStaysInsideTheSimulateSpan) {
    Program p = programs::fig1(16);
    TargetConfig target;
    target.gridExtents = {4};
    Compilation c = Compiler::compile(p, target, PassOptions{});
    obs::Tracer tracer;
    auto sim = c.simulate({.tracer = &tracer});
    ASSERT_NE(sim, nullptr);

    const std::vector<obs::TraceSpan> spans = tracer.snapshot();
    const obs::TraceSpan* exec = nullptr;
    const obs::TraceSpan* simulate = nullptr;
    for (const obs::TraceSpan& s : spans) {
        if (s.name == "sim-exec") exec = &s;
        if (s.name == "simulate") simulate = &s;
    }
    ASSERT_NE(exec, nullptr);
    ASSERT_NE(simulate, nullptr);
    ASSERT_TRUE(exec->closed());
    ASSERT_TRUE(simulate->closed());
    EXPECT_EQ(exec->parent, simulate->id);
    EXPECT_GE(exec->startNs, simulate->startNs);
    EXPECT_GE(exec->durNs, 0);
    EXPECT_LE(exec->startNs + exec->durNs,
              simulate->startNs + simulate->durNs);
}

}  // namespace
}  // namespace phpf
