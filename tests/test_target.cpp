// Tests for the Target interface (src/target/): backend registry and
// ExecSelection round-trip, mp-vs-shm cost predictions over the
// paper's kernels, the shared-memory emitter, shm simulation
// accounting (barrier epochs, no network faults inside one SMP node),
// and the run report's "which target wins" decision layer.

#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "programs/programs.h"
#include "spmd/spmd_text.h"
#include "support/fault.h"
#include "target/target.h"

namespace phpf {
namespace {

// ---------------------------------------------------------------------
// Registry and selection plumbing.

TEST(Target, RegistryReturnsStatelessSingletons) {
    const Target& mp = targetFor(TargetKind::MessagePassing);
    const Target& shm = targetFor(TargetKind::SharedMemory);
    EXPECT_EQ(mp.kind(), TargetKind::MessagePassing);
    EXPECT_EQ(shm.kind(), TargetKind::SharedMemory);
    EXPECT_STREQ(mp.name(), "mp");
    EXPECT_STREQ(shm.name(), "shm");
    // Singletons: repeated lookups hand back the same object.
    EXPECT_EQ(&mp, &targetFor(TargetKind::MessagePassing));
    EXPECT_EQ(&shm, &targetFor(TargetKind::SharedMemory));
}

TEST(Target, TargetKindNamesRoundTrip) {
    for (TargetKind k :
         {TargetKind::MessagePassing, TargetKind::SharedMemory}) {
        TargetKind parsed{};
        ASSERT_TRUE(parseTargetKind(targetKindName(k), &parsed));
        EXPECT_EQ(parsed, k);
    }
    TargetKind ignored{};
    EXPECT_FALSE(parseTargetKind("simd", &ignored));
    EXPECT_FALSE(parseTargetKind("", &ignored));
}

TEST(Target, ExecSelectionRoundTripsThroughItsPrintedForm) {
    ExecSelection sel;
    sel.target = TargetKind::SharedMemory;
    sel.relaxedMerge = true;

    ExecSelection reparsed;
    ASSERT_TRUE(parseExecSelectionList(printExecSelection(sel), &reparsed));
    EXPECT_EQ(reparsed, sel);

    // Key-by-key parsing accepts the documented spellings...
    ExecSelection s2;
    EXPECT_TRUE(parseExecSelection("target", "shm", &s2));
    EXPECT_TRUE(parseExecSelection("relaxed_merge", "on", &s2));
    EXPECT_EQ(s2, sel);
    // ...and rejects unknown keys/values without touching the output.
    EXPECT_FALSE(parseExecSelection("target", "simd", &s2));
    EXPECT_FALSE(parseExecSelection("backend", "mp", &s2));
    EXPECT_FALSE(parseExecSelection("engine", "bytecode", &s2));
    EXPECT_EQ(s2, sel);
}

TEST(Target, ExecSelectionAppliesToConfigAndReadsBack) {
    ExecSelection sel;
    sel.target = TargetKind::SharedMemory;
    sel.relaxedMerge = true;
    TargetConfig target;
    PassOptions passes;
    sel.applyTo(&target, &passes);
    EXPECT_EQ(target.targetKind, TargetKind::SharedMemory);
    EXPECT_TRUE(passes.relaxedMerge);
    EXPECT_EQ(ExecSelection::selectionOf(target, passes), sel);
}

// ---------------------------------------------------------------------
// Both backends compile and price the paper's kernels from unchanged
// sources; predictions differ only in the communication component.

struct Kernel {
    const char* label;
    std::function<Program()> build;
    std::vector<int> grid;
};

std::vector<Kernel> paperKernels() {
    return {
        {"tomcatv", [] { return programs::tomcatv(65, 5); }, {4}},
        {"dgefa", [] { return programs::dgefa(32); }, {4}},
        {"appsp", [] { return programs::appsp(8, 8, 8, 2, false); }, {2, 2}},
    };
}

TEST(Target, BothBackendsCompileThePaperKernels) {
    for (const Kernel& k : paperKernels()) {
        SCOPED_TRACE(k.label);
        for (TargetKind kind :
             {TargetKind::MessagePassing, TargetKind::SharedMemory}) {
            SCOPED_TRACE(targetKindName(kind));
            Program p = k.build();
            TargetConfig target;
            target.gridExtents = k.grid;
            target.targetKind = kind;
            Compilation c = Compiler::compile(p, target);
            EXPECT_EQ(&c.compileTarget(), &targetFor(kind));
            const CostBreakdown cb = c.predictCost();
            EXPECT_GT(cb.totalSec(), 0.0);
            auto sim = c.simulate({});
            EXPECT_EQ(sim->targetKind(), kind);
            EXPECT_GT(sim->statementsExecutedAllProcs(), 0);
        }
    }
}

TEST(Target, ComputeChargeIsTargetIndependent) {
    // Both machine models share the per-CPU flop rate, so cross-pricing
    // one lowering must agree exactly on the compute component and on
    // the communicated volume; only the communication pricing differs.
    for (const Kernel& k : paperKernels()) {
        SCOPED_TRACE(k.label);
        Program p = k.build();
        TargetConfig target;
        target.gridExtents = k.grid;
        Compilation c = Compiler::compile(p, target);
        const CostBreakdown mp = c.predictCostFor(TargetKind::MessagePassing);
        const CostBreakdown shm = c.predictCostFor(TargetKind::SharedMemory);
        EXPECT_EQ(mp.computeSec, shm.computeSec);
        EXPECT_EQ(mp.commBytes, shm.commBytes);
        EXPECT_GT(shm.commSec, 0.0);
        EXPECT_NE(mp.commSec, shm.commSec);
    }
}

TEST(Target, CrossPricingMatchesTheOtherBackendsOwnPrediction) {
    // predictCostFor on an mp compilation must equal what a dedicated
    // shm compilation predicts (and vice versa): the lowering structure
    // is target-independent, so the decision layer never needs a second
    // compilation.
    Program p1 = programs::tomcatv(65, 5);
    TargetConfig mpConf;
    mpConf.gridExtents = {4};
    Compilation mpC = Compiler::compile(p1, mpConf);

    Program p2 = programs::tomcatv(65, 5);
    TargetConfig shmConf = mpConf;
    shmConf.targetKind = TargetKind::SharedMemory;
    Compilation shmC = Compiler::compile(p2, shmConf);

    const CostBreakdown a = mpC.predictCostFor(TargetKind::SharedMemory);
    const CostBreakdown b = shmC.predictCost();
    EXPECT_EQ(a.computeSec, b.computeSec);
    EXPECT_EQ(a.commSec, b.commSec);
    EXPECT_EQ(a.messageEvents, b.messageEvents);
    EXPECT_EQ(a.commBytes, b.commBytes);

    const CostBreakdown c = shmC.predictCostFor(TargetKind::MessagePassing);
    const CostBreakdown d = mpC.predictCost();
    EXPECT_EQ(c.commSec, d.commSec);
}

TEST(Target, MessagePassingHooksReproduceTheDefaultFormulas) {
    // The mp target's MappingCostHooks spell out exactly the formulas
    // MappingPass defaults to when no hooks are set — priced values
    // must be bit-identical, so the target layer cannot perturb any
    // mapping decision.
    const TargetConfig conf;
    const MappingCostHooks hooks =
        targetFor(TargetKind::MessagePassing).mappingHooks(conf);
    const CostModel& cm = conf.costModel;
    ASSERT_TRUE(hooks.elementMessage && hooks.reduceCombine &&
                hooks.broadcast);
    for (const double bytes : {8.0, 64.0, 4096.0}) {
        EXPECT_EQ(hooks.elementMessage(bytes), cm.message(bytes));
        for (const int procs : {1, 2, 4, 16}) {
            EXPECT_EQ(hooks.reduceCombine(procs, bytes),
                      cm.reduce(procs, bytes));
            EXPECT_EQ(hooks.broadcast(procs, bytes),
                      cm.broadcast(procs, bytes));
        }
    }
}

// ---------------------------------------------------------------------
// Shared-memory emission.

TEST(Target, ShmEmitterLowersPrivatizedScalarsToThreadprivate) {
    Program p = programs::tomcatv(65, 2);
    TargetConfig conf;
    conf.gridExtents = {4};
    conf.targetKind = TargetKind::SharedMemory;
    Compilation c = Compiler::compile(p, conf);
    const std::string text = c.compileTarget().emitText(c.lowering());

    // Privatized scalars become threadprivate copies...
    EXPECT_NE(text.find("!$omp threadprivate("), std::string::npos);
    // ...inside one parallel region with static worksharing.
    EXPECT_NE(text.find("!$omp parallel"), std::string::npos);
    EXPECT_NE(text.find("!$omp end parallel"), std::string::npos);
    EXPECT_NE(text.find("!$omp do schedule(static)"), std::string::npos);
    // Communication becomes barrier-delimited shared reads, never
    // message sends: the transfer phase is gone.
    EXPECT_NE(text.find("sync: barrier"), std::string::npos);
    EXPECT_EQ(text.find("send"), std::string::npos);
}

TEST(Target, ShmEmitterLowersReductionCombinesToCombinerTrees) {
    // Fig. 5 on a 2-D grid: the j (column) grid dimension carries a
    // SUM reduction whose cross-processor merge becomes a combiner
    // tree instead of reduction messages.
    Program p = programs::fig5(16);
    TargetConfig conf;
    conf.gridExtents = {2, 2};
    conf.targetKind = TargetKind::SharedMemory;
    Compilation c = Compiler::compile(p, conf);
    const std::string text = c.compileTarget().emitText(c.lowering());
    EXPECT_NE(text.find("combiner tree"), std::string::npos);
}

TEST(Target, MpEmissionIsUnchangedByTheTargetLayer) {
    // The mp target's emitText must be the classic SPMD text emitter —
    // bit-identical, not merely similar.
    Program p = programs::fig1(32);
    TargetConfig conf;
    conf.gridExtents = {4};
    Compilation c = Compiler::compile(p, conf);
    EXPECT_EQ(c.compileTarget().emitText(c.lowering()),
              emitSpmdText(c.lowering()));
}

// ---------------------------------------------------------------------
// Simulation accounting under shm.

TEST(Target, ShmSimulationCountsBarrierEpochs) {
    Program p = programs::tomcatv(65, 2);
    TargetConfig conf;
    conf.gridExtents = {4};
    conf.targetKind = TargetKind::SharedMemory;
    Compilation c = Compiler::compile(p, conf);
    auto sim = c.simulate({});
    EXPECT_EQ(sim->targetKind(), TargetKind::SharedMemory);
    // Every sync epoch is a barrier; under mp the counter stays 0.
    EXPECT_GT(sim->barrierEvents(), 0);
    EXPECT_EQ(sim->barrierEvents(), sim->messageEvents());

    Program p2 = programs::tomcatv(65, 2);
    TargetConfig mpConf = conf;
    mpConf.targetKind = TargetKind::MessagePassing;
    Compilation c2 = Compiler::compile(p2, mpConf);
    auto mpSim = c2.simulate({});
    EXPECT_EQ(mpSim->barrierEvents(), 0);
    // Functional results and data-movement metrics are target
    // independent: the lowering moves the same elements either way.
    EXPECT_EQ(sim->elementTransfers(), mpSim->elementTransfers());
    EXPECT_EQ(sim->bytesMoved(), mpSim->bytesMoved());
    EXPECT_EQ(sim->statementsExecutedAllProcs(),
              mpSim->statementsExecutedAllProcs());
}

TEST(Target, ShmSimulationIgnoresNetworkFaultSites) {
    // There is no network inside one SMP node: net.* fault sites must
    // not arm the lossy transport under shm (proc.crash still applies).
    Program p = programs::fig1(16);
    TargetConfig conf;
    conf.gridExtents = {4};
    conf.targetKind = TargetKind::SharedMemory;
    Compilation c = Compiler::compile(p, conf);
    FaultInjector inj;
    ASSERT_TRUE(inj.configure("net.drop:p=1.0"));  // drop everything
    SimulationRequest req;
    req.faults = &inj;
    req.maxAttempts = 2;
    auto sim = c.simulate(req);  // must not throw SimFault
    EXPECT_GT(sim->statementsExecutedAllProcs(), 0);
}

// ---------------------------------------------------------------------
// The decision layer in the run report.

TEST(Target, RunReportComparesTargetsAndRecordsAWinner) {
    Program p = programs::dgefa(32);
    TargetConfig conf;
    conf.gridExtents = {4};
    Compilation c = Compiler::compile(p, conf);
    const obs::Json r = c.buildRunReport();

    const obs::Json& desc = r.at("target");
    EXPECT_EQ(desc.at("kind").stringValue(), "mp");

    const obs::Json& cmp = r.at("target_comparison");
    const obs::Json& mp = cmp.at("mp");
    const obs::Json& shm = cmp.at("shm");
    EXPECT_EQ(mp.at("compute_sec").numberValue(),
              shm.at("compute_sec").numberValue());
    const obs::Json& decision = cmp.at("decision");
    EXPECT_EQ(decision.at("compiled_for").stringValue(), "mp");
    const std::string winner = decision.at("winner").stringValue();
    ASSERT_TRUE(winner == "mp" || winner == "shm");
    const double mpTotal = mp.at("total_sec").numberValue();
    const double shmTotal = shm.at("total_sec").numberValue();
    EXPECT_EQ(winner, shmTotal < mpTotal ? "shm" : "mp");
    EXPECT_GE(decision.at("speedup").numberValue(), 1.0);
    EXPECT_FALSE(decision.at("rationale").stringValue().empty());

    // The comparison is symmetric: compiling FOR shm reports the same
    // two totals (cross-pricing prices one target-independent lowering).
    Program p2 = programs::dgefa(32);
    TargetConfig shmConf = conf;
    shmConf.targetKind = TargetKind::SharedMemory;
    Compilation c2 = Compiler::compile(p2, shmConf);
    const obs::Json r2 = c2.buildRunReport();
    const obs::Json& cmp2 = r2.at("target_comparison");
    EXPECT_EQ(cmp2.at("mp").at("total_sec").numberValue(), mpTotal);
    EXPECT_EQ(cmp2.at("shm").at("total_sec").numberValue(), shmTotal);
    EXPECT_EQ(cmp2.at("decision").at("winner").stringValue(), winner);
    EXPECT_EQ(cmp2.at("decision").at("compiled_for").stringValue(), "shm");
}

TEST(Target, DescribeIsSelfContainedPerBackend) {
    TargetConfig conf;
    const obs::Json mp =
        targetFor(TargetKind::MessagePassing).describe(conf);
    EXPECT_EQ(mp.at("kind").stringValue(), "mp");
    EXPECT_TRUE(mp.at("alpha_sec").isNumber());
    EXPECT_TRUE(mp.at("beta_sec_per_byte").isNumber());

    const obs::Json shm =
        targetFor(TargetKind::SharedMemory).describe(conf);
    EXPECT_EQ(shm.at("kind").stringValue(), "shm");
    EXPECT_TRUE(shm.at("barrier_sec").isNumber());
    EXPECT_TRUE(shm.at("combine_stage_sec").isNumber());
    EXPECT_TRUE(shm.at("cache_line_bytes").isNumber());
}

}  // namespace
}  // namespace phpf
