#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "programs/programs.h"

namespace phpf {
namespace {

// Additional cross-engine consistency properties between the analytic
// cost model and the functional SPMD simulator.

void seedDgefa(Interpreter& o, std::int64_t n) {
    for (std::int64_t r = 1; r <= n; ++r)
        for (std::int64_t c = 1; c <= n; ++c)
            o.setElement("A", {r, c},
                         r == c ? 10.0 + static_cast<double>(r)
                                : 1.0 / static_cast<double>(r + c));
}

TEST(SimConsistency, DgefaLargerFactorizationAcrossGrids) {
    for (int procs : {2, 5, 8}) {
        Program p = programs::dgefa(16);
        TargetConfig opts;
        opts.gridExtents = {procs};
        Compilation c = Compiler::compile(p, opts);
        auto sim = c.simulate({.seed = [](Interpreter& o) { seedDgefa(o, 16); }});
        EXPECT_EQ(sim->maxErrorVsOracle("A"), 0.0) << procs;
        if (procs > 1) {
            EXPECT_GT(sim->messageEvents(), 0);
        }
    }
}

TEST(SimConsistency, SimulatedEventsNeverExceedAnalytic) {
    struct Case {
        int id;
        std::vector<int> grid;
    };
    for (const auto& [id, grid] :
         std::vector<Case>{{0, {4}}, {1, {4}}, {2, {2, 2}}, {3, {2, 2}}}) {
        Program p = [&] {
            switch (id) {
                case 0: return programs::fig1(24);
                case 1: return programs::fig2(16);
                case 2: return programs::fig5(12);
                default: return programs::fig6(10, 10, 10);
            }
        }();
        TargetConfig opts;
        opts.gridExtents = grid;
        Compilation c = Compiler::compile(p, opts);
        const CostBreakdown analytic = c.predictCost();
        auto sim = c.simulate({.seed = [&](Interpreter& o) {
            switch (id) {
                case 0:
                    for (std::int64_t i = 1; i <= 25; ++i) {
                        if (i <= 24) {
                            o.setElement("B", {i}, static_cast<double>(i));
                            o.setElement("C", {i}, 1.0);
                            o.setElement("E", {i}, 2.0);
                            o.setElement("F", {i}, 2.0);
                        }
                        o.setElement("A", {i}, 0.5);
                    }
                    break;
                case 1:
                    for (std::int64_t i = 1; i <= 16; ++i) {
                        o.setElement("B", {i},
                                     static_cast<double>((i * 7) % 16 + 1));
                        o.setElement("C", {i},
                                     static_cast<double>((i * 5) % 16 + 1));
                        for (std::int64_t j = 1; j <= 16; ++j) {
                            o.setElement("H", {i, j},
                                         static_cast<double>(i + j));
                            o.setElement("G", {i, j},
                                         static_cast<double>(i - j));
                        }
                    }
                    break;
                case 2:
                    for (std::int64_t i = 1; i <= 12; ++i)
                        for (std::int64_t j = 1; j <= 12; ++j)
                            o.setElement("A", {i, j},
                                         static_cast<double>(i + j));
                    break;
                default:
                    for (std::int64_t m = 1; m <= 5; ++m)
                        for (std::int64_t i = 1; i <= 10; ++i)
                            for (std::int64_t j = 1; j <= 10; ++j)
                                for (std::int64_t k = 1; k <= 10; ++k)
                                    o.setElement(
                                        "rsd", {m, i, j, k},
                                        0.01 * static_cast<double>(i + j + k));
                    break;
            }
        }});
        EXPECT_LE(sim->messageEvents(), analytic.messageEvents)
            << "program id " << id;
    }
}

TEST(SimConsistency, PartialPrivatizationMovesFewerElements) {
    std::int64_t transfers[2];
    for (bool partial : {false, true}) {
        Program p = programs::fig6(10, 10, 10);
        TargetConfig opts;
        PassOptions passes;
        opts.gridExtents = {2, 2};
        passes.mapping.partialPrivatization = partial;
        Compilation c = Compiler::compile(p, opts, passes);
        auto sim = c.simulate({.seed = [](Interpreter& o) {
            for (std::int64_t m = 1; m <= 5; ++m)
                for (std::int64_t i = 1; i <= 10; ++i)
                    for (std::int64_t j = 1; j <= 10; ++j)
                        for (std::int64_t k = 1; k <= 10; ++k)
                            o.setElement("rsd", {m, i, j, k},
                                         0.01 * static_cast<double>(m + i));
        }});
        transfers[partial ? 1 : 0] = sim->elementTransfers();
        EXPECT_EQ(sim->maxErrorVsOracle("rsd"), 0.0);
    }
    EXPECT_LT(transfers[1], transfers[0]);
}

TEST(SimConsistency, PerOpEventAccounting) {
    Program p = programs::fig1(24);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    auto sim = c.simulate({.seed = [](Interpreter& o) {
        for (std::int64_t i = 1; i <= 25; ++i) {
            if (i <= 24) {
                o.setElement("B", {i}, static_cast<double>(i));
                o.setElement("C", {i}, 1.0);
                o.setElement("E", {i}, 2.0);
                o.setElement("F", {i}, 2.0);
            }
            o.setElement("A", {i}, 0.5);
        }
    }});
    std::int64_t sum = 0;
    for (const CommOp& op : c.lowering().commOps()) sum += sim->eventsOfOp(op.id);
    EXPECT_EQ(sum, sim->messageEvents());
}

}  // namespace
}  // namespace phpf
