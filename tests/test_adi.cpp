#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "ir/printer.h"
#include "programs/programs.h"

namespace phpf {
namespace {

void seedAdi(Interpreter& o, std::int64_t n) {
    for (std::int64_t i = 1; i <= n; ++i)
        for (std::int64_t j = 1; j <= n; ++j) {
            o.setElement("u", {i, j},
                         1.0 + 0.01 * static_cast<double>(i * j % 7));
            o.setElement("du", {i, j}, 0.0);
        }
}

TEST(Adi, XSweepIsLocalYSweepCommunicates) {
    Program p = programs::adi(32, 2);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    // Exactly one array comm op: du(i,j-1) in the y sweep. The x sweep's
    // du(i-1,j) is along the serial dimension and stays local.
    int arrayOps = 0;
    for (const CommOp& op : c.lowering().commOps()) {
        if (op.ref->kind != ExprKind::ArrayRef) continue;
        ++arrayOps;
        EXPECT_EQ(printExpr(p, op.ref), "du(i,j - 1)");
        // The recurrence writes du in the same j loop: the message cannot
        // be hoisted past it (pipeline communication).
        EXPECT_EQ(op.placementLevel, 2);
        EXPECT_EQ(op.req.overall, CommPattern::Shift);
    }
    EXPECT_EQ(arrayOps, 1);
}

TEST(Adi, UpdateScalarPrivatizedAndAligned) {
    Program p = programs::adi(32, 2);
    TargetConfig opts;
    opts.gridExtents = {4};
    Compilation c = Compiler::compile(p, opts);
    const SymbolId tmp = p.findSymbol("tmp");
    bool checked = false;
    p.forEachStmt([&](Stmt* s) {
        if (s->kind != StmtKind::Assign || s->lhs->kind != ExprKind::VarRef ||
            s->lhs->sym != tmp)
            return;
        const ScalarMapDecision* d =
            c.mappingPass().decisions().forDef(c.ssa().defIdOfAssign(s));
        ASSERT_NE(d, nullptr);
        EXPECT_EQ(d->kind, ScalarMapKind::Aligned) << d->rationale;
        checked = true;
    });
    EXPECT_TRUE(checked);
}

TEST(Adi, SpmdMatchesSequential) {
    for (auto grid : {std::vector<int>{1}, {3}, {4}}) {
        Program p = programs::adi(12, 2);
        TargetConfig opts;
        opts.gridExtents = grid;
        Compilation c = Compiler::compile(p, opts);
        auto sim = c.simulate({.seed = [](Interpreter& o) { seedAdi(o, 12); }});
        EXPECT_EQ(sim->maxErrorVsOracle("u"), 0.0)
            << ProcGrid(grid).str();
        EXPECT_EQ(sim->maxErrorVsOracle("du"), 0.0)
            << ProcGrid(grid).str();
    }
}

TEST(Adi, PipelineCommScalesWithBoundaries) {
    // The y-sweep boundary message count grows with the processor count
    // (one per block boundary per sweep), so comm increases with P while
    // compute shrinks.
    double prevComm = -1.0;
    for (int procs : {2, 4, 8}) {
        Program p = programs::adi(64, 4);
        TargetConfig opts;
        opts.gridExtents = {procs};
        const CostBreakdown cb = Compiler::compile(p, opts).predictCost();
        if (prevComm >= 0.0) {
            EXPECT_GE(cb.commSec, prevComm * 0.99);
        }
        prevComm = cb.commSec;
    }
}

}  // namespace
}  // namespace phpf
