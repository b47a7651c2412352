// The service's task pool and the interned message-event set
// (support/parallel.h, support/interned_events.h), plus the SPMD
// simulator's determinism: every result and metric is bit-identical
// from one run of a compilation to the next.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "driver/compiler.h"
#include "programs/programs.h"
#include "support/interned_events.h"
#include "support/parallel.h"

using namespace phpf;

namespace {

TEST(TaskPool, ThrowingTaskDoesNotKillWorkers) {
    TaskPool pool(2);
    std::atomic<int> ran{0};
    // A throwing task escaping into std::thread would terminate the
    // process; the pool must swallow it, count it, and keep serving.
    pool.post([] { throw std::runtime_error("job 1 exploded"); });
    pool.post([&] { ran.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(ran.load(), 1);
    EXPECT_EQ(pool.failures(), 1);
    EXPECT_EQ(pool.lastError(), "job 1 exploded");
    pool.post([] { throw 42; });  // non-std throw
    pool.post([&] { ran.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(pool.failures(), 2);
    EXPECT_EQ(pool.lastError(), "unknown exception");
    // The pool is still alive after the failures.
    pool.post([&] { ran.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(ran.load(), 3);
    EXPECT_EQ(pool.failures(), 2);
}

TEST(TaskPool, CleanRunRecordsNoFailures) {
    TaskPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) pool.post([&] { ran.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(ran.load(), 16);
    EXPECT_EQ(pool.failures(), 0);
    EXPECT_TRUE(pool.lastError().empty());
}

TEST(ContextInterner, StableDenseIds) {
    ContextInterner in;
    EXPECT_EQ(in.intern({1, 2, 3}), 0);
    EXPECT_EQ(in.intern({1, 2, 4}), 1);
    EXPECT_EQ(in.intern({1, 2, 3}), 0);
    EXPECT_EQ(in.intern({}), 2);
    EXPECT_EQ(in.intern({}), 2);
    EXPECT_EQ(in.size(), 3);
}

TEST(InternedEventSet, DeduplicatesOpContextPairs) {
    InternedEventSet ev;
    EXPECT_TRUE(ev.record(0, {1, 1}));
    EXPECT_FALSE(ev.record(0, {1, 1}));
    EXPECT_TRUE(ev.record(1, {1, 1}));  // same context, different op
    EXPECT_TRUE(ev.record(0, {1, 2}));
    EXPECT_EQ(ev.size(), 3);
    EXPECT_EQ(ev.contexts(), 2);
    ev.clear();
    EXPECT_EQ(ev.size(), 0);
    EXPECT_TRUE(ev.record(0, {1, 1}));
}

// --- determinism of the simulator -------------------------------------

struct SimSnapshot {
    std::int64_t transfers = 0;
    std::int64_t events = 0;
    std::int64_t procStmts = 0;
    double imbalance = 0.0;
    std::vector<ProcSimMetrics> perProc;
    std::vector<std::int64_t> perOpEvents;
    std::vector<std::int64_t> perOpElems;
    std::vector<double> errors;
};

SimSnapshot snapshotAt(Compilation& c,
                       const std::function<void(Interpreter&)>& seed,
                       const std::vector<std::string>& outputs) {
    auto sim = c.simulate({.seed = seed});
    SimSnapshot s;
    s.transfers = sim->elementTransfers();
    s.events = sim->messageEvents();
    s.procStmts = sim->statementsExecutedAllProcs();
    s.imbalance = sim->imbalanceRatio();
    s.perProc = sim->procMetrics();
    for (const CommOp& op : c.lowering().commOps()) {
        s.perOpEvents.push_back(sim->eventsOfOp(op.id));
        s.perOpElems.push_back(sim->elementsOfOp(op.id));
    }
    for (const std::string& name : outputs)
        s.errors.push_back(sim->maxErrorVsOracle(name));
    return s;
}

void expectIdentical(const SimSnapshot& a, const SimSnapshot& b) {
    EXPECT_EQ(a.transfers, b.transfers);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.procStmts, b.procStmts);
    EXPECT_EQ(a.imbalance, b.imbalance);  // bit-identical, not approx
    EXPECT_EQ(a.perOpEvents, b.perOpEvents);
    EXPECT_EQ(a.perOpElems, b.perOpElems);
    EXPECT_EQ(a.errors, b.errors);
    ASSERT_EQ(a.perProc.size(), b.perProc.size());
    for (size_t p = 0; p < a.perProc.size(); ++p) {
        EXPECT_EQ(a.perProc[p].stmtsExecuted, b.perProc[p].stmtsExecuted);
        EXPECT_EQ(a.perProc[p].stmtsSkipped, b.perProc[p].stmtsSkipped);
        EXPECT_EQ(a.perProc[p].recvElements, b.perProc[p].recvElements);
        EXPECT_EQ(a.perProc[p].sentElements, b.perProc[p].sentElements);
    }
}

void checkDeterminism(Program& p, const MappingOptions& mapping,
                      const std::vector<int>& grid,
                      const std::function<void(Interpreter&)>& seed,
                      const std::vector<std::string>& outputs) {
    TargetConfig opts;
    PassOptions passes;
    opts.gridExtents = grid;
    passes.mapping = mapping;
    Compilation c = Compiler::compile(p, opts, passes);
    const SimSnapshot base = snapshotAt(c, seed, outputs);
    for (const double err : base.errors) EXPECT_EQ(err, 0.0);
    expectIdentical(base, snapshotAt(c, seed, outputs));
}

TEST(SimDeterminism, Fig1AcrossThreadCounts) {
    Program p = programs::fig1(24);
    const auto seed = [](Interpreter& o) {
        for (std::int64_t i = 1; i <= 24; ++i) {
            o.setElement("B", {i}, static_cast<double>(i));
            o.setElement("C", {i}, 1.0);
            o.setElement("E", {i}, 2.0);
            o.setElement("F", {i}, 2.0);
        }
        for (std::int64_t i = 1; i <= 25; ++i) o.setElement("A", {i}, 0.5);
    };
    checkDeterminism(p, MappingOptions{}, {4}, seed, {"A", "D"});
}

TEST(SimDeterminism, Fig6AcrossThreadCounts) {
    Program p = programs::fig6(10, 10, 10);
    const auto seed = [](Interpreter& o) {
        for (std::int64_t m = 1; m <= 5; ++m)
            for (std::int64_t i = 1; i <= 10; ++i)
                for (std::int64_t j = 1; j <= 10; ++j)
                    for (std::int64_t k = 1; k <= 10; ++k)
                        o.setElement("rsd", {m, i, j, k},
                                     0.01 * static_cast<double>(m + i) +
                                         0.001 * static_cast<double>(j * k));
    };
    checkDeterminism(p, MappingOptions{}, {4}, seed, {"rsd"});
}

TEST(SimDeterminism, TomcatvAcrossThreadCounts) {
    const auto seed = [](Interpreter& o) {
        for (std::int64_t i = 1; i <= 10; ++i)
            for (std::int64_t j = 1; j <= 10; ++j) {
                o.setElement("x", {i, j},
                             static_cast<double>(i) +
                                 0.1 * static_cast<double>(j));
                o.setElement("y", {i, j},
                             static_cast<double>(j) -
                                 0.05 * static_cast<double>(i));
            }
    };
    {
        Program p = programs::tomcatv(10, 2);
        checkDeterminism(p, MappingOptions{}, {4}, seed, {"x", "y"});
    }
    {
        // Replication level: every statement executes on all
        // processors, the widest phases the simulator produces.
        Program p = programs::tomcatv(10, 2);
        MappingOptions m;
        m.privatization = false;
        checkDeterminism(p, m, {4}, seed, {"x", "y"});
    }
}

}  // namespace
