#pragma once

// Golden records of the SPMD simulator.
//
// A record is the text form of one finished run: every count metric,
// the per-processor and per-comm-op accounting, the profiler's
// per-statement counts (when armed), and FNV-1a hashes of the final
// per-processor state (validity and value bits of every copy) and of
// the sequential oracle's store. tests/golden/spmd_sim.txt holds one
// record per case, keyed "[case]". The records were generated with the
// tree-walking and bytecode engines side by side, which agreed on every
// record at 1, 2 and 4 lockstep threads; the remaining engine is held to
// them by test_vm.cpp. tests/golden/loop_kernel.txt holds the records
// of loopEdges(), the loop driver's edge cases, made before the driver
// existed. Regenerating means running each case through recordOf() and
// pasting the blocks into the file — a change to any record is a change
// to simulated results or metrics.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "ir/builder.h"
#include "programs/programs.h"

namespace phpf::golden {

/// One simulated configuration: a kernel at a compiler level on a grid,
/// with its seeded inputs and the arrays it produces.
struct SimCase {
    std::string id;
    std::function<Program()> build;
    std::vector<int> grid;
    MappingOptions mapping;
    bool combineMessages = false;
    std::function<void(Interpreter&)> seed;
    std::vector<std::string> outputs;

    [[nodiscard]] Compilation compile(Program& p) const {
        TargetConfig opts;
        opts.gridExtents = grid;
        opts.costModel.combineMessages = combineMessages;
        PassOptions passes;
        passes.mapping = mapping;
        return Compiler::compile(p, opts, passes);
    }
};

inline void seedFig1(Interpreter& o) {
    for (std::int64_t i = 1; i <= 25; ++i) {
        if (i <= 24) {
            o.setElement("B", {i}, static_cast<double>(i));
            o.setElement("C", {i}, 1.0);
            o.setElement("E", {i}, 2.0);
            o.setElement("F", {i}, 2.0);
        }
        o.setElement("A", {i}, 0.5);
    }
}

inline void seedRsd(Interpreter& o, std::int64_t n) {
    for (std::int64_t m = 1; m <= 5; ++m)
        for (std::int64_t i = 1; i <= n; ++i)
            for (std::int64_t j = 1; j <= n; ++j)
                for (std::int64_t k = 1; k <= n; ++k)
                    o.setElement("rsd", {m, i, j, k},
                                 0.01 * static_cast<double>(m + i) +
                                     0.001 * static_cast<double>(j * k));
}

inline void seedFig7(Interpreter& o) {
    for (std::int64_t i = 1; i <= 16; ++i) {
        o.setElement("A", {i}, 0.25 * static_cast<double>(i));
        o.setElement("B", {i}, static_cast<double>(17 - i));
        o.setElement("C", {i}, static_cast<double>(i % 5) - 2.0);
    }
}

inline void seedTomcatv(Interpreter& o) {
    for (std::int64_t i = 1; i <= 10; ++i)
        for (std::int64_t j = 1; j <= 10; ++j) {
            o.setElement("x", {i, j},
                         static_cast<double>(i) + 0.1 * static_cast<double>(j));
            o.setElement("y", {i, j},
                         static_cast<double>(j) - 0.05 * static_cast<double>(i));
        }
}

inline void seedDgefa(Interpreter& o) {
    for (std::int64_t r = 1; r <= 12; ++r)
        for (std::int64_t c = 1; c <= 12; ++c)
            o.setElement("A", {r, c},
                         r == c ? 10.0 + static_cast<double>(r)
                                : 1.0 / static_cast<double>(r + c));
}

/// The differential kernels, default compiler level.
inline std::vector<SimCase> kernels() {
    std::vector<SimCase> ks;
    ks.push_back({"fig1", [] { return programs::fig1(24); }, {4}, {}, false,
                  seedFig1, {"A", "D"}});
    ks.push_back({"fig6", [] { return programs::fig6(10, 10, 10); }, {2, 2},
                  {}, false, [](Interpreter& o) { seedRsd(o, 10); }, {"rsd"}});
    ks.push_back({"fig7", [] { return programs::fig7(16); }, {4}, {}, false,
                  seedFig7, {"A"}});
    ks.push_back({"tomcatv", [] { return programs::tomcatv(10, 2); }, {4}, {},
                  false, seedTomcatv, {"x", "y"}});
    ks.push_back({"dgefa", [] { return programs::dgefa(12); }, {4}, {}, false,
                  seedDgefa, {"A"}});
    ks.push_back({"appsp",
                  [] { return programs::appsp(6, 6, 6, 1, /*oneD=*/true); },
                  {4}, {}, false, [](Interpreter& o) { seedRsd(o, 6); },
                  {"rsd"}});
    return ks;
}

/// Deterministic non-trivial values for every element of `names`.
inline void seedRamp(Interpreter& o, const Program& p,
                     const std::vector<std::string>& names) {
    for (const std::string& name : names) {
        const SymbolId s = p.findSymbol(name);
        Store& st = o.store();
        for (std::int64_t f = 0; f < st.sizeOf(s); ++f)
            st.set(s, f, 0.5 + static_cast<double>((f * 7 + 3) % 11));
    }
}

constexpr std::int64_t kEdgeN = 32;

/// Scalars assigned in a loop body and read as subscripts there: an
/// induction scalar `m` stepped each iteration (fig1's pattern), and a
/// scalar `k` loaded from an index array.
inline Program loopInduction() {
    const std::int64_t n = kEdgeN;
    ProgramBuilder b("loop_induction");
    auto A = b.realArray("A", {n});
    auto D = b.realArray("D", {2 * n + 1});
    auto P = b.integerArray("P", {n});
    auto m = b.integerVar("m");
    auto k = b.integerVar("k");
    auto i = b.integerVar("i");
    b.distribute(A, {{DistKind::Block, 0}});
    b.distribute(D, {{DistKind::Block, 0}});
    b.assign(b.idx(m), b.lit(std::int64_t{1}));
    b.doLoop(i, b.lit(std::int64_t{1}), b.lit(n), [&] {
        b.assign(b.idx(m), b.idx(m) + b.lit(std::int64_t{2}));
        b.assign(b.ref(D, {b.idx(m)}), b.ref(A, {b.idx(i)}) * b.lit(2.0));
    });
    // k enters the loop holding an in-range subscript, so only the
    // assigned-symbol rule keeps the loop off the driver.
    b.assign(b.idx(k), b.lit(std::int64_t{1}));
    b.doLoop(i, b.lit(std::int64_t{1}), b.lit(n), [&] {
        b.assign(b.idx(k), b.ref(P, {b.idx(i)}));
        b.assign(b.ref(D, {b.idx(k)}), b.ref(A, {b.idx(i)}) + b.lit(1.0));
    });
    return b.finish();
}

/// loopInduction's inputs; P holds in-range subscripts of D.
inline void seedInduction(Interpreter& o) {
    for (std::int64_t i = 1; i <= kEdgeN; ++i) {
        o.setElement("A", {i}, 0.5 + static_cast<double>(i % 7));
        o.setElement("P", {i},
                     static_cast<double>(1 + (i * 5) % (2 * kEdgeN + 1)));
    }
}

/// Loop bounds: a negative-step loop, a zero-trip loop, a stride-3 loop
/// whose last iteration stops short of its bound, the loop variables'
/// values after the loops read back, and the loop variable read as a
/// value inside a body.
inline Program loopBounds() {
    const std::int64_t n = kEdgeN;
    ProgramBuilder b("loop_bounds");
    auto A = b.realArray("A", {n});
    auto B = b.realArray("B", {n});
    auto s = b.realVar("s");
    auto i = b.integerVar("i");
    auto j = b.integerVar("j");
    b.distribute(A, {{DistKind::Block, 0}});
    b.alignIdentity(B, A);
    const auto one = b.lit(std::int64_t{1});
    b.assign(b.idx(j), b.lit(std::int64_t{3}));
    b.doLoop(i, b.lit(n), one, b.lit(std::int64_t{-1}), [&] {
        b.assign(b.ref(B, {b.idx(i)}),
                 b.ref(A, {b.idx(i)}) + b.ref(A, {b.lit(n + 1) - b.idx(i)}));
    });
    b.doLoop(j, b.lit(std::int64_t{5}), b.lit(std::int64_t{4}), [&] {
        b.assign(b.ref(B, {b.idx(j)}), b.lit(0.0));
    });
    b.doLoop(i, one, b.lit(n - 2), b.lit(std::int64_t{3}), [&] {
        b.assign(b.ref(A, {b.idx(i)}), b.ref(B, {b.idx(i) + one}) * b.idx(i));
    });
    b.assign(b.idx(s), b.idx(i) + b.idx(j));
    b.assign(b.ref(B, {one}), b.idx(s));
    return b.finish();
}

/// Loops the driver must leave to the per-statement path: an IF in the
/// body, a GOTO to a labelled CONTINUE, an outer loop around an
/// eligible inner one, and a privatized unaligned scalar (Union guard).
inline Program loopFallbacks() {
    const std::int64_t n = kEdgeN;
    ProgramBuilder b("loop_fallbacks");
    auto A = b.realArray("A", {n});
    auto B = b.realArray("B", {n});
    auto C = b.realArray("C", {8, n});
    auto E = b.realArray("E", {n});
    auto z = b.realVar("z");
    auto i = b.integerVar("i");
    auto j = b.integerVar("j");
    b.distribute(A, {{DistKind::Block, 0}});
    b.alignIdentity(B, A);
    b.distribute(C, {{DistKind::Serial, 0}, {DistKind::Block, 0}});
    b.align(E, A, {{AlignDim::Kind::Replicate, -1, 0, 0}});
    const auto one = b.lit(std::int64_t{1});
    b.doLoop(i, one, b.lit(n), [&] {
        b.ifStmt(b.ref(A, {b.idx(i)}) > b.lit(4.0), [&] {
            b.assign(b.ref(B, {b.idx(i)}), b.ref(A, {b.idx(i)}) * b.lit(0.5));
        });
    });
    b.doLoop(i, one, b.lit(n), [&] {
        b.ifStmt(b.ref(B, {b.idx(i)}) < b.lit(2.0),
                 [&] { b.gotoStmt(10); });
        b.assign(b.ref(A, {b.idx(i)}), b.ref(B, {b.idx(i)}) + b.lit(1.0));
        b.continueStmt(10);
    });
    b.doLoop(j, one, b.lit(n), [&] {
        b.doLoop(i, one, b.lit(std::int64_t{8}), [&] {
            b.assign(b.ref(C, {b.idx(i), b.idx(j)}),
                     b.ref(C, {b.idx(i), b.idx(j)}) + b.ref(A, {b.idx(j)}));
        });
    });
    b.doLoop(i, one, b.lit(n), [&] {
        b.assign(b.idx(z), b.ref(E, {b.idx(i)}) * b.lit(2.0));
        b.assign(b.ref(B, {b.idx(i)}), b.idx(z) + b.ref(A, {b.idx(i)}));
    });
    return b.finish();
}

/// An owner-computes lhs replicated along one grid dimension: the
/// executor set is a grid row, not one processor.
inline Program loopReplicatedOwner() {
    const std::int64_t n = 16;
    ProgramBuilder b("loop_replicated_owner");
    auto A = b.realArray("A", {n, n});
    auto R = b.realArray("R", {n});
    auto Q = b.realArray("Q", {n});
    auto i = b.integerVar("i");
    b.distribute(A, {{DistKind::Block, 0}, {DistKind::Block, 0}});
    for (const SymbolId v : {R, Q})
        b.align(v, A, {{AlignDim::Kind::SourceDim, 0, 0, 0},
                       {AlignDim::Kind::Replicate, -1, 0, 0}});
    b.doLoop(i, b.lit(std::int64_t{1}), b.lit(n), [&] {
        b.assign(b.ref(R, {b.idx(i)}),
                 b.ref(A, {b.idx(i), b.idx(i)}) * b.lit(2.0));
        b.assign(b.ref(Q, {b.idx(i)}), b.ref(R, {b.idx(i)}) + b.lit(1.0));
    });
    return b.finish();
}

/// The loop-driver edge cases (tests/golden/loop_kernel.txt).
inline std::vector<SimCase> loopEdges() {
    std::vector<SimCase> cs;
    const auto seeded = [](std::function<Program()> build,
                           std::vector<std::string> arrays) {
        return [build, arrays](Interpreter& o) {
            seedRamp(o, build(), arrays);
        };
    };
    cs.push_back({"loop/induction", loopInduction, {4}, {}, false,
                  seedInduction, {"D"}});
    cs.push_back({"loop/bounds", loopBounds, {4}, {}, false,
                  seeded(loopBounds, {"A", "B"}), {"A", "B"}});
    cs.push_back({"loop/fallbacks", loopFallbacks, {4}, {}, false,
                  seeded(loopFallbacks, {"A", "B", "C", "E"}),
                  {"A", "B", "C"}});
    cs.push_back({"loop/replicated-owner", loopReplicatedOwner, {2, 2}, {},
                  false, seeded(loopReplicatedOwner, {"A", "R", "Q"}),
                  {"R", "Q"}});
    return cs;
}

/// The compiler levels of the Table 1-3 benches, at small sizes.
inline std::vector<SimCase> paperLevels() {
    std::vector<SimCase> cs;
    const auto tomcatv = [] { return programs::tomcatv(10, 2); };
    MappingOptions replication;
    replication.privatization = false;
    MappingOptions producer;
    producer.alignPolicy = MappingOptions::AlignPolicy::ProducerOnly;
    cs.push_back({"table1/replication", tomcatv, {4}, replication, false,
                  seedTomcatv, {"x", "y"}});
    cs.push_back({"table1/producer", tomcatv, {4}, producer, false,
                  seedTomcatv, {"x", "y"}});
    cs.push_back({"table1/selected", tomcatv, {4}, {}, false, seedTomcatv,
                  {"x", "y"}});
    for (const bool align : {false, true}) {
        MappingOptions m;
        m.reductionAlignment = align;
        cs.push_back({align ? "table2/alignment" : "table2/default",
                      [] { return programs::dgefa(12); }, {4}, m, false,
                      seedDgefa, {"A"}});
    }
    const char* appspNames[] = {"table3/1d-no-array-priv", "table3/1d-priv",
                                "table3/2d-no-partial", "table3/2d-partial",
                                "table3/2d-partial-combine"};
    for (int v = 0; v < 5; ++v) {
        const bool oneD = v < 2;
        MappingOptions m;
        m.arrayPrivatization = v == 1 || v >= 3;
        m.partialPrivatization = v >= 3;
        cs.push_back({appspNames[v],
                      [oneD] { return programs::appsp(6, 6, 6, 1, oneD); },
                      oneD ? std::vector<int>{4} : std::vector<int>{2, 2}, m,
                      v == 4, [](Interpreter& o) { seedRsd(o, 6); },
                      {"rsd"}});
    }
    return cs;
}

inline std::uint64_t fnv1a(std::uint64_t h, const void* data, size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 1099511628211ull;
    }
    return h;
}

inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

/// Text record of a finished run (see the file comment).
inline std::string recordOf(const Compilation& c, SpmdSimulator& sim) {
    std::ostringstream o;
    o << "proc_stmts " << sim.statementsExecutedAllProcs() << '\n'
      << "element_transfers " << sim.elementTransfers() << '\n'
      << "message_events " << sim.messageEvents() << '\n'
      << "bytes_moved " << static_cast<std::int64_t>(sim.bytesMoved())
      << '\n';
    for (size_t p = 0; p < sim.procMetrics().size(); ++p) {
        const ProcSimMetrics& m = sim.procMetrics()[p];
        o << "proc " << p << " executed " << m.stmtsExecuted << " skipped "
          << m.stmtsSkipped << " sent " << m.sentElements << " received "
          << m.recvElements << '\n';
    }
    for (const CommOp& op : c.lowering().commOps())
        o << "op " << op.id << " events " << sim.eventsOfOp(op.id)
          << " elements " << sim.elementsOfOp(op.id) << '\n';
    if (const obs::StmtProfile* prof = sim.profile()) {
        for (int id = 0; id < prof->stmtCount(); ++id) {
            const obs::StmtProfile::Row& r = prof->row(id);
            if (r.instances == 0 && r.elements == 0 && r.events == 0) continue;
            o << "stmt " << id << " instances " << r.instances
              << " proc_stmts " << r.procStmts << " elements " << r.elements
              << " events " << r.events << " eval_samples " << r.evalSamples
              << " merge_samples " << r.mergeSamples << '\n';
        }
    }
    const Program& prog = c.program();
    std::uint64_t state = kFnvBasis;
    for (const Symbol& s : prog.symbols) {
        const std::int64_t n = sim.oracle().store().sizeOf(s.id);
        for (std::int64_t flat = 0; flat < n; ++flat)
            for (int p = 0; p < sim.procCount(); ++p) {
                const char valid = sim.validOn(p, s.name, flat) ? 1 : 0;
                state = fnv1a(state, &valid, 1);
                if (valid == 0) continue;
                const double v = sim.valueOn(p, s.name, flat);
                state = fnv1a(state, &v, sizeof v);
            }
    }
    const Store& ref = sim.oracle().store();
    const std::uint64_t oracle =
        fnv1a(kFnvBasis, ref.dataRaw(),
              static_cast<size_t>(ref.totalElems()) * sizeof(double));
    char buf[64];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(state));
    o << "proc_state_hash " << buf << '\n';
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(oracle));
    o << "oracle_hash " << buf << '\n';
    return o.str();
}

/// Parses "[case]"-keyed blocks; lines starting with '#' are comments.
inline std::map<std::string, std::string> parseGoldens(std::istream& in) {
    std::map<std::string, std::string> out;
    std::string line, key;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        if (line.front() == '[' && line.back() == ']') {
            key = line.substr(1, line.size() - 2);
            out[key];
            continue;
        }
        out[key] += line + '\n';
    }
    return out;
}

}  // namespace phpf::golden
