#include "inputs.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "ir/printer.h"
#include "programs/programs.h"
#include "runtime/interp.h"
#include "runtime/store.h"

namespace perfbench {

using phpf::Program;

void applyInput(const SimInput& in, const Program& p,
                phpf::Interpreter& oracle) {
    phpf::Store& st = oracle.store();
    for (const ArrayInput& a : in) {
        const phpf::SymbolId s = p.findSymbol(a.name);
        if (s == phpf::kNoSymbol ||
            st.sizeOf(s) != static_cast<std::int64_t>(a.values.size()))
            throw std::runtime_error("input does not fit array " + a.name);
        for (size_t i = 0; i < a.values.size(); ++i)
            st.set(s, static_cast<std::int64_t>(i), a.values[i]);
    }
}

namespace {

/// Flat store index of a 2-D element.
std::int64_t flat2(const phpf::Store& st, const Program& p, phpf::SymbolId s,
                   std::int64_t i, std::int64_t j) {
    return st.flatten(p, s, {i, j});
}

SimInput tomcatvMesh(const Program& p, Rng& rng) {
    // A perturbed unit mesh: x grows with i, y with j, each point moved
    // by up to a quarter cell.
    const phpf::Store st(p);
    SimInput in;
    for (const char* name : {"x", "y"}) {
        const phpf::SymbolId s = p.findSymbol(name);
        const auto& dims = p.sym(s).dims;
        ArrayInput a{name, std::vector<double>(static_cast<size_t>(st.sizeOf(s)))};
        for (std::int64_t j = dims[1].lb; j <= dims[1].ub; ++j)
            for (std::int64_t i = dims[0].lb; i <= dims[0].ub; ++i) {
                const double base = name[0] == 'x' ? static_cast<double>(i)
                                                    : static_cast<double>(j);
                a.values[static_cast<size_t>(flat2(st, p, s, i, j))] =
                    base + 0.5 * (rng.uniform() - 0.5);
            }
        in.push_back(std::move(a));
    }
    return in;
}

SimInput dgefaMatrix(const Program& p, Rng& rng) {
    // Entries in [-1, 1) plus n on the diagonal: strictly diagonally
    // dominant by rows and columns, so elimination never divides by a
    // small pivot.
    const phpf::Store st(p);
    const phpf::SymbolId s = p.findSymbol("A");
    const auto& dims = p.sym(s).dims;
    const std::int64_t n = dims[0].extent();
    ArrayInput a{"A", std::vector<double>(static_cast<size_t>(st.sizeOf(s)))};
    for (double& v : a.values) v = 2.0 * rng.uniform() - 1.0;
    for (std::int64_t i = dims[0].lb; i <= dims[0].ub; ++i)
        a.values[static_cast<size_t>(flat2(st, p, s, i, i))] +=
            static_cast<double>(n);
    return {std::move(a)};
}

}  // namespace

SimInput seedAllArrays(const Program& p, Rng& rng) {
    const phpf::Store st(p);
    // Integer arrays serve as subscripts (Fig. 2's B and C): keep their
    // values inside every array's bounds.
    std::int64_t minExtent = 1 << 30;
    for (const phpf::Symbol& sym : p.symbols)
        for (const phpf::ArrayDim& d : sym.dims) minExtent = std::min(minExtent, d.extent());
    SimInput in;
    for (const phpf::Symbol& sym : p.symbols) {
        if (!sym.isArray()) continue;
        ArrayInput a{sym.name,
                     std::vector<double>(static_cast<size_t>(st.sizeOf(sym.id)))};
        if (sym.type == phpf::ScalarType::Int) {
            for (double& v : a.values)
                v = static_cast<double>(1 + static_cast<std::int64_t>(rng.next() %
                                                static_cast<std::uint64_t>(minExtent)));
            in.push_back(std::move(a));
            continue;
        }
        for (double& v : a.values) v = 0.5 + rng.uniform();
        if (sym.rank() == 2 && sym.dims[0].extent() == sym.dims[1].extent())
            for (std::int64_t k = 0; k < sym.dims[0].extent(); ++k)
                a.values[static_cast<size_t>(
                    flat2(st, p, sym.id, sym.dims[0].lb + k, sym.dims[1].lb + k))] +=
                    static_cast<double>(sym.dims[0].extent());
        in.push_back(std::move(a));
    }
    return in;
}

std::string printedSource(const Program& p) {
    std::string text = phpf::printProgram(p);
    for (char& c : text)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return text;
}

// Problem sizes of the simulation workloads. TOMCATV at n = 128 and
// DGEFA at n = 112 each take tens of milliseconds per job on a 4-core
// host, enough jobs per run for a stable median and tail.
constexpr std::int64_t kTomcatvN = 128;
constexpr std::int64_t kTomcatvIters = 2;
constexpr std::int64_t kDgefaN = 112;

bool simWorkloadSpec(const std::string& workload, SimWorkloadSpec* out) {
    if (workload == "tomcatv_sim") {
        *out = {workload, [] { return phpf::programs::tomcatv(kTomcatvN, kTomcatvIters); },
                {16}, tomcatvMesh};
        return true;
    }
    if (workload == "dgefa_sim") {
        *out = {workload, [] { return phpf::programs::dgefa(kDgefaN); },
                {16}, dgefaMatrix};
        return true;
    }
    return false;
}

std::vector<int> simJobOrder(std::uint64_t seed, int cycles) {
    Rng rng(seed ^ 0x0DE5EEDull);
    std::vector<int> order;
    order.reserve(static_cast<size_t>(cycles) * kSimVariants);
    for (int c = 0; c < cycles; ++c) {
        int cycle[kSimVariants];
        for (int v = 0; v < kSimVariants; ++v) cycle[v] = v;
        for (int i = kSimVariants; i > 1; --i)
            std::swap(cycle[i - 1], cycle[rng.next() % static_cast<std::uint64_t>(i)]);
        order.insert(order.end(), cycle, cycle + kSimVariants);
    }
    return order;
}

namespace {

struct MixProgram {
    const char* name;
    /// Two small sizes; each builds a fresh program.
    std::function<Program(int sizeIdx)> build;
    /// Grids the program's distribution takes.
    std::vector<std::vector<int>> grids;
};

std::vector<MixProgram> mixPrograms() {
    namespace pr = phpf::programs;
    const std::vector<std::vector<int>> oneD{{4}, {16}};
    const std::vector<std::vector<int>> twoD{{2, 2}, {4, 4}};
    auto pick = [](int idx, std::int64_t a, std::int64_t b) { return idx == 0 ? a : b; };
    return {
        {"fig1", [=](int i) { return pr::fig1(pick(i, 16, 32)); }, oneD},
        {"fig2", [=](int i) { return pr::fig2(pick(i, 16, 32)); }, oneD},
        {"fig4", [=](int i) { return pr::fig4(pick(i, 16, 32)); }, oneD},
        {"fig5", [=](int i) { return pr::fig5(pick(i, 8, 16)); }, oneD},
        {"fig6", [=](int i) { const auto n = pick(i, 6, 8); return pr::fig6(n, n, n); }, oneD},
        {"fig7", [=](int i) { return pr::fig7(pick(i, 16, 32)); }, oneD},
        {"tomcatv", [=](int i) { return pr::tomcatv(pick(i, 16, 32), 2); }, oneD},
        {"dgefa", [=](int i) { return pr::dgefa(pick(i, 16, 24)); }, oneD},
        {"appsp", [=](int i) { const auto n = pick(i, 6, 8); return pr::appsp(n, n, n, 2, true); }, oneD},
        {"appsp2d", [=](int i) { const auto n = pick(i, 6, 8); return pr::appsp(n, n, n, 2, false); }, twoD},
        {"adi", [=](int i) { return pr::adi(pick(i, 16, 24), 2); }, oneD},
    };
}

struct MappingVariant {
    const char* name;
    phpf::MappingOptions opts;
};

std::vector<MappingVariant> mappingVariants() {
    using phpf::MappingOptions;
    MappingOptions producer;
    producer.alignPolicy = MappingOptions::AlignPolicy::ProducerOnly;
    MappingOptions noPriv;
    noPriv.privatization = false;
    MappingOptions noRed;
    noRed.reductionAlignment = false;
    MappingOptions noArray;
    noArray.arrayPrivatization = false;
    noArray.partialPrivatization = false;
    return {{"selected", {}},
            {"producer-only", producer},
            {"no-privatization", noPriv},
            {"no-reduction-alignment", noRed},
            {"no-array-partial-privatization", noArray}};
}

std::string gridLabel(const std::vector<int>& g) {
    std::string s = "{";
    for (size_t i = 0; i < g.size(); ++i)
        s += (i ? "," : "") + std::to_string(g[i]);
    return s + "}";
}

}  // namespace

std::vector<MixEntry> mixKeySpace() {
    std::vector<MixEntry> keys;
    for (const MixProgram& mp : mixPrograms()) {
        for (int sizeIdx = 0; sizeIdx < 2; ++sizeIdx) {
            const std::string text = printedSource(mp.build(sizeIdx));
            for (const auto& grid : mp.grids)
                for (const MappingVariant& v : mappingVariants()) {
                    MixEntry e;
                    e.label = std::string(mp.name) + ".s" + std::to_string(sizeIdx) +
                              "/" + gridLabel(grid) + "/" + v.name;
                    e.source = text;
                    e.target.gridExtents = grid;
                    e.passes.mapping = v.opts;
                    keys.push_back(std::move(e));
                }
        }
    }
    // Popularity rank is part of the workload, not of the seed: a fixed
    // shuffle spreads hot keys over programs and variants, so every seed
    // measures the same mix and only the draws and their order change.
    Rng fixed(0x5EEDC0DEull);
    for (size_t i = keys.size(); i > 1; --i)
        std::swap(keys[i - 1], keys[static_cast<size_t>(fixed.next() % i)]);
    return keys;
}

std::vector<double> zipfWeights(int keySpace) {
    std::vector<double> w(static_cast<size_t>(keySpace));
    for (int r = 0; r < keySpace; ++r)
        w[static_cast<size_t>(r)] = 1.0 / std::pow(static_cast<double>(r + 1), kMixSkew);
    return w;
}

std::vector<int> mixStream(std::uint64_t seed, int keySpace, int count) {
    std::vector<double> cdf = zipfWeights(keySpace);
    double total = 0;
    for (double& c : cdf) c = total += c;
    Rng rng(seed ^ 0xC0FFEEull);
    std::vector<int> out(static_cast<size_t>(count));
    for (int& k : out) {
        const double u = rng.uniform() * total;
        k = static_cast<int>(std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        k = std::min(k, keySpace - 1);
    }
    return out;
}

}  // namespace perfbench
