#pragma once

#include <span>
#include <vector>

#include "ir/program.h"
#include "mapping/dist.h"
#include "mapping/proc_grid.h"

namespace phpf {

/// A set of processors described per grid dimension: a specific
/// coordinate, or -1 meaning "every coordinate along this dimension".
/// This is the shape ownership queries take under HPF mappings —
/// replication is always axis-aligned.
struct GridSet {
    std::vector<int> coord;  ///< per grid dim; -1 = all

    [[nodiscard]] bool isAllProcs() const {
        for (int c : coord)
            if (c != -1) return false;
        return true;
    }
    [[nodiscard]] bool isSingleProc() const {
        for (int c : coord)
            if (c == -1) return false;
        return true;
    }
    [[nodiscard]] int procCount(const ProcGrid& g) const {
        int n = 1;
        for (int d = 0; d < g.rank(); ++d)
            if (coord[static_cast<size_t>(d)] == -1) n *= g.extent(d);
        return n;
    }
    [[nodiscard]] bool contains(const std::vector<int>& c) const {
        for (size_t d = 0; d < coord.size(); ++d)
            if (coord[d] != -1 && coord[d] != c[d]) return false;
        return true;
    }
    friend bool operator==(const GridSet&, const GridSet&) = default;
};

/// Mapping of one array dimension.
struct ArrayDimMap {
    int gridDim = -1;              ///< -1: serial (dimension not partitioned)
    DimDist dist;                  ///< owner arithmetic (target index space)
    std::int64_t alignOffset = 0;  ///< owner(idx) = dist.ownerOf(idx + alignOffset)

    [[nodiscard]] bool partitioned() const { return gridDim >= 0; }
};

/// Fully resolved mapping of one array (or scalar: zero dims) after
/// chasing ALIGN chains down to a DISTRIBUTE.
struct ArrayMap {
    SymbolId symbol = kNoSymbol;
    std::vector<ArrayDimMap> dims;   ///< per array dimension
    std::vector<char> replicatedGrid;  ///< per grid dim: replicated there?
    std::vector<int> fixedCoord;       ///< per grid dim: pinned coordinate, or -1
    bool hasMapping = false;  ///< false: no directive — default replicated

    [[nodiscard]] bool anyPartitionedDim() const {
        for (const auto& d : dims)
            if (d.partitioned()) return true;
        return false;
    }
    /// Replicated on every processor (the penalty case of Section 1).
    [[nodiscard]] bool fullyReplicated() const {
        if (anyPartitionedDim()) return false;
        for (int c : fixedCoord)
            if (c != -1) return false;
        return true;
    }
    /// Grid dim that array dim `d` is partitioned over, or -1.
    [[nodiscard]] int gridDimOf(int d) const {
        return dims[static_cast<size_t>(d)].gridDim;
    }
    /// Array dim partitioned over grid dim `g`, or -1.
    [[nodiscard]] int arrayDimOnGrid(int g) const {
        for (size_t d = 0; d < dims.size(); ++d)
            if (dims[d].gridDim == g) return static_cast<int>(d);
        return -1;
    }

    /// Owner set of element `idx` (empty idx for scalars), written into
    /// `out` so a caller walking many elements reuses one GridSet.
    void ownerInto(std::span<const std::int64_t> idx, const ProcGrid& grid,
                   GridSet& out) const;
    /// ownerInto into a fresh GridSet.
    [[nodiscard]] GridSet ownerOf(const std::vector<std::int64_t>& idx,
                                  const ProcGrid& grid) const {
        GridSet out;
        ownerInto(idx, grid, out);
        return out;
    }
};

/// Resolves the program's DISTRIBUTE / ALIGN directives against a
/// concrete processor grid. Arrays without directives — and all scalars
/// — default to full replication, matching the naive compiler the paper
/// measures first.
class DataMapping {
public:
    DataMapping(const Program& p, const ProcGrid& grid);

    [[nodiscard]] const ProcGrid& grid() const { return grid_; }
    [[nodiscard]] const ArrayMap& mapOf(SymbolId s) const {
        return maps_[static_cast<size_t>(s)];
    }
    [[nodiscard]] bool isPartitioned(SymbolId s) const {
        return mapOf(s).anyPartitionedDim();
    }
    /// Next free grid dimension when a DISTRIBUTE names fewer dims than
    /// the grid rank (used by partial privatization to pick the
    /// privatized dims).
    [[nodiscard]] int gridRank() const { return grid_.rank(); }

    /// Replace a map (partial privatization rewrites the work array's
    /// mapping).
    void overrideMap(SymbolId s, ArrayMap m) {
        maps_[static_cast<size_t>(s)] = std::move(m);
    }

private:
    ArrayMap resolve(const Program& p, SymbolId s, int depth);

    ProcGrid grid_;
    std::vector<ArrayMap> maps_;
};

}  // namespace phpf
