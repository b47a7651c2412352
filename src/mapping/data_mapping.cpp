#include "mapping/data_mapping.h"

#include "support/diagnostics.h"

namespace phpf {

void ArrayMap::ownerInto(std::span<const std::int64_t> idx,
                         const ProcGrid& grid, GridSet& out) const {
    PHPF_ASSERT(idx.size() == dims.size(), "subscript rank mismatch");
    out.coord.assign(static_cast<size_t>(grid.rank()), -1);
    for (int g = 0; g < grid.rank(); ++g) {
        if (fixedCoord[static_cast<size_t>(g)] >= 0)
            out.coord[static_cast<size_t>(g)] = fixedCoord[static_cast<size_t>(g)];
    }
    for (size_t d = 0; d < dims.size(); ++d) {
        const ArrayDimMap& m = dims[d];
        if (!m.partitioned()) continue;
        out.coord[static_cast<size_t>(m.gridDim)] =
            m.dist.ownerOf(idx[d] + m.alignOffset);
    }
    // replicatedGrid dims stay at -1 (all coordinates).
}

DataMapping::DataMapping(const Program& p, const ProcGrid& grid) : grid_(grid) {
    maps_.resize(p.symbols.size());
    for (const auto& s : p.symbols)
        maps_[static_cast<size_t>(s.id)] = resolve(p, s.id, 0);
}

ArrayMap DataMapping::resolve(const Program& p, SymbolId sid, int depth) {
    PHPF_ASSERT(depth < 16, "ALIGN chain too deep (cycle?)");
    const Symbol& sym = p.sym(sid);

    ArrayMap out;
    out.symbol = sid;
    out.dims.resize(static_cast<size_t>(sym.rank()));
    out.replicatedGrid.assign(static_cast<size_t>(grid_.rank()), 0);
    out.fixedCoord.assign(static_cast<size_t>(grid_.rank()), -1);

    if (const DistributeDirective* dd = p.distributeOf(sid)) {
        out.hasMapping = true;
        int nextGridDim = 0;
        for (int d = 0; d < sym.rank(); ++d) {
            const DistSpec& spec = dd->specs[static_cast<size_t>(d)];
            if (spec.kind == DistKind::Serial) continue;
            // More partitioned dims than the grid has: the surplus dims
            // degrade to serial (the whole extent lives with each owner
            // of the mapped dims), mirroring how HPF compilers fold a
            // distribution onto a smaller machine.
            if (nextGridDim >= grid_.rank()) continue;
            ArrayDimMap& m = out.dims[static_cast<size_t>(d)];
            m.gridDim = nextGridDim;
            m.dist = DimDist(spec.kind, sym.dims[static_cast<size_t>(d)].lb,
                             sym.dims[static_cast<size_t>(d)].ub,
                             grid_.extent(nextGridDim), spec.blockSize);
            ++nextGridDim;
        }
        return out;
    }

    if (const AlignDirective* ad = p.alignOf(sid)) {
        out.hasMapping = true;
        const ArrayMap target = resolve(p, ad->target, depth + 1);
        // Pinned / replicated constraints of the target itself carry over.
        out.fixedCoord = target.fixedCoord;
        for (int g = 0; g < grid_.rank(); ++g)
            if (target.replicatedGrid[static_cast<size_t>(g)])
                out.replicatedGrid[static_cast<size_t>(g)] = 1;
        for (size_t t = 0; t < ad->dims.size(); ++t) {
            const AlignDim& adim = ad->dims[t];
            const ArrayDimMap& tmap = target.dims[t];
            switch (adim.kind) {
                case AlignDim::Kind::SourceDim: {
                    PHPF_ASSERT(adim.sourceDim >= 0 && adim.sourceDim < sym.rank(),
                                "bad ALIGN source dim");
                    ArrayDimMap& m = out.dims[static_cast<size_t>(adim.sourceDim)];
                    if (tmap.partitioned()) {
                        m.gridDim = tmap.gridDim;
                        m.dist = tmap.dist;
                        m.alignOffset = tmap.alignOffset + adim.offset;
                    }
                    break;
                }
                case AlignDim::Kind::Replicate:
                    if (tmap.partitioned())
                        out.replicatedGrid[static_cast<size_t>(tmap.gridDim)] = 1;
                    break;
                case AlignDim::Kind::Const:
                    if (tmap.partitioned())
                        out.fixedCoord[static_cast<size_t>(tmap.gridDim)] =
                            tmap.dist.ownerOf(adim.constPos + tmap.alignOffset);
                    break;
            }
        }
        return out;
    }

    // No directive: default replicated everywhere.
    return out;
}

}  // namespace phpf
