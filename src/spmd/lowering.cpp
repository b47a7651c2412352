#include "spmd/lowering.h"

#include <sstream>

#include "ir/printer.h"
#include "support/diagnostics.h"

namespace phpf {

SpmdLowering::SpmdLowering(Program& p, const SsaForm& ssa,
                           const DataMapping& dm,
                           const MappingDecisions& decisions,
                           const std::vector<ReductionInfo>& reductions)
    : prog_(p), ssa_(ssa), dm_(dm), decisions_(decisions),
      reductions_(reductions), aff_(p, &ssa) {}

namespace {

/// For privatized-array writes the executor follows the alignment
/// target in the privatized grid dims, provided the target's subscript
/// is a function of loops that also enclose the writing statement
/// (shared loops); otherwise the dimension degrades to replicated
/// (redundant execution).
RefDim contextualize(const RefDim& dim, const Stmt* writer) {
    if (!dim.partitioned()) return dim;
    if (dim.subscript.affine) {
        for (const auto& t : dim.subscript.terms) {
            bool encloses = false;
            for (const Stmt* l = writer->parent; l != nullptr; l = l->parent)
                if (l == t.loop) encloses = true;
            if (!encloses) return RefDim{};  // replicated
        }
        return dim;
    }
    return RefDim{};
}

}  // namespace

RefDesc SpmdLowering::ownerDescOfAssign(const Stmt* s) const {
    const RefDescriber rd = describer();
    if (s->lhs->kind == ExprKind::ArrayRef) {
        const ArrayPrivDecision* ad = decisions_.forArrayAt(s->lhs->sym, s);
        if (ad != nullptr && ad->kind != ArrayPrivDecision::Kind::Replicated) {
            RefDesc desc = ad->kind == ArrayPrivDecision::Kind::Partial
                               ? rd.describeWithMap(s->lhs, ad->mapInLoop)
                               : RefDesc::replicated(dm_.grid().rank());
            if (ad->alignRef != nullptr) {
                const RefDesc tgt = rd.describe(ad->alignRef);
                for (size_t g = 0; g < desc.dims.size(); ++g) {
                    if (ad->privatizedGrid[g] && tgt.dims[g].partitioned())
                        desc.dims[g] = contextualize(tgt.dims[g], s);
                }
            }
            return desc;
        }
        return rd.describe(s->lhs);
    }
    const int defId = ssa_.defIdOfAssign(s);
    const ScalarMapDecision* dec = defId >= 0 ? decisions_.forDef(defId) : nullptr;
    if (dec != nullptr && dec->kind == ScalarMapKind::Aligned) {
        RefDesc d = rd.describe(dec->alignRef);
        // Only the accumulating statement itself partitions along the
        // reduction dims; other statements of the group (the identity
        // initialization) run replicated across them so every partial
        // starts out defined.
        bool isAccumulation = false;
        for (const auto& r : reductions_)
            if (r.stmt == s || r.locStmt == s) isAccumulation = true;
        if (!isAccumulation) {
            for (int g : dec->reductionGridDims)
                d.dims[static_cast<size_t>(g)] = RefDim{};
        }
        return d;
    }
    return RefDesc::replicated(dm_.grid().rank());
}

RefDesc SpmdLowering::unionDescFor(const Stmt* s) const {
    // Borrow the executor of the first owner-computes assignment in the
    // innermost enclosing loop's body: a Union-guarded statement runs
    // wherever the iteration's real work runs.
    const auto loops = prog_.enclosingLoops(s);
    RefDesc out = RefDesc::replicated(dm_.grid().rank());
    if (loops.empty()) return out;
    const Stmt* loop = loops.back();
    bool found = false;
    prog_.forEachStmt([&](const Stmt* t) {
        if (found || t == s || t->kind != StmtKind::Assign) return;
        if (!Program::isInsideLoop(t, loop)) return;
        const RefDesc d = ownerDescOfAssign(t);
        if (d.anyConstrained()) {
            out = d;
            found = true;
        }
    });
    return out;
}

void SpmdLowering::addCommFor(Stmt* s, Expr* root, const RefDesc& execDesc) {
    if (root == nullptr) return;
    const RefDescriber rd = describer();
    Program::walkExpr(root, [&](Expr* e) {
        if (!e->isRef()) return;
        const RefDesc src = rd.describe(e);
        const CommRequirement req = classifyComm(execDesc, src);
        if (!req.needed) return;
        CommOp op;
        op.id = static_cast<int>(ops_.size());
        op.ref = e;
        op.atStmt = s;
        op.req = req;
        op.placementLevel = commPlacementLevel(prog_, &ssa_, e);
        op.execDesc = execDesc;
        op.srcDesc = src;
        ops_.push_back(std::move(op));
    });
}

void SpmdLowering::lowerStmt(Stmt* s) {
    StmtExec ex;
    ex.execDesc = RefDesc::replicated(dm_.grid().rank());

    switch (s->kind) {
        case StmtKind::Assign: {
            const int defId = s->lhs->kind == ExprKind::VarRef
                                  ? ssa_.defIdOfAssign(s)
                                  : -1;
            const ScalarMapDecision* dec =
                defId >= 0 ? decisions_.forDef(defId) : nullptr;
            if (dec != nullptr && dec->kind == ScalarMapKind::PrivatizedNoAlign) {
                ex.guard = StmtExec::Guard::Union;
                ex.execDesc = unionDescFor(s);
            } else {
                const RefDesc d = ownerDescOfAssign(s);
                if (d.anyConstrained()) {
                    ex.guard = StmtExec::Guard::OwnerOf;
                    ex.guardRef = s->lhs->kind == ExprKind::ArrayRef
                                      ? s->lhs
                                      : (dec != nullptr ? dec->alignRef
                                                        : nullptr);
                    ex.execDesc = d;
                } else {
                    ex.guard = StmtExec::Guard::All;
                }
            }
            addCommFor(s, s->rhs, ex.execDesc);
            break;
        }
        case StmtKind::If: {
            if (decisions_.controlPrivatized(s)) {
                ex.guard = StmtExec::Guard::Union;
                // Section 4: predicate data goes to the union of the
                // executors of the control-dependent statements.
                RefDesc dep = RefDesc::replicated(dm_.grid().rank());
                bool found = false;
                std::function<void(const std::vector<Stmt*>&)> scan =
                    [&](const std::vector<Stmt*>& body) {
                        for (const Stmt* t : body) {
                            if (found) return;
                            if (t->kind == StmtKind::Assign) {
                                const RefDesc d = ownerDescOfAssign(t);
                                if (d.anyConstrained()) {
                                    dep = d;
                                    found = true;
                                }
                            } else if (t->kind == StmtKind::If) {
                                scan(t->thenBody);
                                scan(t->elseBody);
                            } else if (t->kind == StmtKind::Do) {
                                scan(t->body);
                            }
                        }
                    };
                scan(s->thenBody);
                scan(s->elseBody);
                ex.execDesc = found ? dep : unionDescFor(s);
            } else {
                ex.guard = StmtExec::Guard::All;
            }
            addCommFor(s, s->cond, ex.execDesc);
            break;
        }
        case StmtKind::Do: {
            // Loop control is replicated: bounds must be everywhere.
            ex.guard = StmtExec::Guard::All;
            addCommFor(s, s->lb, ex.execDesc);
            addCommFor(s, s->ub, ex.execDesc);
            addCommFor(s, s->step, ex.execDesc);
            break;
        }
        case StmtKind::Goto:
        case StmtKind::Continue:
            ex.guard = decisions_.controlPrivatized(s)
                           ? StmtExec::Guard::Union
                           : StmtExec::Guard::All;
            if (ex.guard == StmtExec::Guard::Union)
                ex.execDesc = unionDescFor(s);
            break;
    }
    exec_[s] = std::move(ex);
}

void SpmdLowering::run() {
    prog_.forEachStmt([&](Stmt* s) { lowerStmt(s); });

    // Global combining step for mapped reductions that span grid dims.
    for (const auto& red : reductions_) {
        const int defId = ssa_.defIdOfAssign(red.stmt);
        const ScalarMapDecision* dec =
            defId >= 0 ? decisions_.forDef(defId) : nullptr;
        if (dec == nullptr || !dec->isReductionResult ||
            dec->reductionGridDims.empty())
            continue;
        CommOp op;
        op.id = static_cast<int>(ops_.size());
        op.ref = red.stmt->lhs;
        op.atStmt = red.stmt;
        op.isReductionCombine = true;
        op.combineGridDims = dec->reductionGridDims;
        op.placementLevel = red.loops.front()->loopNestingLevel() - 1;
        op.execDesc = RefDesc::replicated(dm_.grid().rank());
        op.srcDesc = op.execDesc;
        op.req.needed = true;
        op.req.overall = CommPattern::Broadcast;
        op.req.dims.resize(static_cast<size_t>(dm_.grid().rank()));
        ops_.push_back(std::move(op));
    }
}

const StmtExec& SpmdLowering::execOf(const Stmt* s) const {
    auto it = exec_.find(s);
    PHPF_ASSERT(it != exec_.end(), "statement not lowered");
    return it->second;
}

std::vector<const CommOp*> SpmdLowering::opsAt(const Stmt* s) const {
    std::vector<const CommOp*> out;
    for (const auto& op : ops_)
        if (op.atStmt == s) out.push_back(&op);
    return out;
}

std::string SpmdLowering::dump() const {
    std::ostringstream os;
    prog_.forEachStmt([&](const Stmt* s) {
        auto it = exec_.find(s);
        if (it == exec_.end()) return;
        os << "s" << s->id << " [";
        switch (it->second.guard) {
            case StmtExec::Guard::All: os << "all"; break;
            case StmtExec::Guard::OwnerOf:
                os << "owner("
                   << (it->second.guardRef != nullptr
                           ? printExpr(prog_, it->second.guardRef)
                           : std::string("?"))
                   << ")";
                break;
            case StmtExec::Guard::Union: os << "union"; break;
        }
        os << "]\n";
    });
    for (const auto& op : ops_) {
        os << "  comm#" << op.id << " at s" << op.atStmt->id << " level "
           << op.placementLevel << " ";
        if (op.isReductionCombine)
            os << "reduction-combine";
        else
            os << printExpr(prog_, op.ref) << " " << op.req.str();
        os << "\n";
    }
    return os.str();
}

}  // namespace phpf
