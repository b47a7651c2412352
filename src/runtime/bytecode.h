#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.h"
#include "runtime/interp.h"
#include "support/arena.h"

namespace phpf {

struct StmtExec;
struct RefDesc;

namespace bc {

/// Opcode set of the statement bytecode. Arithmetic matches the
/// tree-walking interpreter operation for operation (same libm calls,
/// same non-short-circuit And/Or), so a chunk evaluates bit-identically
/// to Interpreter::eval on the same inputs.
enum class Op : std::uint8_t {
    Const,  ///< a <- consts[b]
    Fetch,  ///< a <- value of slot b (engine-supplied load)
    Neg,    ///< a <- -r[b]
    Not,    ///< a <- r[b] != 0 ? 0 : 1
    Abs,    ///< a <- |r[b]|
    Sqrt,   ///< a <- sqrt(r[b])
    Exp,    ///< a <- exp(r[b])
    Add, Sub, Mul, Div, Pow,        ///< a <- r[b] op r[c]
    Lt, Le, Gt, Ge, Eq, Ne,         ///< a <- r[b] op r[c] ? 1 : 0
    And, Or,                        ///< non-short-circuit logicals
    Max, Min, Mod, Sign,            ///< binary intrinsics
};

/// One register instruction: a = dest, b/c = operand registers, or the
/// constant-pool / fetch-slot index for Const / Fetch.
struct Inst {
    Op op;
    std::uint8_t a = 0;
    std::uint8_t b = 0;
    std::uint8_t c = 0;
};

/// Flat bytecode of one expression tree: postorder-linearized with
/// stack-discipline register allocation (operands evaluate left to
/// right, exactly the interpreter's recursion order, so fetch side
/// effects happen in the same sequence). The result lands in register 0.
struct Chunk {
    std::vector<Inst> code;
    std::vector<double> consts;
    int numRegs = 0;

    [[nodiscard]] bool empty() const { return code.empty(); }
};

/// One VarRef/ArrayRef the compiled expression reads in value position,
/// in depth-first order — the order Interpreter::eval reads them.
struct FetchSlot {
    const Expr* ref = nullptr;
    SymbolId sym = kNoSymbol;
    bool isArray = false;
};

/// An integer index expression strength-reduced to affine form
/// `base + sum(coeff_i * intval(sym_i))` over integer scalar symbols
/// (loop variables, induction scalars). Evaluating the affine form is a
/// few integer multiply-adds instead of a subscript-tree walk per
/// statement instance; anything non-affine keeps the original tree as a
/// fallback and evaluates exactly like the interpreter.
struct IndexForm {
    struct Term {
        SymbolId sym;
        std::int64_t coeff;
    };

    bool affine = false;
    std::int64_t base = 0;
    std::vector<Term> terms;
    /// Non-affine fallback tree (subscript value), or for
    /// `flatFallback` the whole ArrayRef (flat element index).
    const Expr* fallback = nullptr;
    bool flatFallback = false;

    [[nodiscard]] bool present() const {
        return affine || fallback != nullptr;
    }
};

/// Evaluate an index form against the oracle interpreter's store.
/// Affine terms truncate each integer scalar individually — exact
/// whenever the scalars hold integral values, which the compiler
/// guarantees by folding only integer-typed symbols.
[[nodiscard]] inline std::int64_t evalIndexForm(const IndexForm& f,
                                                const Interpreter& oracle) {
    if (f.affine) {
        std::int64_t v = f.base;
        for (const IndexForm::Term& t : f.terms)
            v += t.coeff *
                 static_cast<std::int64_t>(oracle.store().get(t.sym));
        // Debug builds re-derive the index through the interpreter's
        // bounds-checked tree walk and compare — out-of-range
        // subscripts trip the interpreter's own assertion first, and
        // any affine-folding bug trips this one.
        PHPF_DASSERT(f.fallback == nullptr ||
                         v == (f.flatFallback
                                   ? oracle.flatIndexOf(f.fallback)
                                   : oracle.evalIndex(f.fallback)),
                     "affine index form diverges from its subscript tree");
        return v;
    }
    return f.flatFallback ? oracle.flatIndexOf(f.fallback)
                          : oracle.evalIndex(f.fallback);
}

/// Everything the bytecode engine precompiled for one statement.
struct StmtCode {
    Chunk value;                   ///< rhs (Assign) / cond (If)
    std::vector<FetchSlot> slots;  ///< Fetch operands, depth-first
    /// Per slot: flat element index of an ArrayRef slot (empty form for
    /// scalar slots).
    std::vector<IndexForm> slotIndex;
    /// Assign with ArrayRef lhs: flat element index of the store.
    IndexForm lhsIndex;
    /// OwnerOf guards: subscript form per grid dimension of the
    /// executor descriptor (only Partitioned dims are present()).
    std::vector<IndexForm> execIndex;
    /// Union guards: one descriptor's forms per contributing source.
    std::vector<std::vector<IndexForm>> unionIndex;
};

/// Compile one Assign/If statement's guard subscripts, index
/// expressions, and value tree. `exec` / `unionSrcs` mirror the
/// simulator's StmtPlan; either may be null/empty (Do statements need
/// no code). Scratch IR lives in `arena`; the returned StmtCode owns
/// its bytecode.
[[nodiscard]] StmtCode compileStmt(const Program& prog, const Stmt* s,
                                   const StmtExec* exec,
                                   const std::vector<const RefDesc*>& unionSrcs,
                                   Arena& arena);

/// Compile one owner/source descriptor's subscript forms, one per grid
/// dimension (only Partitioned dims are present()). The simulator uses
/// this for communication-op source descriptors, so per-miss owner
/// resolution never walks a subscript tree.
[[nodiscard]] std::vector<IndexForm> compileDescForms(const Program& prog,
                                                      const RefDesc& desc,
                                                      Arena& arena);

/// Compile a standalone expression (unit tests, tools).
[[nodiscard]] Chunk compileExpr(const Program& prog, const Expr* e,
                                std::vector<FetchSlot>& slots);

/// Flat-index form of an ArrayRef (unit tests, tools).
[[nodiscard]] IndexForm flatIndexForm(const Program& prog, const Expr* ref,
                                      Arena& arena);

/// Human-readable listing of a chunk (debugging / golden tests).
[[nodiscard]] std::string disassemble(const Program& prog, const Chunk& ch,
                                      const std::vector<FetchSlot>& slots);

}  // namespace bc
}  // namespace phpf
