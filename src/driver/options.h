#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "comm/cost_model.h"
#include "obs/trace.h"
#include "privatize/mapping_pass.h"
#include "runtime/engine.h"
#include "support/cancellation.h"
#include "support/diagnostics.h"
#include "target/target_kind.h"

namespace phpf {

/// What the program is compiled FOR: the backend kind, the processor
/// grid shape, and the machine cost models. Two requests with equal
/// TargetConfig + equal PassOptions on the same program produce
/// bit-identical compilations — this is the cacheable half of the old
/// CompilerOptions (now fully retired; pass TargetConfig/PassOptions
/// and a CompileSession explicitly).
struct TargetConfig {
    /// Which Target implementation lowers, prices, and emits this
    /// compilation (src/target/target.h). Fingerprinted: mp and shm
    /// artifacts never share a cache entry.
    TargetKind targetKind = TargetKind::MessagePassing;
    std::vector<int> gridExtents{1};
    /// Message-passing (SP2) machine model; elemBytes/flop terms are
    /// also the target-independent compute inputs.
    CostModel costModel;
    /// Shared-memory (SMP) machine model, consulted only when
    /// targetKind is SharedMemory — and by the run report's per-target
    /// comparison, which prices BOTH targets for the decision record.
    ShmCostModel shmModel;
};

/// What the pipeline DOES: the privatization/mapping variant, induction
/// rewriting, and the simulator's merge mode.
struct PassOptions {
    MappingOptions mapping;
    /// Closed-form rewriting of induction variables (Section 2.1). The
    /// phpf compiler always does this; exposed for ablation.
    bool rewriteInduction = true;
    /// Unused; see runtime/engine.h.
    SimEngine simEngine = SimEngine::Bytecode;
    /// Relaxed reduction-merge mode: commutative reduction combines
    /// (SUM/MAX/MIN) merge per-processor accumulator copies in any
    /// worker order and skip the merge-order barrier. MAX/MIN are exact
    /// always; SUM is exact for integer-valued accumulators and
    /// order-sensitive at the last ulp otherwise — hence opt-in and
    /// fingerprinted.
    bool relaxedMerge = false;
};

/// Per-run mutable context of one compilation: everything that is NOT a
/// property of (program, target, passes) — the span recorder, the
/// diagnostics sink, and the cancellation token polled between passes.
/// Keeping these out of the option structs is what makes compilations
/// cacheable and coalescible (two identical option structs can never
/// carry different live side channels).
struct CompileSession {
    /// Span recorder for the run. When null, the pipeline creates one
    /// (the per-pass spans are a handful of clock reads — effectively
    /// free); pass a shared tracer to add caller-side spans (e.g.
    /// "parse") to the same timeline.
    std::shared_ptr<obs::Tracer> tracer;
    /// Diagnostics engine of the run. Not owned; when set, compilation
    /// notes land here and the finished Compilation captures a copy of
    /// every collected diagnostic (parse warnings included) so cached
    /// results stay self-contained.
    DiagEngine* diags = nullptr;
    /// Polled between pipeline stages; a cancelled token stops the run
    /// cleanly at the next stage boundary (no partial pass ever runs).
    CancelToken cancel;
};

/// The execution-selection block: every "which implementation runs
/// this" choice gathered in one enum-backed struct instead of ad-hoc
/// string switches. This is the single surface the CLI (`--target=`,
/// `--relaxed-merge`), the batch jobs file (`target`, `relaxed_merge`
/// option keys), and the report all speak; parseExecSelection / printExecSelection round-trip
/// it, and applyTo/selectionOf move it in and out of
/// TargetConfig/PassOptions.
struct ExecSelection {
    TargetKind target = TargetKind::MessagePassing;
    bool relaxedMerge = false;

    void applyTo(TargetConfig* t, PassOptions* p) const {
        t->targetKind = target;
        p->relaxedMerge = relaxedMerge;
    }

    [[nodiscard]] static ExecSelection selectionOf(const TargetConfig& t,
                                                   const PassOptions& p) {
        return {t.targetKind, p.relaxedMerge};
    }

    friend bool operator==(const ExecSelection& a,
                           const ExecSelection& b) = default;
};

/// Set one selection key on `sel`. Keys and values (the canonical CLI /
/// jobs-file spellings):
///   "target"        = "mp" | "shm"
///   "relaxed_merge" = "on" | "off" | "true" | "false" | "1" | "0"
/// Returns false (leaving `sel` untouched) on an unknown key or a bad
/// value.
[[nodiscard]] inline bool parseExecSelection(std::string_view key,
                                             std::string_view value,
                                             ExecSelection* sel) {
    if (key == "target") {
        TargetKind k;
        if (!parseTargetKind(value, &k)) return false;
        sel->target = k;
        return true;
    }
    if (key == "relaxed_merge") {
        if (value == "on" || value == "true" || value == "1")
            sel->relaxedMerge = true;
        else if (value == "off" || value == "false" || value == "0")
            sel->relaxedMerge = false;
        else
            return false;
        return true;
    }
    return false;
}

/// Canonical one-line form, e.g. "target=mp,relaxed_merge=off". parseExecSelectionList() accepts exactly this
/// (any subset of comma-separated key=value pairs), so print → parse is
/// a lossless round trip; tests and the report rely on that.
[[nodiscard]] inline std::string printExecSelection(const ExecSelection& sel) {
    std::string s = "target=";
    s += targetKindName(sel.target);
    s += ",relaxed_merge=";
    s += sel.relaxedMerge ? "on" : "off";
    return s;
}

/// Parse a comma-separated "key=value[,key=value...]" list into `sel`
/// (keys as in parseExecSelection; unmentioned keys keep their current
/// values). Returns false on the first malformed pair, with `sel`
/// possibly partially updated.
[[nodiscard]] inline bool parseExecSelectionList(std::string_view spec,
                                                 ExecSelection* sel) {
    while (!spec.empty()) {
        const size_t comma = spec.find(',');
        const std::string_view pair =
            comma == std::string_view::npos ? spec : spec.substr(0, comma);
        spec = comma == std::string_view::npos ? std::string_view{}
                                               : spec.substr(comma + 1);
        const size_t eq = pair.find('=');
        if (eq == std::string_view::npos) return false;
        if (!parseExecSelection(pair.substr(0, eq), pair.substr(eq + 1), sel))
            return false;
    }
    return true;
}

}  // namespace phpf
