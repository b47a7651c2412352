#pragma once

#include <memory>
#include <string>
#include <vector>

#include "driver/options.h"
#include "obs/json.h"
#include "privatize/mapping_pass.h"
#include "spmd/cost_eval.h"
#include "spmd/cost_report.h"
#include "spmd/lowering.h"

namespace phpf {

/// One compilation backend: everything that depends on WHAT machine the
/// SPMD program runs on — mapping-decision pricing, lowering, analytic
/// cost prediction, and text/report emission. The pipeline stays
/// target-independent and calls through this interface; TargetKind
/// (carried by TargetConfig) selects the implementation via
/// targetFor().
///
/// The contract a backend must keep (see DESIGN.md for the narrative
/// version):
///  - lower() must produce a lowering the functional simulator can
///    execute: the guard/comm-op STRUCTURE is shared
///    across targets, only its interpretation (messages vs. coherence
///    reads) differs. A target that needs structurally different
///    lowering must also teach SpmdSimulator its semantics.
///  - mappingHooks() prices decision-log alternatives; it must not
///    change which alternative the mapping algorithm picks (decisions
///    are structural, which is what keeps every target able to compile
///    and simulate the same kernels).
///  - predictCost()/predictDetailed()/costReport() must agree with each
///    other (same totals) and be deterministic for a given
///    (lowering, config).
///  - describe() returns the machine-model parameters the run report
///    embeds, so a cached artifact's report is self-explanatory.
///
/// Implementations are stateless singletons (all state lives in the
/// TargetConfig / lowering they are handed), so targetFor() can return
/// shared const references that live forever.
class Target {
public:
    virtual ~Target() = default;

    [[nodiscard]] virtual TargetKind kind() const = 0;
    /// Stable short name ("mp" / "shm") — the CLI/report/cache spelling.
    [[nodiscard]] const char* name() const { return targetKindName(kind()); }
    /// Human-readable machine description for reports and --help.
    [[nodiscard]] virtual const char* displayName() const = 0;

    /// Decision-log pricing hooks for MappingPass (annotation only;
    /// never changes decisions — see MappingCostHooks).
    [[nodiscard]] virtual MappingCostHooks mappingHooks(
        const TargetConfig& config) const = 0;

    /// Lower the mapped program to SPMD form for this target. The
    /// default is the shared guard/comm-op lowering both built-in
    /// targets use.
    [[nodiscard]] virtual std::unique_ptr<SpmdLowering> lower(
        Program& p, const SsaForm& ssa, const DataMapping& dm,
        const MappingDecisions& decisions,
        const std::vector<ReductionInfo>& reductions) const;

    /// Analytic performance prediction on this target's machine model.
    [[nodiscard]] virtual CostBreakdown predictCost(
        const SpmdLowering& low, const TargetConfig& config) const = 0;
    /// Same with per-statement / per-op attribution.
    [[nodiscard]] virtual DetailedCost predictDetailed(
        const SpmdLowering& low, const TargetConfig& config) const = 0;
    /// Itemized attribution report (phpfc --cost).
    [[nodiscard]] virtual CostReport costReport(
        const SpmdLowering& low, const TargetConfig& config) const = 0;

    /// Human-readable emission of the lowered program in this target's
    /// idiom (message-passing pseudo-Fortran+MPL / OpenMP-style
    /// annotated Fortran).
    [[nodiscard]] virtual std::string emitText(
        const SpmdLowering& low) const = 0;

    /// Machine-model parameters as a JSON object for the run report.
    [[nodiscard]] virtual obs::Json describe(
        const TargetConfig& config) const = 0;
};

/// The stateless singleton backend for `kind`; valid forever.
[[nodiscard]] const Target& targetFor(TargetKind kind);

}  // namespace phpf
