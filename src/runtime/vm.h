#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "runtime/bytecode.h"

namespace phpf::vm {

/// Asserts the chunk is well formed (register/constant/slot indices in
/// range), so the dispatch loop can run unchecked. Called once per
/// compiled statement, never per instance.
void validate(const bc::Chunk& ch, int slotCount);

/// Dispatch-loop VM over SoA lanes. Registers are banks of `stride`
/// doubles (one element per lane), so one instruction dispatch is
/// amortized over every simulated processor executing the statement —
/// the register file for a phase is `chunk.numRegs * stride` doubles of
/// caller-owned scratch.
///
/// `fetch(dst, lanes, slot)` fills dst[0..lanes) with the slot's
/// operand for every lane — row granularity, so lane-major state (the
/// simulator's SoA banks) loads a fully-valid slot with one contiguous
/// copy instead of `lanes` callback dispatches. Fetch instructions
/// execute in postorder and a row fills lanes in ascending order, so
/// the (slot, lane) side-effect sequence is deterministic.
///
/// The result of the expression is register bank 0.
template <typename FetchFn>
void runLanes(const bc::Chunk& ch, int lanes, double* regs, int stride,
              FetchFn&& fetch) {
    for (const bc::Inst& in : ch.code) {
        double* d = regs + static_cast<std::ptrdiff_t>(in.a) * stride;
        const double* x = regs + static_cast<std::ptrdiff_t>(in.b) * stride;
        const double* y = regs + static_cast<std::ptrdiff_t>(in.c) * stride;
        switch (in.op) {
            case bc::Op::Const: {
                const double v = ch.consts[in.b];
                for (int l = 0; l < lanes; ++l) d[l] = v;
                break;
            }
            case bc::Op::Fetch:
                fetch(d, lanes, in.b);
                break;
            case bc::Op::Neg:
                for (int l = 0; l < lanes; ++l) d[l] = -x[l];
                break;
            case bc::Op::Not:
                for (int l = 0; l < lanes; ++l)
                    d[l] = x[l] != 0.0 ? 0.0 : 1.0;
                break;
            case bc::Op::Abs:
                for (int l = 0; l < lanes; ++l) d[l] = std::abs(x[l]);
                break;
            case bc::Op::Sqrt:
                for (int l = 0; l < lanes; ++l) d[l] = std::sqrt(x[l]);
                break;
            case bc::Op::Exp:
                for (int l = 0; l < lanes; ++l) d[l] = std::exp(x[l]);
                break;
            case bc::Op::Add:
                for (int l = 0; l < lanes; ++l) d[l] = x[l] + y[l];
                break;
            case bc::Op::Sub:
                for (int l = 0; l < lanes; ++l) d[l] = x[l] - y[l];
                break;
            case bc::Op::Mul:
                for (int l = 0; l < lanes; ++l) d[l] = x[l] * y[l];
                break;
            case bc::Op::Div:
                for (int l = 0; l < lanes; ++l) d[l] = x[l] / y[l];
                break;
            case bc::Op::Pow:
                for (int l = 0; l < lanes; ++l)
                    d[l] = std::pow(x[l], y[l]);
                break;
            case bc::Op::Lt:
                for (int l = 0; l < lanes; ++l)
                    d[l] = x[l] < y[l] ? 1.0 : 0.0;
                break;
            case bc::Op::Le:
                for (int l = 0; l < lanes; ++l)
                    d[l] = x[l] <= y[l] ? 1.0 : 0.0;
                break;
            case bc::Op::Gt:
                for (int l = 0; l < lanes; ++l)
                    d[l] = x[l] > y[l] ? 1.0 : 0.0;
                break;
            case bc::Op::Ge:
                for (int l = 0; l < lanes; ++l)
                    d[l] = x[l] >= y[l] ? 1.0 : 0.0;
                break;
            case bc::Op::Eq:
                for (int l = 0; l < lanes; ++l)
                    d[l] = x[l] == y[l] ? 1.0 : 0.0;
                break;
            case bc::Op::Ne:
                for (int l = 0; l < lanes; ++l)
                    d[l] = x[l] != y[l] ? 1.0 : 0.0;
                break;
            case bc::Op::And:
                for (int l = 0; l < lanes; ++l)
                    d[l] = (x[l] != 0.0 && y[l] != 0.0) ? 1.0 : 0.0;
                break;
            case bc::Op::Or:
                for (int l = 0; l < lanes; ++l)
                    d[l] = (x[l] != 0.0 || y[l] != 0.0) ? 1.0 : 0.0;
                break;
            case bc::Op::Max:
                // std::max/std::min, not comparisons: identical result
                // selection to the interpreter for ties and NaNs.
                for (int l = 0; l < lanes; ++l)
                    d[l] = std::max(x[l], y[l]);
                break;
            case bc::Op::Min:
                for (int l = 0; l < lanes; ++l)
                    d[l] = std::min(x[l], y[l]);
                break;
            case bc::Op::Mod:
                for (int l = 0; l < lanes; ++l)
                    d[l] = std::fmod(x[l], y[l]);
                break;
            case bc::Op::Sign:
                for (int l = 0; l < lanes; ++l)
                    d[l] = y[l] >= 0.0 ? std::abs(x[l]) : -std::abs(x[l]);
                break;
        }
    }
}

/// Single-lane run (the simulator's sequential oracle): `load(slot)`
/// supplies operands, `regs` is `chunk.numRegs` doubles of scratch.
/// Returns the expression value.
template <typename LoadFn>
double runScalar(const bc::Chunk& ch, double* regs, LoadFn&& load) {
    runLanes(ch, 1, regs, 1,
             [&](double* d, int /*lanes*/, int slot) { d[0] = load(slot); });
    return regs[0];
}

}  // namespace phpf::vm
