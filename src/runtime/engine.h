#pragma once

#include <cstdint>

namespace phpf {

/// Compatibility shim: the SPMD simulator has one execution engine, the
/// register-bytecode VM. This enum, PassOptions::simEngine and the
/// SpmdSimulator constructor parameter of this type remain only because
/// perfbench/src/layers.cpp (buildSimulator) passes
/// `c.passes().simEngine` to that constructor; nothing reads them.
enum class SimEngine : std::uint8_t {
    Bytecode,
};

}  // namespace phpf
