#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "driver/options.h"
#include "ir/program.h"

namespace phpf {
class Interpreter;
}

namespace perfbench {

/// splitmix64: a fixed, platform-independent generator, so a seed means
/// the same inputs on every machine and standard library.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, 1).
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
    std::uint64_t state_;
};

/// Initial values of one array, in the Store's flat element order.
struct ArrayInput {
    std::string name;
    std::vector<double> values;
};
using SimInput = std::vector<ArrayInput>;

/// Write `in` into the oracle's store (the simulator mirrors oracle
/// inputs to every processor). Unknown names are an error.
void applyInput(const SimInput& in, const phpf::Program& p,
                phpf::Interpreter& oracle);

/// Every real array of `p` filled with values in [0.5, 1.5); square 2-D
/// arrays get their extent added on the diagonal, so factorizations
/// and divisions stay well conditioned. Integer arrays get integers in
/// [1, smallest array extent], valid as subscripts of any array. Used to check arbitrary
/// compiled programs against the interpreter.
[[nodiscard]] SimInput seedAllArrays(const phpf::Program& p, Rng& rng);

/// `p` printed as mini-HPF source and lower-cased, the form a user
/// hands to the front end.
[[nodiscard]] std::string printedSource(const phpf::Program& p);

/// One of the two paper-kernel simulation workloads.
struct SimWorkloadSpec {
    std::string name;  ///< "tomcatv_sim" / "dgefa_sim"
    std::function<phpf::Program()> build;
    std::vector<int> grid;
    /// Seeded input variants for this kernel.
    std::function<SimInput(const phpf::Program&, Rng&)> makeInput;
};
/// Seeded input variants a sim workload makes per run.
inline constexpr int kSimVariants = 4;

/// A sim workload's job list, as input-variant indices: `cycles`
/// consecutive permutations of the kSimVariants variants, each drawn
/// from the seed. Every cycle runs each variant once.
[[nodiscard]] std::vector<int> simJobOrder(std::uint64_t seed, int cycles);

/// Spec for `workload`; false when it is not a simulation workload.
[[nodiscard]] bool simWorkloadSpec(const std::string& workload,
                                   SimWorkloadSpec* out);

/// One distinct request of the compile mix: printed program source plus
/// the compile configuration. Equal entries fingerprint to equal keys.
struct MixEntry {
    std::string label;   ///< e.g. "tomcatv.n16/{4}/producer-only"
    std::string source;  ///< lower-cased printed program
    phpf::TargetConfig target;
    phpf::PassOptions passes;
};

/// The compile mix's fixed key space: every builtin crossed with two
/// small sizes, the grids it distributes over and five mapping
/// variants, in popularity-rank order (rank 0 is the most requested).
[[nodiscard]] std::vector<MixEntry> mixKeySpace();

/// Zipf exponent of the compile mix's request popularity. At 0.75 a
/// little under half the requests hit the mix's cache, so the median
/// request is a miss (see compile_mix.cpp).
inline constexpr double kMixSkew = 0.75;

/// Zipf weights 1 / (rank + 1)^kMixSkew of `keySpace` popularity ranks.
[[nodiscard]] std::vector<double> zipfWeights(int keySpace);

/// Requests, as indices into the key space, drawn from zipfWeights();
/// the seed fixes the draws.
[[nodiscard]] std::vector<int> mixStream(std::uint64_t seed, int keySpace,
                                         int count);

}  // namespace perfbench
