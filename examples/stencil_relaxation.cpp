// Domain example: a 2-D stencil relaxation written in the mini-HPF
// dialect (the TOMCATV pattern of the paper's Table 1). Shows how the
// choice of scalar mapping — replication, producer alignment, selected
// alignment — changes the communication plan and the predicted
// performance across machine sizes.
//
//   $ ./examples/stencil_relaxation

#include <cstdio>

#include "driver/compiler.h"
#include "frontend/parser.h"
#include "ir/printer.h"

using namespace phpf;

namespace {

const char* kSource = R"(
program relax
  parameter (n = 128)
  real u(n,n), r(n,n)
!hpf$ distribute (*,block) :: u
!hpf$ align r(i,j) with u(i,j)
  do iter = 1, 20
    do j = 2, n-1
      do i = 2, n-1
        dx = u(i+1,j) - 2.0*u(i,j) + u(i-1,j)
        dy = u(i,j+1) - 2.0*u(i,j) + u(i,j-1)
        r(i,j) = 0.25 * (dx + dy)
      end do
    end do
    do j = 2, n-1
      do i = 2, n-1
        u(i,j) = u(i,j) + r(i,j)
      end do
    end do
  end do
end
)";

MappingOptions variantOpts(int v) {
    MappingOptions m;
    if (v == 0) m.privatization = false;
    if (v == 1) m.alignPolicy = MappingOptions::AlignPolicy::ProducerOnly;
    return m;
}

}  // namespace

int main() {
    {
        Program p = parseProgramOrDie(kSource);
        std::printf("--- source ---\n%s\n", printProgram(p).c_str());

        TargetConfig opts;
        PassOptions passes;
        opts.gridExtents = {8};
        Compilation c = Compiler::compile(p, opts, passes);
        std::printf("--- selected-alignment decisions (P = 8) ---\n%s\n",
                    c.report().c_str());
    }

    std::printf("--- predicted time (sec) by scalar-mapping policy ---\n");
    std::printf("%-6s %-16s %-20s %-20s\n", "#P", "replication",
                "producer alignment", "selected alignment");
    for (int procs : {1, 2, 4, 8, 16}) {
        std::printf("%-6d", procs);
        for (int v = 0; v < 3; ++v) {
            Program p = parseProgramOrDie(kSource);
            TargetConfig opts;
            PassOptions passes;
            opts.gridExtents = {procs};
            passes.mapping = variantOpts(v);
            Compilation c = Compiler::compile(p, opts, passes);
            std::printf(" %-19.4f", c.predictCost().totalSec());
        }
        std::printf("\n");
    }
    std::printf("\nThe shape matches the paper's Table 1: only the selected\n"
                "alignment yields speedups; producer alignment pays\n"
                "inner-loop communication for the privatized scalars.\n");
    return 0;
}
