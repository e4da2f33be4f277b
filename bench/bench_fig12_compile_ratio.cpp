/**
 * @file
 * Regenerates Figure 12: the ratio of our JIT's compilation time over
 * the whole first run (compile + run) per SPECjvm98-like program, the
 * compile being the passes plus the x64 back end.
 * Uses the same fixed host->PIII calibration factor as Table 3; the
 * meaningful reproduction target is the *ordering* (javac by far the
 * largest compile share, compress/db negligible).
 */

#include <iostream>

#include "bench_util.h"

using namespace trapjit;
using namespace trapjit::bench;

namespace
{
constexpr double kHostToP3Factor = 40.0;
}

int
main()
{
    std::cout << "Figure 12. Ratio of JIT compilation time over the "
                 "first run (our JIT)\n\n";

    Target ia32 = makeIA32WindowsTarget();
    Compiler ours(ia32, makeNewFullConfig());
    const int reps = 20;

    TextTable table({"benchmark", "compile share of first run"});
    for (const Workload &w : specjvmWorkloads()) {
        double compileSeconds = averageCompileTimings(w, ours, reps).total();
        WorkloadRun run = runWorkload(w, ours, ia32);
        double compileMs = compileSeconds * 1e3 * kHostToP3Factor;
        double runMs = simulatedMillis(run.cycles);
        table.addRow({w.name,
                      TextTable::pct(100.0 * compileMs /
                                     (compileMs + runMs))});
    }
    table.print(std::cout);
    return 0;
}
