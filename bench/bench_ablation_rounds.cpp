/**
 * @file
 * Ablation: how many Figure 2 iterations are needed?
 *
 * The paper says phase 1 "is iterated for a few times" with bounds
 * check optimization and scalar replacement because each unblocks the
 * others (Figure 4).  This bench sweeps the iteration count 0..4 on the
 * multidimensional-array kernels and shows the cascade: round 1 hoists
 * checks and lengths, round 2 can then hoist the row pointers, further
 * rounds change nothing.
 */

#include <iostream>

#include "bench_util.h"

using namespace trapjit;
using namespace trapjit::bench;

int
main()
{
    std::cout << "Ablation: Figure 2 iteration count (cycles; smaller "
                 "is better)\n\n";

    Target ia32 = makeIA32WindowsTarget();
    const char *names[] = {"Assignment", "LU Decomposition",
                           "Neural Net", "Numeric Sort", "mtrt"};

    TextTable table({"workload", "rounds=0", "rounds=1", "rounds=2",
                     "rounds=3", "rounds=4"});
    for (const char *name : names) {
        const Workload *w = findWorkload(name);
        std::vector<std::string> row = {name};
        for (int rounds = 0; rounds <= 4; ++rounds) {
            PipelineConfig config = makeNewFullConfig();
            config.rounds = rounds;
            Compiler compiler(ia32, config);
            WorkloadRun run = runWorkload(*w, compiler, ia32);
            row.push_back(TextTable::num(run.cycles, 0));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: a large step from 0 to 1, a second "
                 "step from 1 to 2 on the\nmultidimensional kernels "
                 "(the row-pointer cascade), then a fixed point.\n";
    return 0;
}
