/**
 * @file
 * Architecture explorer: run one workload across every target model and
 * configuration, printing dynamic check counts, cycles, and the size of
 * its x64 code (the native lowering, with the target's trap model
 * deciding which checks are implicit) — a compact view of the whole
 * design space the paper's Section 5 explores (pass a workload name to
 * choose; default mtrt).
 */

#include <iostream>

#include "codegen/native/native_compiler.h"
#include "support/table.h"
#include "workloads/workload.h"

using namespace trapjit;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "mtrt";
    const Workload *w = findWorkload(name);
    if (!w) {
        std::cerr << "unknown workload '" << name << "'\n";
        return 1;
    }

    struct Row
    {
        const char *label;
        Target compileTarget;
        Target runtimeTarget;
        PipelineConfig config;
    };
    Target ia32 = makeIA32WindowsTarget();
    Target aix = makePPCAIXTarget();
    Target sparc = makeSPARCTarget();
    Target lying = makeIllegalImplicitAIXTarget();
    std::vector<Row> rows = {
        {"ia32 / no opt, no trap", ia32, ia32, makeNoOptNoTrapConfig()},
        {"ia32 / no opt, trap", ia32, ia32, makeNoOptTrapConfig()},
        {"ia32 / old (Whaley)", ia32, ia32, makeOldNullCheckConfig()},
        {"ia32 / new phase 1", ia32, ia32, makeNewPhase1OnlyConfig()},
        {"ia32 / new phase 1+2", ia32, ia32, makeNewFullConfig()},
        {"sparc / new phase 1+2", sparc, sparc, makeNewFullConfig()},
        {"aix / speculation", aix, aix, makeAIXSpeculationConfig()},
        {"aix / no speculation", aix, aix, makeAIXNoSpeculationConfig()},
        {"aix / illegal implicit", lying, aix,
         makeAIXIllegalImplicitConfig()},
    };

    std::cout << "Workload: " << w->name << " (" << w->suite << ")\n\n";
    TextTable table({"configuration", "cycles", "explicit checks",
                     "implicit", "spec reads", "x64 bytes"});
    for (Row &row : rows) {
        Compiler compiler(row.compileTarget, row.config);
        auto mod = w->build();
        compiler.compile(*mod);
        size_t bytes = lowerModule(*mod, row.compileTarget).codeBytes;
        // Re-run on a fresh module so compile+run use identical code.
        WorkloadRun run = runWorkload(*w, compiler, row.runtimeTarget);
        table.addRow({row.label, TextTable::num(run.cycles, 0),
                      std::to_string(run.stats.explicitNullChecks),
                      std::to_string(run.stats.implicitNullChecks),
                      std::to_string(run.stats.speculativeReadsOfNull),
                      std::to_string(bytes)});
    }
    table.print(std::cout);
    std::cout << "\nNote how explicit-check counts collapse from top to "
                 "bottom on ia32,\nand how only the speculation arm "
                 "moves reads on aix.\n";
    return 0;
}
