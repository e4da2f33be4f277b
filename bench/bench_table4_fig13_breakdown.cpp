/**
 * @file
 * Regenerates Table 4 and Figure 13: the breakdown of JIT compilation
 * time into "null check optimization" versus "others" (every other
 * pass plus the x64 back end), for the NEW pipeline (phase 1 iterated
 * + phase 2) and the OLD one (Whaley).
 * The paper reports the new null check optimization taking about 3x the
 * old one's time while remaining a small share (~2%) of the total.
 */

#include <iostream>

#include "bench_util.h"

using namespace trapjit;
using namespace trapjit::bench;

int
main()
{
    std::cout << "Table 4 / Figure 13. Breakdown of JIT compilation "
                 "time (host ms, averaged)\n\n";

    Target ia32 = makeIA32WindowsTarget();
    Compiler newJit(ia32, makeNewFullConfig());
    Compiler oldJit(ia32, makeOldNullCheckConfig());
    const int reps = 20;

    TextTable table({"benchmark", "pipeline", "null check opt (ms)",
                     "null check opt (%)", "others (ms)", "total (ms)"});

    auto addRows = [&](const std::string &name, const Workload &w) {
        PassTimings n = averageCompileTimings(w, newJit, reps);
        PassTimings o = averageCompileTimings(w, oldJit, reps);
        table.addRow({name, "NEW",
                      TextTable::num(n.nullCheckSeconds * 1e3, 4),
                      TextTable::pct(100.0 * n.nullCheckSeconds /
                                     n.total()),
                      TextTable::num(n.otherSeconds * 1e3, 4),
                      TextTable::num(n.total() * 1e3, 4)});
        table.addRow({"", "OLD",
                      TextTable::num(o.nullCheckSeconds * 1e3, 4),
                      TextTable::pct(100.0 * o.nullCheckSeconds /
                                     o.total()),
                      TextTable::num(o.otherSeconds * 1e3, 4),
                      TextTable::num(o.total() * 1e3, 4)});
    };

    for (const Workload &w : specjvmWorkloads())
        addRows(w.name, w);
    for (const Workload &w : jbytemarkWorkloads())
        addRows("jBYTEmark:" + w.name, w);

    table.print(std::cout);
    return 0;
}
