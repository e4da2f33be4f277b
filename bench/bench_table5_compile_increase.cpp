/**
 * @file
 * Regenerates Table 5: the increase in total JIT compilation time from
 * the old null check algorithm to the new one (passes plus the x64
 * back end).  The paper's headline number is a 2.3% average increase.
 */

#include <iostream>

#include "bench_util.h"

using namespace trapjit;
using namespace trapjit::bench;

int
main()
{
    std::cout << "Table 5. Increase in total JIT compilation time, new "
                 "algorithm vs old (host ms, averaged)\n\n";

    Target ia32 = makeIA32WindowsTarget();
    Compiler newJit(ia32, makeNewFullConfig());
    Compiler oldJit(ia32, makeOldNullCheckConfig());
    const int reps = 25;

    auto totalOf = [&](const Workload &w, const Compiler &c) {
        return averageCompileTimings(w, c, reps).total();
    };

    TextTable table({"benchmark", "increase (ms)", "increase (%)"});
    double sumNew = 0.0;
    double sumOld = 0.0;
    auto addRow = [&](const std::string &name, const Workload &w) {
        double n = totalOf(w, newJit);
        double o = totalOf(w, oldJit);
        sumNew += n;
        sumOld += o;
        table.addRow({name, TextTable::num((n - o) * 1e3, 4),
                      TextTable::pct(100.0 * (n - o) / o)});
    };
    for (const Workload &w : specjvmWorkloads())
        addRow(w.name, w);
    for (const Workload &w : jbytemarkWorkloads())
        addRow("jBYTEmark:" + w.name, w);
    table.print(std::cout);

    std::cout << "\nAverage total increase: "
              << TextTable::pct(100.0 * (sumNew - sumOld) / sumOld)
              << " (paper: 2.3%)\n";
    return 0;
}
