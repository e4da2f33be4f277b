/**
 * @file
 * Regenerates Figure 11: our JIT against the HotSpot stand-in "AltVM"
 * on the SPECjvm98-like suite (times; smaller is better).  The paper
 * reports a modest 6% average advantage here, versus the large
 * jBYTEmark gap of Figure 10.
 */

#include <cmath>
#include <iostream>

#include "bench_util.h"

using namespace trapjit;
using namespace trapjit::bench;

int
main()
{
    std::cout << "Figure 11. SPECjvm98-like times: our JIT vs the "
                 "HotSpot stand-in (simulated ms; smaller is better)\n\n";

    Target ia32 = makeIA32WindowsTarget();
    std::vector<Arm> arms = {
        {"Our JIT (Phase1+Phase2)", ia32, ia32, makeNewFullConfig()},
        {"AltVM (HotSpot stand-in)", ia32, ia32, makeAltVMConfig()},
    };
    const auto &suite = specjvmWorkloads();
    SuiteCycles results = runSuite(suite, arms);

    TextTable table({"benchmark", arms[0].label, arms[1].label,
                     "altvm / ours"});
    double product = 1.0;
    for (size_t wi = 0; wi < suite.size(); ++wi) {
        double ours = simulatedMillis(results.cycles[wi][0]);
        double theirs = simulatedMillis(results.cycles[wi][1]);
        product *= theirs / ours;
        table.addRow({suite[wi].name, TextTable::num(ours, 3),
                      TextTable::num(theirs, 3),
                      TextTable::num(theirs / ours, 3)});
    }
    table.print(std::cout);
    double geomean =
        std::pow(product, 1.0 / static_cast<double>(suite.size()));
    std::cout << "\nGeometric-mean relative performance (altvm/ours): "
              << TextTable::num(geomean, 3) << " ("
              << TextTable::pct(100.0 * (geomean - 1.0))
              << " better)\n";
    return 0;
}
