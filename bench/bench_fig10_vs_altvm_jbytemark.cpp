/**
 * @file
 * Regenerates Figure 10: our JIT (with the new null check optimization)
 * against the HotSpot stand-in "AltVM" on the jBYTEmark-like suite.
 * Only the comparison structure is reproducible (HotSpot's absolute
 * scores are not): our pipeline wins the array kernels, and AltVM's
 * missing Math.* instruction selection costs it Fourier/Neural Net —
 * see DESIGN.md section 4 on this substitution.
 */

#include <cmath>
#include <iostream>

#include "bench_util.h"

using namespace trapjit;
using namespace trapjit::bench;

int
main()
{
    std::cout << "Figure 10. jBYTEmark-like scores: our JIT vs the "
                 "HotSpot stand-in (index; larger is better)\n\n";

    Target ia32 = makeIA32WindowsTarget();
    std::vector<Arm> arms = {
        {"Our JIT (Phase1+Phase2)", ia32, ia32, makeNewFullConfig()},
        {"AltVM (HotSpot stand-in)", ia32, ia32, makeAltVMConfig()},
    };
    const auto &suite = jbytemarkWorkloads();
    SuiteCycles results = runSuite(suite, arms);

    TextTable table({"benchmark", arms[0].label, arms[1].label,
                     "ours / altvm"});
    double product = 1.0;
    for (size_t wi = 0; wi < suite.size(); ++wi) {
        double ours = indexScore(suite[wi], results.cycles[wi][0]);
        double theirs = indexScore(suite[wi], results.cycles[wi][1]);
        product *= ours / theirs;
        table.addRow({suite[wi].name, TextTable::num(ours, 2),
                      TextTable::num(theirs, 2),
                      TextTable::num(ours / theirs, 3)});
    }
    table.print(std::cout);
    double geomean =
        std::pow(product, 1.0 / static_cast<double>(suite.size()));
    std::cout << "\nGeometric-mean relative performance (ours/altvm): "
              << TextTable::num(geomean, 3) << " ("
              << TextTable::pct(100.0 * (geomean - 1.0))
              << " better)\n";
    return 0;
}
