/**
 * @file
 * Regenerates Figure 8: percentage performance improvement over the
 * baseline ("No Null Opt. (No Hardware Trap)") for the jBYTEmark-like
 * suite, per configuration.
 */

#include <iostream>

#include "bench_util.h"

using namespace trapjit;
using namespace trapjit::bench;

int
main()
{
    std::cout << "Figure 8. Improvement over the no-trap baseline, "
                 "jBYTEmark-like suite (%)\n\n";

    std::vector<Arm> arms = ia32Arms(/*include_altvm=*/false);
    const auto &suite = jbytemarkWorkloads();
    SuiteCycles results = runSuite(suite, arms);

    // Baseline is the last arm (No Null Opt. / No Hardware Trap).
    const size_t base = arms.size() - 1;

    std::vector<std::string> headers = {"improvement over baseline"};
    for (const auto &w : suite)
        headers.push_back(w.name);
    TextTable table(headers);

    for (size_t a = 0; a + 1 < arms.size(); ++a) {
        std::vector<std::string> row = {arms[a].label};
        for (size_t wi = 0; wi < suite.size(); ++wi) {
            double speedup = results.cycles[wi][base] /
                                 results.cycles[wi][a] -
                             1.0;
            row.push_back(TextTable::pct(100.0 * speedup));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    return 0;
}
