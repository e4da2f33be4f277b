/**
 * @file
 * Regenerates Figure 14: percentage improvement over the AIX baseline
 * ("No Null Check Optimization") for the jBYTEmark-like suite.  The
 * paper highlights speculation being particularly effective for
 * Neural Net (reads hoisted across their stuck checks, Figure 6).
 */

#include <iostream>

#include "bench_util.h"

using namespace trapjit;
using namespace trapjit::bench;

int
main()
{
    std::cout << "Figure 14. Improvement over the AIX baseline, "
                 "jBYTEmark-like suite (%)\n\n";

    std::vector<Arm> arms = aixArms();
    const auto &suite = jbytemarkWorkloads();
    SuiteCycles results = runSuite(suite, arms);

    const size_t base = 2; // "No Null Check Optimization"

    std::vector<std::string> headers = {"improvement over baseline"};
    for (const auto &w : suite)
        headers.push_back(w.name);
    TextTable table(headers);
    for (size_t a = 0; a < arms.size(); ++a) {
        if (a == base)
            continue;
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
