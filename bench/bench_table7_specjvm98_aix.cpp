/**
 * @file
 * Regenerates Table 7: SPECjvm98 times on the PowerPC/AIX model under
 * the Section 5.4 configurations.
 */

#include <iostream>

#include "bench_util.h"

using namespace trapjit;
using namespace trapjit::bench;

int
main()
{
    std::cout << "Table 7. SPECjvm98-like times on the PowerPC/AIX "
                 "model (simulated ms at 332 MHz; smaller is better)\n\n";

    std::vector<Arm> arms = aixArms();
    const auto &suite = specjvmWorkloads();
    SuiteCycles results = runSuite(suite, arms);

    std::vector<std::string> headers = {"(unit: ms)"};
    for (const auto &w : suite)
        headers.push_back(w.name);
    TextTable table(headers);
    for (size_t a = 0; a < arms.size(); ++a) {
        std::vector<std::string> row = {arms[a].label};
        for (size_t wi = 0; wi < suite.size(); ++wi) {
            row.push_back(TextTable::num(
                results.cycles[wi][a] / 332.0e3, 3));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    return 0;
}
