/**
 * @file
 * Regenerates Table 2: SPECjvm98 execution times (simulated
 * milliseconds at 600 MHz; smaller is better) under the five null-check
 * configurations plus the HotSpot stand-in.
 */

#include <iostream>

#include "bench_util.h"

using namespace trapjit;
using namespace trapjit::bench;

int
main()
{
    std::cout << "Table 2. Performance for the SPECjvm98-like suite "
                 "(simulated ms; smaller is better)\n"
                 "Model: IA32/Windows (reads and writes trap)\n\n";

    std::vector<Arm> arms = ia32Arms(/*include_altvm=*/true);
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
                simulatedMillis(results.cycles[wi][a]), 3));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    return 0;
}
