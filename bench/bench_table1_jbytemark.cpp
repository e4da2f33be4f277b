/**
 * @file
 * Regenerates Table 1: jBYTEmark v0.9 scores (index, larger is better)
 * under the five null-check configurations plus the HotSpot stand-in,
 * on the IA32/Windows model.
 */

#include <iostream>

#include "bench_util.h"

using namespace trapjit;
using namespace trapjit::bench;

int
main()
{
    std::cout << "Table 1. Performance for the jBYTEmark-like suite "
                 "(index; larger is better)\n"
                 "Model: IA32/Windows (reads and writes trap)\n\n";

    std::vector<Arm> arms = ia32Arms(/*include_altvm=*/true);
    const auto &suite = jbytemarkWorkloads();
    SuiteCycles results = runSuite(suite, arms);

    std::vector<std::string> headers = {"(unit: index)"};
    for (const auto &w : suite)
        headers.push_back(w.name);
    TextTable table(headers);

    for (size_t a = 0; a < arms.size(); ++a) {
        std::vector<std::string> row = {arms[a].label};
        for (size_t wi = 0; wi < suite.size(); ++wi) {
            row.push_back(TextTable::num(
                indexScore(suite[wi], results.cycles[wi][a]), 2));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    return 0;
}
