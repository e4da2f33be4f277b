/**
 * @file
 * Regenerates Table 6: jBYTEmark scores on the PowerPC/AIX model under
 * the Section 5.4 configurations — Speculation, No Speculation, No Null
 * Check Optimization, and the deliberately illegal Illegal Implicit arm
 * (compiled against a target that claims reads trap; executed on the
 * honest AIX model).
 */

#include <iostream>

#include "bench_util.h"

using namespace trapjit;
using namespace trapjit::bench;

int
main()
{
    std::cout << "Table 6. jBYTEmark-like scores on the PowerPC/AIX "
                 "model (index; larger is better)\n"
                 "Writes to the protected page trap; reads of page zero "
                 "silently succeed.\n\n";

    std::vector<Arm> arms = aixArms();
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
