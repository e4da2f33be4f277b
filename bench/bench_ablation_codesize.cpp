/**
 * @file
 * Ablation: code-size effect of the null check configurations.
 *
 * Every explicit check is a test+jz in the x64 lowering; an implicit
 * check emits nothing.  The paper focuses on cycles, but the same
 * mechanism shrinks the code — this bench reports the x64 bytes of
 * every function per configuration (NativeCode::codeSize), plus the
 * bytes attributable to explicit checks.  Hosts without the native
 * tier lower nothing and report zeros.
 */

#include <iostream>

#include "bench_util.h"

using namespace trapjit;
using namespace trapjit::bench;

namespace
{

NativeModuleLowering
measure(const Workload &w, const Target &target,
        const PipelineConfig &config)
{
    auto mod = w.build();
    Compiler compiler(target, config);
    compiler.compile(*mod);
    return lowerModule(*mod, target);
}

} // namespace

int
main()
{
    std::cout << "Ablation: x64 code size per null check "
                 "configuration (bytes)\n\n";

    Target ia32 = makeIA32WindowsTarget();
    struct ArmDef
    {
        const char *label;
        PipelineConfig config;
    };
    std::vector<ArmDef> arms = {
        {"No Null Opt. (No Hardware Trap)", makeNoOptNoTrapConfig()},
        {"No Null Opt. (Hardware Trap)", makeNoOptTrapConfig()},
        {"Old Null Check", makeOldNullCheckConfig()},
        {"New Null Check (Phase1+Phase2)", makeNewFullConfig()},
    };

    std::vector<std::string> headers = {"configuration"};
    for (const Workload &w : jbytemarkWorkloads())
        headers.push_back(w.name + " (chk)");
    TextTable table(headers);

    for (ArmDef &arm : arms) {
        std::vector<std::string> row = {arm.label};
        for (const Workload &w : jbytemarkWorkloads()) {
            NativeModuleLowering sizes = measure(w, ia32, arm.config);
            row.push_back(std::to_string(sizes.codeBytes) + " (" +
                          std::to_string(sizes.explicitNullCheckBytes) +
                          ")");
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\nExplicit-check bytes fall to (near) zero under the "
                 "new algorithm; total code\nsize follows.\n";
    return 0;
}
