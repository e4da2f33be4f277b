#include "workloads/workload.h"

#include "support/diagnostics.h"

namespace trapjit
{

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : jbytemarkWorkloads())
        if (w.name == name)
            return &w;
    for (const Workload &w : specjvmWorkloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

WorkloadRun
runWorkload(const Workload &workload, const Compiler &compiler,
            const Target &runtime_target)
{
    WorkloadRun run;
    std::unique_ptr<Module> mod = workload.build();
    run.compile = compiler.compile(*mod);

    FunctionId entry = mod->findFunction("main");
    TRAPJIT_ASSERT(entry != kNoFunction, "workload ", workload.name,
                   " has no main");

    InterpOptions options;
    options.recordTrace = false;
    Interpreter interp(*mod, runtime_target, options);
    ExecResult result = interp.run(entry, {});

    run.stats = result.stats;
    run.cycles = interp.cycles();
    if (result.outcome == ExecResult::Outcome::Returned) {
        run.ok = true;
        run.checksum = result.value.i;
    } else {
        run.ok = false;
        run.exception = result.exception;
    }
    return run;
}

} // namespace trapjit
