#include "workloads/workload.h"

#include "codegen/native/tiered_engine.h"
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

bool
cycleModelEngineSelected()
{
    InterpEngineKind kind = interpEngineFromEnv();
    return kind == InterpEngineKind::Reference ||
           kind == InterpEngineKind::Fast;
}

WorkloadRun
runWorkload(const Workload &workload, const Compiler &compiler,
            const Target &runtime_target, bool record_trace,
            std::shared_ptr<DecodedProgramCache> decoded_cache)
{
    WorkloadRun run;
    std::unique_ptr<Module> mod = workload.build();
    run.compile = compiler.compile(*mod);

    FunctionId entry = mod->findFunction("main");
    TRAPJIT_ASSERT(entry != kNoFunction, "workload ", workload.name,
                   " has no main");

    InterpOptions options;
    options.recordTrace = record_trace;
    ExecResult result;
    switch (interpEngineFromEnv()) {
      case InterpEngineKind::Reference: {
        Interpreter interp(*mod, runtime_target, options);
        result = interp.run(entry, {});
        break;
      }
      case InterpEngineKind::Native:
      case InterpEngineKind::Tiered: {
        // Native: every function compiles on its first call.  Tiered:
        // hotness-driven promotion with the env-configured policy
        // (TRAPJIT_TIER_THRESHOLD / TRAPJIT_TIER_SYNC).  Both are valid
        // on hosts without the native tier (promotions park Unsupported
        // and everything stays interpreted).
        TieredEngine engine(*mod, runtime_target, options,
                            std::move(decoded_cache), DecodeOptions{},
                            interpEngineFromEnv() == InterpEngineKind::Native
                                ? eagerTieredOptions()
                                : tieredOptionsFromEnv());
        result = engine.run(entry, {});
        break;
      }
      default: {
        FastInterpreter interp(*mod, runtime_target, options,
                               std::move(decoded_cache));
        result = interp.run(entry, {});
        break;
      }
    }

    run.stats = result.stats;
    run.cycles = result.stats.cycles;
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
