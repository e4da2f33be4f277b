/**
 * @file
 * Optimized-backend benchmarks: linear-scan register allocation and
 * section-5.4 load speculation against the slot-machine baseline
 * backend, both on the all-native engine (TRAPJIT_INTERP=native:
 * every function compiled on its first call) — BM_Regalloc_* /
 * BM_Speculate_*; CI uploads the results as BENCH_regalloc.json.
 *
 * Two families:
 *
 *  - BM_Regalloc_{Fast,Baseline,Optimized}_<preset>: the same fully
 *    optimized module under the fused interpreter, the baseline
 *    native tier (every IR value lives in its stack slot) and the
 *    optimized backend (hot values promoted to callee-/caller-saved
 *    GPRs, budget checks batched per straight-line run).  Every
 *    exception in an optimized block deopts, so exception-heavy
 *    presets (pointer_chase throws several NPEs per run) can favour
 *    the baseline, which dispatches them in code.
 *
 *  - BM_Speculate_{On,Off}_<preset> and BM_Speculate_DeoptStorm: the
 *    paper's section-5.4 experiment on the optimized backend.  With
 *    speculation on, loads are hoisted above their explicit null
 *    checks (the check compiles to zero bytes); a null base takes the
 *    guard-page trap, the frame finishes on the interpreter, and the
 *    function re-tiers without speculation.  The storm bench runs the
 *    null_storm preset, where speculated loads actually fault, and
 *    reports deopts_taken so the JSON shows the deopt path was really
 *    measured.
 *
 * All benches skip (with a notice in the JSON) on hosts without the
 * native tier.
 */

#include <benchmark/benchmark.h>

#include "codegen/native/tiered_engine.h"
#include "interp/fast_interpreter.h"
#include "jit/compiler.h"
#include "testing/workload_gen/workload_gen.h"

namespace trapjit
{
namespace
{

enum class RegallocMode
{
    Fast,      ///< fused-interpreter baseline
    Baseline,  ///< native tier, slots only
    Optimized, ///< regalloc + batched budget + speculation
    NoSpec,    ///< optimized backend with speculation forced off
};

std::unique_ptr<Module>
buildPresetModule(const char *preset, PipelineConfig (*makeConfig)())
{
    const WorkloadProfile *p = findWorkloadProfile(preset);
    auto mod = generateWorkloadModule(*p);
    Target target = makeIA32WindowsTarget();
    Compiler compiler(target, makeConfig());
    compiler.compile(*mod);
    return mod;
}

void
runRegallocBenchmark(benchmark::State &state, const char *preset,
                     PipelineConfig (*makeConfig)(), RegallocMode mode)
{
    Target target = makeIA32WindowsTarget();
    auto mod = buildPresetModule(preset, makeConfig);
    FunctionId entry = mod->findFunction("main");
    InterpOptions options;
    options.recordTrace = false;

    // Serving-loop shape (same as the tiering benches): many requests
    // per heap recycle, the periodic arena wipe off the timed path.
    constexpr int kRunsPerReset = 64;

    auto timeRuns = [&](auto &engine) {
        uint64_t instructionsPerRun = 0;
        uint64_t instructionsSeen = 0;
        int sinceReset = 0;
        for (auto _ : state) {
            if (++sinceReset > kRunsPerReset) {
                state.PauseTiming();
                engine.reset();
                sinceReset = 1;
                instructionsSeen = 0;
                state.ResumeTiming();
            }
            ExecResult r = engine.run(entry, {});
            benchmark::DoNotOptimize(r.value.i);
            instructionsPerRun = r.stats.instructions - instructionsSeen;
            instructionsSeen = r.stats.instructions;
        }
        state.SetItemsProcessed(static_cast<int64_t>(instructionsPerRun) *
                                state.iterations());
    };

    if (mode == RegallocMode::Fast) {
        FastInterpreter interp(*mod, target, options);
        timeRuns(interp);
        return;
    }

    if (!nativeTierSupported()) {
        state.SkipWithError("native tier requires x86-64 Linux");
        return;
    }

    TieredOptions topts = eagerTieredOptions();
    switch (mode) {
      case RegallocMode::Baseline:
        topts.backend = NativeBackend::Baseline;
        break;
      case RegallocMode::Optimized:
        topts.backend = NativeBackend::Optimized;
        topts.speculate = 1;
        break;
      case RegallocMode::NoSpec:
        topts.backend = NativeBackend::Optimized;
        topts.speculate = 0;
        break;
      case RegallocMode::Fast:
        break;
    }

    TieredEngine engine(*mod, target, options, nullptr, {}, topts);
    // Warm (compile) outside the timed region and fail loudly on
    // fallback: a silently interpreted "native" number would make the
    // comparison meaningless.
    engine.run(entry, {});
    engine.reset();
    if (engine.registry()->published(entry) == nullptr) {
        state.SkipWithError("main did not compile natively");
        return;
    }
    timeRuns(engine);

    ServiceCounters c;
    engine.addTieringCounters(c);
    state.counters["functions_regalloc"] =
        static_cast<double>(c.functionsRegalloc);
    state.counters["spills_emitted"] =
        static_cast<double>(c.spillsEmitted);
    state.counters["loads_speculated"] =
        static_cast<double>(c.loadsSpeculated);
    state.counters["deopts_taken"] = static_cast<double>(c.deoptsTaken);
    state.counters["regalloc_ms"] = c.regallocSeconds * 1e3;
}

// Regalloc family: fully optimized modules (the IR the backend is
// named for), interpreter / baseline-native / optimized-native.
#define TRAPJIT_REGALLOC_BENCH(kernel, preset)                            \
    void BM_Regalloc_Fast_##kernel(benchmark::State &state)               \
    {                                                                     \
        runRegallocBenchmark(state, preset, makeNewFullConfig,            \
                             RegallocMode::Fast);                         \
    }                                                                     \
    void BM_Regalloc_Baseline_##kernel(benchmark::State &state)           \
    {                                                                     \
        runRegallocBenchmark(state, preset, makeNewFullConfig,            \
                             RegallocMode::Baseline);                     \
    }                                                                     \
    void BM_Regalloc_Optimized_##kernel(benchmark::State &state)          \
    {                                                                     \
        runRegallocBenchmark(state, preset, makeNewFullConfig,            \
                             RegallocMode::Optimized);                    \
    }                                                                     \
    BENCHMARK(BM_Regalloc_Fast_##kernel);                                 \
    BENCHMARK(BM_Regalloc_Baseline_##kernel);                             \
    BENCHMARK(BM_Regalloc_Optimized_##kernel)

TRAPJIT_REGALLOC_BENCH(pointer_chase, "pointer_chase");
TRAPJIT_REGALLOC_BENCH(array_stream, "array_stream");

#undef TRAPJIT_REGALLOC_BENCH

// Speculation family: no-opt NO-trap modules — the trap arm already
// turns coverable checks implicit (zero bytes, nothing left for §5.4
// to do), so the §5.4 experiment is the arm where every check is
// still an explicit compare-and-branch the speculated load can elide.
#define TRAPJIT_SPECULATE_BENCH(kernel, preset)                           \
    void BM_Speculate_On_##kernel(benchmark::State &state)                \
    {                                                                     \
        runRegallocBenchmark(state, preset, makeNoOptNoTrapConfig,        \
                             RegallocMode::Optimized);                    \
    }                                                                     \
    void BM_Speculate_Off_##kernel(benchmark::State &state)               \
    {                                                                     \
        runRegallocBenchmark(state, preset, makeNoOptNoTrapConfig,        \
                             RegallocMode::NoSpec);                       \
    }                                                                     \
    BENCHMARK(BM_Speculate_On_##kernel);                                  \
    BENCHMARK(BM_Speculate_Off_##kernel)

TRAPJIT_SPECULATE_BENCH(pointer_chase, "pointer_chase");
TRAPJIT_SPECULATE_BENCH(array_stream, "array_stream");

#undef TRAPJIT_SPECULATE_BENCH

// The deopt storm: null_storm dereferences null bases constantly — the
// worst case for speculation.  Speculated loads trap during warm-up,
// which re-tiers their functions without speculation; the measured
// steady state then deopts on every failing explicit check, so the
// deopt path stays on the measured profile (deopts_taken > 0).
void
BM_Speculate_DeoptStorm(benchmark::State &state)
{
    runRegallocBenchmark(state, "null_storm", makeNoOptNoTrapConfig,
                         RegallocMode::Optimized);
}
BENCHMARK(BM_Speculate_DeoptStorm);

} // namespace
} // namespace trapjit

BENCHMARK_MAIN();
