/**
 * @file
 * Execution-tier comparison on real wall time: reference switch
 * interpreter vs pre-decoded fused interpreter vs the native x86-64
 * tier (the all-native engine, eagerTieredOptions(): every function
 * compiled on its first call), on jBYTEmark kernels (BM_Native_* — CI
 * uploads the results as BENCH_native.json next to BENCH_interp.json).
 * Native code keeps hot values in register homes and dispatches
 * exceptions in code.
 *
 * Three families:
 *
 *  - BM_Native_{Reference,Fast,Jit}_<kernel>: the same unoptimized
 *    module (every check explicit, the interpreter benches' shape)
 *    under all three engines.  The native tier's claim is >= 5x over
 *    the fused interpreter on these kernels — dispatch disappears
 *    entirely; what remains is the slot traffic.
 *
 *  - BM_Native_{ImplicitChecks,ExplicitChecks}_<kernel>: the paper's
 *    actual experiment on real hardware.  The same kernel compiled
 *    under the hardware-trap arm (implicit checks: zero instructions,
 *    the guard page does the checking) and the no-trap arm (explicit
 *    compare-and-branch per check), both executed natively.  On
 *    null-heavy kernels the trap arm must be at least as fast in wall
 *    time — the win the paper measures in Table 1.
 *
 *  - BM_Tiered_{Fast,Cold,Warm,WarmNoLink}_<preset>: the
 *    profile-guided tiering story on every workload-gen preset (CI
 *    uploads these as BENCH_tiering.json).  Cold start vs warmed
 *    steady state, direct block linking vs trampoline-only, against
 *    the fused interpreter baseline: Warm must not lose to Fast on any
 *    preset, trap-heavy ones included.  Each reports how many blocks
 *    it promoted, every one through the register-home scan, and how
 *    many ranked values it left in their slots (functions_promoted,
 *    spills_emitted).
 *
 * Native benches skip (with a notice in the JSON) on hosts without the
 * native tier; the interpreter baselines run everywhere.
 */

#include <benchmark/benchmark.h>

#include "codegen/native/tiered_engine.h"
#include "interp/fast_interpreter.h"
#include "interp/interpreter.h"
#include "jit/compiler.h"
#include "testing/workload_gen/workload_gen.h"
#include "workloads/workload.h"

namespace trapjit
{
namespace
{

enum class Tier
{
    Reference,
    Fast,
    Native,
};

/**
 * The all-native engine for @p mod, warmed outside the timed region;
 * null (after failing the benchmark loudly) when @p entry did not
 * compile: a silently interpreted "native" number would make the
 * comparison meaningless.
 */
std::unique_ptr<TieredEngine>
warmNativeEngine(benchmark::State &state, const Module &mod,
                 const Target &target, const InterpOptions &options,
                 FunctionId entry)
{
    if (!nativeTierSupported()) {
        state.SkipWithError("native tier requires x86-64 Linux");
        return nullptr;
    }
    auto engine = std::make_unique<TieredEngine>(
        mod, target, options, nullptr, DecodeOptions{},
        eagerTieredOptions());
    engine->run(entry, {});
    engine->reset();
    if (engine->registry()->published(entry) == nullptr) {
        state.SkipWithError("main did not compile natively");
        return nullptr;
    }
    return engine;
}

void
runEngineBenchmark(benchmark::State &state, const char *workload, Tier tier)
{
    Target target = makeIA32WindowsTarget();
    const Workload *w = findWorkload(workload);
    auto mod = w->build();
    FunctionId entry = mod->findFunction("main");
    InterpOptions options;
    options.recordTrace = false;

    ExecStats stats;
    auto loop = [&](auto &engine) {
        for (auto _ : state) {
            engine.reset();
            ExecResult r = engine.run(entry, {});
            benchmark::DoNotOptimize(r.value.i);
            stats = r.stats;
        }
    };
    switch (tier) {
      case Tier::Reference: {
        Interpreter interp(*mod, target, options);
        loop(interp);
        break;
      }
      case Tier::Fast: {
        FastInterpreter interp(*mod, target, options);
        loop(interp);
        break;
      }
      case Tier::Native: {
        auto engine = warmNativeEngine(state, *mod, target, options, entry);
        if (engine == nullptr)
            return;
        loop(*engine);
        break;
      }
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(stats.instructions) * state.iterations());
}

/**
 * The trap experiment: compile under @p makeConfig, execute natively,
 * and report the check mix so the JSON shows what was measured.
 */
void
runCheckArmBenchmark(benchmark::State &state, const char *workload,
                     PipelineConfig (*makeConfig)())
{
    Target target = makeIA32WindowsTarget();
    const Workload *w = findWorkload(workload);
    auto mod = w->build();
    Compiler compiler(target, makeConfig());
    compiler.compile(*mod);
    FunctionId entry = mod->findFunction("main");
    InterpOptions options;
    options.recordTrace = false;

    auto engine = warmNativeEngine(state, *mod, target, options, entry);
    if (engine == nullptr)
        return;
    const NativeCode *nc = engine->registry()->published(entry);
    ExecStats stats;
    for (auto _ : state) {
        engine->reset();
        ExecResult r = engine->run(entry, {});
        benchmark::DoNotOptimize(r.value.i);
        stats = r.stats;
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(stats.instructions) * state.iterations());
    state.counters["implicit_checks"] =
        static_cast<double>(nc->implicitChecksCompiled);
    state.counters["explicit_checks"] =
        static_cast<double>(nc->explicitChecksCompiled);
    state.counters["explicit_check_bytes"] =
        static_cast<double>(nc->explicitNullCheckBytes);
    state.counters["traps_taken"] = static_cast<double>(stats.trapsTaken);
}

#define TRAPJIT_NATIVE_BENCH(kernel, workload)                            \
    void BM_Native_Reference_##kernel(benchmark::State &state)            \
    {                                                                     \
        runEngineBenchmark(state, workload, Tier::Reference);             \
    }                                                                     \
    void BM_Native_Fast_##kernel(benchmark::State &state)                 \
    {                                                                     \
        runEngineBenchmark(state, workload, Tier::Fast);                  \
    }                                                                     \
    void BM_Native_Jit_##kernel(benchmark::State &state)                  \
    {                                                                     \
        runEngineBenchmark(state, workload, Tier::Native);                \
    }                                                                     \
    void BM_Native_ImplicitChecks_##kernel(benchmark::State &state)       \
    {                                                                     \
        runCheckArmBenchmark(state, workload, makeNoOptTrapConfig);       \
    }                                                                     \
    void BM_Native_ExplicitChecks_##kernel(benchmark::State &state)       \
    {                                                                     \
        runCheckArmBenchmark(state, workload, makeNoOptNoTrapConfig);     \
    }                                                                     \
    BENCHMARK(BM_Native_Reference_##kernel);                              \
    BENCHMARK(BM_Native_Fast_##kernel);                                   \
    BENCHMARK(BM_Native_Jit_##kernel);                                    \
    BENCHMARK(BM_Native_ImplicitChecks_##kernel);                         \
    BENCHMARK(BM_Native_ExplicitChecks_##kernel)

TRAPJIT_NATIVE_BENCH(numsort, "Numeric Sort");
TRAPJIT_NATIVE_BENCH(assignment, "Assignment");
TRAPJIT_NATIVE_BENCH(idea, "IDEA encryption");

#undef TRAPJIT_NATIVE_BENCH

// ---------------------------------------------------------------------------
// Profile-guided tiering (BM_Tiered_* — CI uploads BENCH_tiering.json)
// ---------------------------------------------------------------------------
//
// Every workload-gen preset under the tiering policies the engine
// supports:
//
//  - BM_Tiered_Fast:       fused-interpreter baseline
//  - BM_Tiered_Cold:       cold start — a fresh engine per iteration
//                          pays interpretation, promotion compiles and
//                          publishing inside the measured region
//  - BM_Tiered_Warm:       everything published and direct-linked;
//                          hot call chains never leave native code,
//                          and sites that trapped during warm-up test
//                          for null explicitly
//  - BM_Tiered_WarmNoLink: published but trampoline-only (linkBlocks
//                          off) — isolates the value of the rel32
//                          direct patches from the rest of the tier

enum class TieredMode
{
    Fast,
    Cold,
    Warm,
    WarmNoLink,
};

/** Build + compile one workload-gen preset (fixed preset seed). */
std::unique_ptr<Module>
buildTieredPresetModule(const char *preset)
{
    const WorkloadProfile *p = findWorkloadProfile(preset);
    auto mod = generateWorkloadModule(*p);
    Target target = makeIA32WindowsTarget();
    Compiler compiler(target, makeNewFullConfig());
    compiler.compile(*mod);
    return mod;
}

void
runTieredBenchmark(benchmark::State &state, const char *preset,
                   TieredMode mode)
{
    Target target = makeIA32WindowsTarget();
    auto mod = buildTieredPresetModule(preset);
    FunctionId entry = mod->findFunction("main");
    InterpOptions options;
    options.recordTrace = false;

    // Serving-loop shape: many requests per heap recycle.  The bump
    // arena hands out pre-zeroed memory, so runs are back to back and
    // the periodic wipe (identical across engines, proportional to the
    // workload's allocation volume rather than engine speed) happens
    // off the timed path, as a server would recycle between batches.
    constexpr int kRunsPerReset = 64;

    auto timeRuns = [&](auto &engine) {
        // ExecStats accumulate until reset(); report per-run deltas.
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

    if (mode == TieredMode::Fast) {
        FastInterpreter interp(*mod, target, options);
        timeRuns(interp);
        return;
    }

    if (!nativeTierSupported()) {
        state.SkipWithError("native tier requires x86-64 Linux");
        return;
    }

    TieredOptions topts = eagerTieredOptions();
    topts.linkBlocks = mode != TieredMode::WarmNoLink;

    if (mode == TieredMode::Cold) {
        // The whole first-run story per iteration: construct, then
        // compile, audit and publish each function on its first call
        // and run it natively from there.
        ExecStats stats;
        for (auto _ : state) {
            TieredEngine engine(*mod, target, options, nullptr, {},
                                topts);
            ExecResult r = engine.run(entry, {});
            benchmark::DoNotOptimize(r.value.i);
            stats = r.stats;
        }
        state.SetItemsProcessed(
            static_cast<int64_t>(stats.instructions) *
            state.iterations());
        return;
    }

    TieredEngine engine(*mod, target, options, nullptr, {}, topts);
    // Warm outside the timed region: after one run every touched
    // function is published (threshold 1, synchronous), except those
    // whose implicit checks trapped; the second run re-promotes them
    // with those sites tested explicitly.  reset() keeps the published
    // blocks and the explicit sets.
    for (int warm = 0; warm < 2; ++warm) {
        engine.run(entry, {});
        engine.drainPromotions();
        engine.reset();
    }
    timeRuns(engine);

    ServiceCounters tiering;
    engine.addTieringCounters(tiering);
    state.counters["functions_promoted"] =
        static_cast<double>(tiering.functionsPromoted);
    state.counters["blocks_linked"] =
        static_cast<double>(tiering.blocksLinked);
    state.counters["slots_patched"] =
        static_cast<double>(tiering.slotsPatched);
    state.counters["tier_up_ms"] = tiering.tierUpLatencySeconds * 1e3;
    state.counters["sites_explicitized"] =
        static_cast<double>(tiering.sitesExplicitized);
    state.counters["spills_emitted"] =
        static_cast<double>(tiering.spillsEmitted);
}

#define TRAPJIT_TIERED_BENCH(kernel, preset)                              \
    void BM_Tiered_Fast_##kernel(benchmark::State &state)                 \
    {                                                                     \
        runTieredBenchmark(state, preset, TieredMode::Fast);              \
    }                                                                     \
    void BM_Tiered_Cold_##kernel(benchmark::State &state)                 \
    {                                                                     \
        runTieredBenchmark(state, preset, TieredMode::Cold);              \
    }                                                                     \
    void BM_Tiered_Warm_##kernel(benchmark::State &state)                 \
    {                                                                     \
        runTieredBenchmark(state, preset, TieredMode::Warm);              \
    }                                                                     \
    void BM_Tiered_WarmNoLink_##kernel(benchmark::State &state)           \
    {                                                                     \
        runTieredBenchmark(state, preset, TieredMode::WarmNoLink);        \
    }                                                                     \
    BENCHMARK(BM_Tiered_Fast_##kernel);                                   \
    BENCHMARK(BM_Tiered_Cold_##kernel);                                   \
    BENCHMARK(BM_Tiered_Warm_##kernel);                                   \
    BENCHMARK(BM_Tiered_WarmNoLink_##kernel)

TRAPJIT_TIERED_BENCH(mixed, "mixed");
TRAPJIT_TIERED_BENCH(pointer_chase, "pointer_chase");
TRAPJIT_TIERED_BENCH(array_stream, "array_stream");
TRAPJIT_TIERED_BENCH(big_offset, "big_offset");
TRAPJIT_TIERED_BENCH(try_storm, "try_storm");
TRAPJIT_TIERED_BENCH(call_web, "call_web");
TRAPJIT_TIERED_BENCH(null_storm, "null_storm");

#undef TRAPJIT_TIERED_BENCH

} // namespace
} // namespace trapjit

BENCHMARK_MAIN();
