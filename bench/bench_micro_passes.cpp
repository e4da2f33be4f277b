/**
 * @file
 * google-benchmark micro benchmarks of the optimizer itself: the cost
 * of the dataflow solver and of each null check pass on a realistic
 * function (the javac-like module, the biggest of the suite).  These
 * complement the wall-clock compile-time tables with per-pass
 * throughput numbers.  BM_HashBytes measures the content hash that
 * keys, checksums and fingerprints go through (bytes_per_second).
 */

#include <benchmark/benchmark.h>

#include <string>

#include "analysis/dataflow.h"
#include "analysis/liveness.h"
#include "interp/fast_interpreter.h"
#include "opt/nullcheck/local_trap_lowering.h"
#include "opt/nullcheck/phase1.h"
#include "opt/nullcheck/phase2.h"
#include "opt/nullcheck/whaley.h"
#include "support/hash.h"
#include "workloads/workload.h"

namespace
{

using namespace trapjit;

/** Build + pre-clean a module so the measured pass sees realistic IR. */
std::unique_ptr<Module>
prepare(const char *workload)
{
    const Workload *w = findWorkload(workload);
    auto mod = w->build();
    for (FunctionId f = 0; f < mod->numFunctions(); ++f)
        mod->function(f).recomputeCFG();
    return mod;
}

template <typename PassT>
void
runPassBenchmark(benchmark::State &state, const char *workload)
{
    Target target = makeIA32WindowsTarget();
    for (auto _ : state) {
        state.PauseTiming();
        auto mod = prepare(workload);
        PassContext ctx{*mod, target, false};
        PassT pass;
        state.ResumeTiming();
        for (FunctionId f = 0; f < mod->numFunctions(); ++f)
            pass.runOnFunction(mod->function(f), ctx);
        benchmark::ClobberMemory();
    }
}

void
BM_Phase1_javac(benchmark::State &state)
{
    runPassBenchmark<NullCheckPhase1>(state, "javac");
}

void
BM_Phase2_javac(benchmark::State &state)
{
    runPassBenchmark<NullCheckPhase2>(state, "javac");
}

void
BM_Whaley_javac(benchmark::State &state)
{
    runPassBenchmark<WhaleyNullCheckElimination>(state, "javac");
}

void
BM_Lowering_javac(benchmark::State &state)
{
    runPassBenchmark<LocalTrapLowering>(state, "javac");
}

void
BM_Phase1_assignment(benchmark::State &state)
{
    runPassBenchmark<NullCheckPhase1>(state, "Assignment");
}

/**
 * Shared fixture for the solver micro benchmarks: the javac module and
 * one liveness-shaped DataflowSpec per function (backward/union), plus a
 * forward/intersect flip of the same gen/kill sets, all built once so
 * the timed region is pure solving.
 */
struct SolverWorkload
{
    std::unique_ptr<Module> mod;
    std::vector<DataflowSpec> backwardUnion;
    std::vector<DataflowSpec> forwardIntersect;
};

SolverWorkload &
solverWorkload()
{
    static SolverWorkload *w = [] {
        auto *out = new SolverWorkload;
        out->mod = prepare("javac");
        for (FunctionId f = 0; f < out->mod->numFunctions(); ++f) {
            DataflowSpec spec;
            makeLivenessSpec(out->mod->function(f), spec);
            out->backwardUnion.push_back(spec);
            spec.direction = DataflowSpec::Direction::Forward;
            spec.confluence = DataflowSpec::Confluence::Intersect;
            out->forwardIntersect.push_back(std::move(spec));
        }
        return out;
    }();
    return *w;
}

void
runSolverBenchmark(benchmark::State &state,
                   const std::vector<DataflowSpec> &specs, bool worklist)
{
    SolverWorkload &w = solverWorkload();
    DataflowSolver solver; // persistent: the arena warms up once
    for (auto _ : state) {
        for (FunctionId f = 0; f < w.mod->numFunctions(); ++f) {
            const Function &fn = w.mod->function(f);
            if (worklist) {
                const DataflowResult &r = solver.solve(fn, specs[f]);
                benchmark::DoNotOptimize(&r);
            } else {
                DataflowResult r = solveDataflowReference(fn, specs[f]);
                benchmark::DoNotOptimize(&r);
            }
        }
        benchmark::ClobberMemory();
    }
    if (worklist) {
        SolverStats stats = solver.takeStats();
        state.counters["visits_per_solve"] = stats.visitsPerSolve();
    }
}

void
BM_SolveDataflow_Worklist_javac(benchmark::State &state)
{
    runSolverBenchmark(state, solverWorkload().backwardUnion, true);
}

void
BM_SolveDataflow_Reference_javac(benchmark::State &state)
{
    runSolverBenchmark(state, solverWorkload().backwardUnion, false);
}

void
BM_SolveDataflow_WorklistFwd_javac(benchmark::State &state)
{
    runSolverBenchmark(state, solverWorkload().forwardIntersect, true);
}

void
BM_SolveDataflow_ReferenceFwd_javac(benchmark::State &state)
{
    runSolverBenchmark(state, solverWorkload().forwardIntersect, false);
}

void
BM_FullCompile_javac(benchmark::State &state)
{
    Target target = makeIA32WindowsTarget();
    Compiler compiler(target, makeNewFullConfig());
    for (auto _ : state) {
        state.PauseTiming();
        auto mod = prepare("javac");
        state.ResumeTiming();
        compiler.compile(*mod);
        benchmark::ClobberMemory();
    }
}

// ---------------------------------------------------------------------------
// Execution engines
// ---------------------------------------------------------------------------
//
// Dispatch-cost comparison of the three interpreter shapes on jBYTEmark
// kernels: the reference switch interpreter re-reading Instruction
// records, the pre-decoded direct-threaded engine, and the same engine
// with superinstruction fusion.  The modules are the unoptimized
// front-end form (every check explicit), i.e. what an interpreter tier
// executes before the JIT kicks in — the shape with the most
// NullCheck+access fusion pairs.  Interpreters are built once per
// benchmark and reset() between iterations so the timed region is pure
// execution (constructing one would zero the 32 MiB heap every
// iteration; decoding happens once, on the first run).

enum class InterpMode
{
    Reference,
    Decoded,
    DecodedFused,
};

void
runInterpBenchmark(benchmark::State &state, const char *workload,
                   InterpMode mode)
{
    Target target = makeIA32WindowsTarget();
    const Workload *w = findWorkload(workload);
    auto mod = w->build();
    FunctionId entry = mod->findFunction("main");
    InterpOptions options;
    options.recordTrace = false;

    ExecStats stats;
    auto loop = [&](auto &interp) {
        for (auto _ : state) {
            interp.reset();
            ExecResult r = interp.run(entry, {});
            benchmark::DoNotOptimize(r.value.i);
            stats = r.stats;
        }
    };
    if (mode == InterpMode::Reference) {
        Interpreter interp(*mod, target, options);
        loop(interp);
    } else {
        DecodeOptions decode;
        decode.fuse = mode == InterpMode::DecodedFused;
        FastInterpreter interp(*mod, target, options, nullptr, decode);
        loop(interp);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(stats.instructions) * state.iterations());
    if (mode != InterpMode::Reference) {
        state.counters["dispatches"] =
            static_cast<double>(stats.dispatches);
        state.counters["fused_pairs"] =
            static_cast<double>(stats.fusedPairsExecuted);
    }
}

void
BM_HashBytes(benchmark::State &state)
{
    std::string bytes(static_cast<size_t>(state.range(0)), '\0');
    for (size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<char>(i * 131 + (i >> 8));
    for (auto _ : state)
        benchmark::DoNotOptimize(hashBytes(bytes));
    state.SetBytesProcessed(static_cast<int64_t>(bytes.size()) *
                            state.iterations());
}

#define TRAPJIT_INTERP_BENCH(kernel, workload)                           \
    void BM_Interp_Reference_##kernel(benchmark::State &state)           \
    {                                                                    \
        runInterpBenchmark(state, workload, InterpMode::Reference);      \
    }                                                                    \
    void BM_Interp_Decoded_##kernel(benchmark::State &state)             \
    {                                                                    \
        runInterpBenchmark(state, workload, InterpMode::Decoded);        \
    }                                                                    \
    void BM_Interp_DecodedFused_##kernel(benchmark::State &state)        \
    {                                                                    \
        runInterpBenchmark(state, workload, InterpMode::DecodedFused);   \
    }                                                                    \
    BENCHMARK(BM_Interp_Reference_##kernel);                             \
    BENCHMARK(BM_Interp_Decoded_##kernel);                               \
    BENCHMARK(BM_Interp_DecodedFused_##kernel)

TRAPJIT_INTERP_BENCH(numsort, "Numeric Sort");
TRAPJIT_INTERP_BENCH(assignment, "Assignment");
TRAPJIT_INTERP_BENCH(idea, "IDEA encryption");

#undef TRAPJIT_INTERP_BENCH

BENCHMARK(BM_Phase1_javac);
BENCHMARK(BM_Phase2_javac);
BENCHMARK(BM_Whaley_javac);
BENCHMARK(BM_Lowering_javac);
BENCHMARK(BM_Phase1_assignment);
BENCHMARK(BM_SolveDataflow_Worklist_javac);
BENCHMARK(BM_SolveDataflow_Reference_javac);
BENCHMARK(BM_SolveDataflow_WorklistFwd_javac);
BENCHMARK(BM_SolveDataflow_ReferenceFwd_javac);
BENCHMARK(BM_FullCompile_javac);
BENCHMARK(BM_HashBytes)->Arg(1 << 10)->Arg(64 << 10)->Arg(1 << 20);

} // namespace

BENCHMARK_MAIN();
