#ifndef TRAPJIT_BENCH_BENCH_UTIL_H_
#define TRAPJIT_BENCH_BENCH_UTIL_H_

/**
 * @file
 * Shared harness code for the table/figure benchmarks.
 *
 * Every bench binary regenerates one table or figure of the paper's
 * Section 5 by running the synthetic suites under the experiment arms
 * and printing the same rows the paper reports.  jBYTEmark-style scores
 * are an index (bigger is better, indexScale / cycles); SPECjvm98-style
 * results are simulated milliseconds (smaller is better).
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "codegen/native/native_compiler.h"
#include "support/diagnostics.h"
#include "support/table.h"
#include "workloads/workload.h"

namespace trapjit::bench
{

/** One experiment arm: a pipeline compiled for / run on a target. */
struct Arm
{
    std::string label;
    Target compileTarget;
    Target runtimeTarget;
    PipelineConfig config;
};

/**
 * Exit non-zero, before anything is printed, unless TRAPJIT_INTERP
 * selects an engine that models cycles.  Native frames add none, so a
 * cycle table from the native engine is all inf and one from the
 * tiered engine is plausible but wrong.  Every bench whose table comes
 * from WorkloadRun::cycles calls this first.
 */
inline void
requireCycleModelEngine()
{
    if (cycleModelEngineSelected())
        return;
    std::cerr << "error: TRAPJIT_INTERP="
              << interpEngineName(interpEngineFromEnv())
              << " models no cycles in native frames; this table needs "
                 "TRAPJIT_INTERP=fast (default) or reference\n";
    std::exit(2);
}

/** The five IA32 arms of Tables 1 and 2, plus the AltVM stand-in. */
inline std::vector<Arm>
ia32Arms(bool include_altvm)
{
    Target ia32 = makeIA32WindowsTarget();
    std::vector<Arm> arms = {
        {"New Null Check (Phase1+Phase2)", ia32, ia32,
         makeNewFullConfig()},
        {"New Null Check (Phase1 only)", ia32, ia32,
         makeNewPhase1OnlyConfig()},
        {"Old Null Check", ia32, ia32, makeOldNullCheckConfig()},
        {"No Null Opt. (Hardware Trap)", ia32, ia32,
         makeNoOptTrapConfig()},
        {"No Null Opt. (No Hardware Trap)", ia32, ia32,
         makeNoOptNoTrapConfig()},
    };
    if (include_altvm)
        arms.push_back({"AltVM (HotSpot stand-in)", ia32, ia32,
                        makeAltVMConfig()});
    return arms;
}

/** The four PowerPC/AIX arms of Tables 6 and 7. */
inline std::vector<Arm>
aixArms()
{
    Target aix = makePPCAIXTarget();
    Target lying = makeIllegalImplicitAIXTarget();
    return {
        {"Speculation", aix, aix, makeAIXSpeculationConfig()},
        {"No Speculation", aix, aix, makeAIXNoSpeculationConfig()},
        {"No Null Check Optimization", aix, aix, makeAIXNoOptConfig()},
        {"Illegal Implicit (No Speculation)", lying, aix,
         makeAIXIllegalImplicitConfig()},
    };
}

/** cycles for every workload (rows) under every arm (columns). */
struct SuiteCycles
{
    std::vector<std::string> workloadNames;
    std::vector<std::string> armLabels;
    /** cycles[workload][arm] */
    std::vector<std::vector<double>> cycles;
};

inline SuiteCycles
runSuite(const std::vector<Workload> &suite, const std::vector<Arm> &arms)
{
    SuiteCycles result;
    for (const Arm &arm : arms)
        result.armLabels.push_back(arm.label);
    for (const Workload &w : suite) {
        result.workloadNames.push_back(w.name);
        std::vector<double> row;
        for (const Arm &arm : arms) {
            Compiler compiler(arm.compileTarget, arm.config);
            WorkloadRun run =
                runWorkload(w, compiler, arm.runtimeTarget);
            TRAPJIT_ASSERT(run.ok, w.name, " under ", arm.label,
                           " threw");
            row.push_back(run.cycles);
        }
        result.cycles.push_back(std::move(row));
    }
    return result;
}

/**
 * Pass timings of compiling @p w with @p compiler, averaged over
 * @p reps fresh builds (the counters are summed), with the back end —
 * decoding and lowering every function to x64 — counted among the
 * "others", as the paper's compile times include code generation.
 */
inline PassTimings
averageCompileTimings(const Workload &w, const Compiler &compiler, int reps)
{
    PassTimings sum;
    for (int r = 0; r < reps; ++r) {
        auto mod = w.build();
        sum += compiler.compile(*mod).timings;
        sum.otherSeconds += lowerModule(*mod, compiler.target()).seconds;
    }
    sum.nullCheckSeconds /= reps;
    sum.otherSeconds /= reps;
    return sum;
}

/** jBYTEmark index for a run: indexScale / cycles (larger = faster). */
inline double
indexScore(const Workload &w, double cycles)
{
    return w.indexScale / cycles;
}

/** SPECjvm98-style simulated milliseconds at 600 MHz. */
inline double
simulatedMillis(double cycles)
{
    return cycles / 600.0e3;
}

} // namespace trapjit::bench

#endif // TRAPJIT_BENCH_BENCH_UTIL_H_
