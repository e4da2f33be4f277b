/**
 * @file
 * Regenerates Table 3: JIT compilation time of the SPECjvm98-like suite
 * for our JIT and the AltVM stand-in, plus first-run / best-run style
 * accounting.
 *
 * Units: compile wall-clock time (passes plus the x64 back end) is
 * measured on the host; the simulated
 * run time is model cycles at 600 MHz.  To express the paper's "ratio
 * of compilation time over the first run" (Figure 12-style column) the
 * host time is converted to PIII-equivalent time with a fixed,
 * documented calibration factor — the absolute ratio is therefore
 * indicative only, but the *relative* comparisons (our JIT compiles
 * several times faster than the AltVM; javac dominates compile time)
 * are unit-consistent and meaningful.
 */

#include <iostream>

#include "bench_util.h"

using namespace trapjit;
using namespace trapjit::bench;

namespace
{

/** Host-to-PIII-600 equivalent throughput factor (documented estimate). */
constexpr double kHostToP3Factor = 40.0;

} // namespace

int
main()
{
    requireCycleModelEngine();
    std::cout << "Table 3. JIT compilation time, SPECjvm98-like suite\n"
                 "(compile: host ms averaged over repetitions; run: "
                 "simulated ms at 600 MHz;\n ratio: compile share of the "
                 "first run using a fixed x"
              << kHostToP3Factor << " host->PIII calibration)\n\n";

    Target ia32 = makeIA32WindowsTarget();
    Compiler ours(ia32, makeNewFullConfig());
    Compiler altvm(ia32, makeAltVMConfig());
    const int reps = 20;

    TextTable table({"benchmark", "ours compile (ms)", "ours run (ms)",
                     "ours ratio", "altvm compile (ms)",
                     "altvm run (ms)", "altvm ratio",
                     "altvm/ours compile"});

    double oursTotal = 0.0;
    double altvmTotal = 0.0;
    SolverStats oursSolver;
    uint64_t oursAudited = 0;
    uint64_t oursAuditFindings = 0;
    double oursAuditSeconds = 0.0;
    ExecStats engineTotals;
    for (const Workload &w : specjvmWorkloads()) {
        PassTimings oursT = averageCompileTimings(w, ours, reps);
        PassTimings altvmT = averageCompileTimings(w, altvm, reps);
        WorkloadRun oursRun = runWorkload(w, ours, ia32);
        WorkloadRun altvmRun = runWorkload(w, altvm, ia32);

        double oursCompileMs = oursT.total() * 1e3;
        double altvmCompileMs = altvmT.total() * 1e3;
        double oursRunMs = simulatedMillis(oursRun.cycles);
        double altvmRunMs = simulatedMillis(altvmRun.cycles);
        double oursRatio = oursCompileMs * kHostToP3Factor /
                           (oursCompileMs * kHostToP3Factor + oursRunMs);
        double altvmRatio =
            altvmCompileMs * kHostToP3Factor /
            (altvmCompileMs * kHostToP3Factor + altvmRunMs);
        oursTotal += oursCompileMs;
        altvmTotal += altvmCompileMs;
        oursSolver += oursT.solver;
        oursAudited += oursT.functionsAudited;
        oursAuditFindings += oursT.auditFindings;
        oursAuditSeconds += oursT.auditSeconds;
        engineTotals.instructions += oursRun.stats.instructions;
        engineTotals.dispatches += oursRun.stats.dispatches;
        engineTotals.fusedPairsExecuted +=
            oursRun.stats.fusedPairsExecuted;
        engineTotals.functionsDecoded += oursRun.stats.functionsDecoded;
        engineTotals.decodeSeconds += oursRun.stats.decodeSeconds;

        table.addRow({w.name, TextTable::num(oursCompileMs, 3),
                      TextTable::num(oursRunMs, 3),
                      TextTable::pct(100.0 * oursRatio),
                      TextTable::num(altvmCompileMs, 3),
                      TextTable::num(altvmRunMs, 3),
                      TextTable::pct(100.0 * altvmRatio),
                      TextTable::num(altvmCompileMs / oursCompileMs, 2)});
    }
    table.print(std::cout);
    std::cout << "\nTotal compile time: ours "
              << TextTable::num(oursTotal, 3) << " ms, altvm "
              << TextTable::num(altvmTotal, 3) << " ms ("
              << TextTable::num(altvmTotal / oursTotal, 2)
              << "x ours — the paper reports HotSpot spending several "
                 "times our compile time)\n";
    std::cout << "Dataflow solver convergence (ours, all reps): "
              << oursSolver.solves << " solves, "
              << oursSolver.blockVisits << " block visits ("
              << TextTable::num(oursSolver.visitsPerSolve(), 2)
              << " visits/solve), " << oursSolver.edgeFastPathSolves
              << " edge-map fast-path solves\n";
    if (oursAudited > 0) {
        std::cout << "Null-check soundness audit (ours, all reps): "
                  << oursAudited << " functions audited, "
                  << oursAuditFindings << " findings, "
                  << TextTable::num(oursAuditSeconds * 1e3, 3)
                  << " ms\n";
    }

    // Simulation-side accounting, kept apart from the compile columns
    // above: pre-decoding for the fast engine is host time the
    // interpreter spends before the first dispatch, not compile time.
    std::cout << "Execution engine (ours runs): "
              << interpEngineName(interpEngineFromEnv()) << "; "
              << engineTotals.instructions << " instructions retired";
    if (interpEngineFromEnv() == InterpEngineKind::Fast)
        std::cout << ", " << engineTotals.dispatches << " dispatches, "
                  << engineTotals.fusedPairsExecuted
                  << " fused pairs executed, "
                  << engineTotals.functionsDecoded
                  << " functions decoded in "
                  << TextTable::num(engineTotals.decodeSeconds * 1e3, 3)
                  << " ms (excluded from compile columns)";
    std::cout << "\n";
    return 0;
}
