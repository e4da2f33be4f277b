#ifndef TRAPJIT_TESTING_EQUIVALENCE_H_
#define TRAPJIT_TESTING_EQUIVALENCE_H_

/**
 * @file
 * Observable-equivalence oracle.
 *
 * Runs a module twice — once exactly as built (the *reference*: every
 * check explicit, nothing optimized) and once compiled under a pipeline
 * configuration — and compares everything Java semantics makes
 * observable: outcome (return vs exception), the exception class, the
 * returned value, the ordered heap-write/allocation event trace, and a
 * final heap digest.  Reads are free to differ (speculation).  A
 * HardFault in the optimized run (wild access, missing check) is
 * reported as a miscompilation.
 */

#include <functional>
#include <memory>
#include <string>

#include "arch/target.h"
#include "codegen/native/tiered_engine.h"
#include "interp/decoded_program.h"
#include "ir/module.h"
#include "jit/compiler.h"

namespace trapjit
{

/** Result of an equivalence comparison. */
struct EquivalenceReport
{
    bool equivalent = false;
    std::string message; ///< first difference / fault, for diagnostics

    /**
     * Both runs hard-faulted with the identical message.  The engines
     * agree, so `equivalent` is true — but a clean pipeline never
     * HardFaults, so a fuzz harness must treat this as a finding in its
     * own right, not bury it as a pass.
     */
    bool hardFaulted = false;

    // Workload telemetry from the comparison runs (equal across engines
    // whenever equivalent && !hardFaulted): lets a harness aggregate
    // traps/sec and instructions/sec without re-running anything.
    uint64_t trapsTaken = 0;
    uint64_t instructionsExecuted = 0;
};

/**
 * Compare the reference execution of a freshly built module against the
 * execution of a copy compiled by @p compiler, both run on
 * @p runtime_target.
 *
 * @param build  builds a fresh identical module on each call (the
 *               generator with a fixed seed, or a workload builder)
 */
EquivalenceReport compareWithReference(
    const std::function<std::unique_ptr<Module>()> &build,
    const Compiler &compiler, const Target &runtime_target);

/**
 * Same oracle with an arbitrary compilation step: @p compile receives
 * the freshly built module and optimizes it in place.  Lets the
 * config-matrix suite drive the parallel CompileService (or any other
 * entry point) through the identical observable-equivalence check.
 */
EquivalenceReport compareWithReference(
    const std::function<std::unique_ptr<Module>()> &build,
    const std::function<void(Module &)> &compile,
    const Target &runtime_target);

/**
 * Cross-engine differential oracle: run @p mod's `main` once under the
 * reference switch interpreter and once under the pre-decoded fast
 * engine (interp/fast_interpreter.h) and compare everything both
 * produce, bit for bit — HardFault parity (including the fault
 * message), outcome, exception kind, the typed return value, the full
 * ordered EventTrace, the final heap digest, and every semantic
 * ExecStats counter (cycles are the reference engine's alone, so they
 * are not compared).  This is strictly stronger than the
 * Java-observability check above: the fast engine is required to be an
 * exact reimplementation, not merely an equivalent one.
 *
 * @param decode_options  decode knobs for the fast engine (run once
 *                        with fusion on and once off to cover both
 *                        dispatch shapes)
 */
EquivalenceReport compareEngines(Module &mod, const Target &runtime_target,
                                 DecodeOptions decode_options = {});

/**
 * Native-tier differential oracle: run @p mod's `main` once under the
 * fast interpreter and twice under one TieredEngine
 * (codegen/native/tiered_engine.h), with reset() in between, and
 * compare each tiered run with the fast one: HardFault parity
 * (including the message), outcome, exception kind, the typed return
 * value (F64 bitwise), the full ordered EventTrace, the final heap
 * digest, and the semantic counters native frames maintain
 * (instructions, calls, allocations, trapsTaken,
 * speculativeReadsOfNull).  The engine-side dynamic counters are
 * excluded: native frames run on real time.  The second run executes
 * what the first left behind — blocks recompiled after traps with their
 * sites explicit, functions the first run only interpreted — so those
 * stay under the oracle too.
 *
 * The default options force synchronous promotion at a threshold of 2
 * so functions tier up *mid-case* and the run crosses interpreter ->
 * native -> interpreter frames in both directions; pass
 * eagerTieredOptions() for the all-native engine, or other
 * TieredOptions to cover other policies (background workers, linking
 * off, high threshold).
 *
 * @param prepare  runs on the tiered engine before `main` does — e.g.
 *                 promoteNow on chosen functions under a threshold
 *                 that is never reached, forcing an exact mix of
 *                 native and interpreted frames
 */
EquivalenceReport compareTieredEngine(
    Module &mod, const Target &runtime_target,
    DecodeOptions decode_options = {},
    TieredOptions tiered_options =
        {
            .threshold = 2,
            .synchronous = true,
        },
    const std::function<void(TieredEngine &)> &prepare = {});

} // namespace trapjit

#endif // TRAPJIT_TESTING_EQUIVALENCE_H_
