#ifndef TRAPJIT_JIT_STATS_H_
#define TRAPJIT_JIT_STATS_H_

/**
 * @file
 * Static IR statistics: what a compiled module looks like on paper —
 * how many checks are left, of which flavor, how many accesses carry
 * implicit checks, how large the functions are.  Used by the static
 * check-count bench and handy when debugging a pipeline.
 */

#include <cstdint>

#include "ir/module.h"

namespace trapjit
{

/** Static counts over a function or module. */
struct CheckStats
{
    size_t explicitNullChecks = 0;
    size_t implicitNullChecks = 0;
    size_t markedExceptionSites = 0;
    size_t speculativeReads = 0;
    size_t boundChecks = 0;
    size_t instructions = 0;
    size_t blocks = 0;

    CheckStats &operator+=(const CheckStats &other);
};

/** Count checks in one function. */
CheckStats collectCheckStats(const Function &func);

/** Count checks over every function of a module. */
CheckStats collectCheckStats(const Module &mod);

/**
 * Per-job compile counters for the parallel compile service.
 *
 * Aggregation is merge-on-completion: every compile job fills its own
 * ServiceCounters without synchronization, and the service folds them
 * into the batch total under one mutex when the job finishes (see
 * jit/compile_service.cpp).  Nothing here is atomic on purpose — the
 * merge points are the only cross-thread edges.
 */
struct ServiceCounters
{
    size_t functionsRequested = 0; ///< jobs submitted
    size_t functionsCompiled = 0;  ///< cache misses: pipeline actually ran
    size_t cacheHits = 0;          ///< jobs satisfied from the cache

    // Dataflow solver convergence, summed over every solve the batch's
    // pipelines ran (see analysis/dataflow.h SolverStats).  Cache hits
    // contribute nothing: no pipeline ran.
    size_t solverSolves = 0;      ///< solve() calls across all jobs
    size_t solverBlockVisits = 0; ///< worklist pops across all solves

    // Pre-decoding for the fast interpreter (interp/decoded_program.h):
    // each job decodes the function it parsed into the service's
    // DecodedProgramCache so bench runs pay for decoding once, not per
    // interpreter instance.  These separate that cost from compilation
    // proper in the compile-time benches.  Like busySeconds, the time
    // is summed over workers, so it can exceed the batch's wall clock.
    size_t functionsPredecoded = 0; ///< decode-cache misses this batch
    double decodeSeconds = 0.0;     ///< worker time spent pre-decoding

    // The service emits no native code (blocks compile on promotion;
    // their cost is tierUpLatencySeconds below), so these two stay
    // zero.  They exist only because the frozen end-to-end benchmark
    // (e2ebench/) reads them.
    size_t functionsNativeCompiled = 0; ///< always 0; kept for e2ebench/
    double nativeCompileSeconds = 0.0;  ///< always 0; kept for e2ebench/

    // Null-check soundness auditor (analysis/audit/), summed over every
    // job whose pipeline ran with auditing enabled (TRAPJIT_AUDIT=1 or
    // PipelineConfig::audit).  Zero findings is the expected steady
    // state; any nonzero count is a soundness bug in a null-check pass.
    size_t functionsAudited = 0; ///< final whole-function audits run
    size_t auditFindings = 0;    ///< findings across all audits
    double auditSeconds = 0.0;   ///< host time spent auditing

    // Profile-guided tiering (jit/tier_controller.h + the code
    // registry): filled by TieredEngine::addTieringCounters after a
    // tiered run or batch; all monotonic totals.
    size_t functionsPromoted = 0;  ///< hot functions published native
    size_t blocksLinked = 0;       ///< publishes that patched >=1 slot
    size_t slotsPatched = 0;       ///< rel32 retargets, both directions
    size_t blocksInvalidated = 0;  ///< published blocks unlinked
    double tierUpLatencySeconds = 0.0; ///< request-to-publish, summed

    // The native lowering's register homes
    // (codegen/native/native_compiler.cpp).  Compile-side totals come
    // from the promoted NativeCode blocks; deoptsTaken (budget
    // exhaustion) is a runtime count.  Both are filled by
    // TieredEngine::addTieringCounters.
    size_t spillsEmitted = 0;     ///< ranked values left slot-resident
    size_t deoptsTaken = 0;       ///< side-exits into the interpreter

    // Trap-adaptive lowering (DESIGN.md section 17), filled by
    // TieredEngine::addTieringCounters: guard-page faults the SIGSEGV
    // handler resolved in compiled code since the engine's last
    // reset(), and implicit-check sites the TierController made
    // explicit after their first trap (monotonic).
    size_t hardwareTraps = 0;
    size_t sitesExplicitized = 0;

    // Serving-tier memory + persistence governance.  The first three
    // are monotonic event counts (summed on merge); the last two are
    // gauges — "how much is live/mapped right now" — merged with max,
    // since adding two snapshots of the same mapping would double
    // count it.
    size_t persistentHits = 0;   ///< jobs served from the on-disk cache
    size_t persistentMisses = 0; ///< jobs that missed the on-disk cache
    size_t blocksEvicted = 0;    ///< registry blocks evicted over budget
    uint64_t bytesMapped = 0;    ///< persistent-cache mapping bytes
    uint64_t codeBytesLive = 0;  ///< W^X pool bytes (loaned + pooled)

    size_t
    total() const
    {
        return cacheHits + functionsCompiled;
    }

    /** Hits / (hits + misses); 0 when nothing ran. */
    double hitRate() const;

    ServiceCounters &operator+=(const ServiceCounters &other);
};

} // namespace trapjit

#endif // TRAPJIT_JIT_STATS_H_
