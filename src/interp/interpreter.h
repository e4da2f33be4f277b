#ifndef TRAPJIT_INTERP_INTERPRETER_H_
#define TRAPJIT_INTERP_INTERPRETER_H_

/**
 * @file
 * IR interpreter with the target's trap semantics and cycle accounting.
 *
 * The interpreter is the "hardware" of the reproduction.  It executes a
 * Module under a Target whose trap model decides what happens when an
 * instruction touches memory through a null reference:
 *
 *  - instruction marked as an implicit-check exception site and the
 *    access is trap-covered           -> NullPointerException (trap taken)
 *  - read marked speculative on a target where null-page reads are safe
 *                                     -> silently yields zero
 *  - read marked as exception site on a target that does NOT trap reads
 *    (the Illegal Implicit experiment) -> silently yields zero, i.e. the
 *    Java specification is violated exactly as Section 5.4 warns
 *  - anything else                     -> HardFault: the optimizer emitted
 *    a wild access; the test suite treats this as a miscompilation
 *
 * Execution also accumulates the cycle costs of the cost model, which is
 * what the benchmark harnesses report as performance.  This is the only
 * engine that does: the fast, native and tiered engines count no
 * cycles, so every cycle table runs here (runWorkload).
 */

#include <cstdint>
#include <vector>

#include "arch/target.h"
#include "interp/event_trace.h"
#include "ir/module.h"
#include "runtime/exceptions.h"
#include "runtime/heap.h"

namespace trapjit
{

/** An untyped register slot; the static type picks the field. */
struct RuntimeValue
{
    int64_t i = 0;
    double f = 0.0;
    Address ref = 0;

    static RuntimeValue
    ofInt(int64_t v)
    {
        RuntimeValue rv;
        rv.i = v;
        return rv;
    }

    static RuntimeValue
    ofFloat(double v)
    {
        RuntimeValue rv;
        rv.f = v;
        return rv;
    }

    static RuntimeValue
    ofRef(Address v)
    {
        RuntimeValue rv;
        rv.ref = v;
        return rv;
    }
};

/** Execution statistics (dynamic counts). */
struct ExecStats
{
    uint64_t instructions = 0;
    uint64_t explicitNullChecks = 0;
    uint64_t implicitNullChecks = 0;
    uint64_t boundChecks = 0;
    uint64_t heapReads = 0;
    uint64_t heapWrites = 0;
    uint64_t calls = 0;
    uint64_t allocations = 0;
    uint64_t trapsTaken = 0;
    uint64_t speculativeReadsOfNull = 0;

    // Engine-side counters, filled by the fast interpreter only (the
    // reference interpreter leaves them zero; they are excluded from
    // the cross-engine differential comparison).
    uint64_t dispatches = 0;         ///< handler entries (fused pair = 1)
    uint64_t fusedPairsExecuted = 0; ///< superinstruction executions
    uint64_t functionsDecoded = 0;   ///< decode-cache misses this run
    double decodeSeconds = 0.0;      ///< host time spent decoding
};

/** Result of a top-level execution. */
struct ExecResult
{
    enum class Outcome : uint8_t { Returned, Threw };

    Outcome outcome = Outcome::Returned;
    RuntimeValue value;       ///< return value when Returned
    ExcKind exception = ExcKind::None;
    ExecStats stats;
};

/** Interpreter options. */
struct InterpOptions
{
    uint64_t maxInstructions = 200'000'000;
    size_t maxCallDepth = 256;
    size_t heapBytes = 32u << 20;
    bool recordTrace = true;
};

/** The interpreter; one instance per execution environment. */
class Interpreter
{
  public:
    /**
     * @param mod     the compiled module to execute
     * @param target  the *honest* runtime trap/cost model (for the
     *                Illegal Implicit experiment, compile against the
     *                lying target but execute on the honest one)
     */
    Interpreter(const Module &mod, const Target &target,
                InterpOptions options = {});

    /** Execute @p func with @p args; resets nothing between calls. */
    ExecResult run(FunctionId func, const std::vector<RuntimeValue> &args);

    Heap &heap() { return heap_; }
    EventTrace &trace() { return trace_; }
    const ExecStats &stats() const { return stats_; }

    /**
     * Simulated cycles charged since construction or the last reset():
     * the cost model of interp/cost_model.h plus trap dispatch, throw
     * and per-byte allocation charges, summed in execution order.
     */
    double cycles() const { return cycles_; }

    /** Clear heap, trace, statistics and cycles for a fresh run. */
    void reset();

  private:
    struct FrameResult
    {
        RuntimeValue value;
        ThrownExc exc;
    };

    FrameResult execFunction(const Function &func,
                             std::vector<RuntimeValue> args, size_t depth);

    /**
     * Handle an access through a null reference per the target's trap
     * model; returns the substituted read value when execution continues
     * (speculation / illegal-implicit silent read), otherwise records the
     * NPE in @p exc or throws HardFault.
     */
    RuntimeValue handleNullAccess(const Instruction &inst, ThrownExc &exc);

    const Module &mod_;
    const Target &target_;
    InterpOptions options_;
    Heap heap_;
    EventTrace trace_;
    ExecStats stats_;
    double cycles_ = 0.0;
};

} // namespace trapjit

#endif // TRAPJIT_INTERP_INTERPRETER_H_
