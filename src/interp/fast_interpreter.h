#ifndef TRAPJIT_INTERP_FAST_INTERPRETER_H_
#define TRAPJIT_INTERP_FAST_INTERPRETER_H_

/**
 * @file
 * Pre-decoded, direct-threaded IR interpreter.
 *
 * Executes the DecodedFunction form (interp/decoded_program.h) with
 * computed-goto dispatch.  Semantics — heap contents, exception
 * behavior including the per-target trap model, the observable event
 * trace, and every semantic ExecStats counter — are identical to the
 * reference interpreter (interp/interpreter.h), which is kept as the
 * executable specification; tests/test_interp_differential.cpp
 * enforces the contract over random programs and the 17 suite
 * programs under every config arm.  Cycles are not counted here: the
 * cost model lives in the reference interpreter alone
 * (Interpreter::cycles()).
 *
 * The register file is a packed array of 8-byte union slots rather than
 * the reference engine's three-field RuntimeValue: every IR value has
 * one static type, so one 64-bit lane per register is enough, and Move
 * copies a single machine word.
 *
 * Decoded programs are immutable and shareable; pass a
 * DecodedProgramCache (e.g. CompileService::decodedCache()) to reuse
 * decodes across interpreter instances — the bench path then decodes
 * each (function, target) pair exactly once.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "arch/target.h"
#include "interp/decoded_program.h"
#include "interp/event_trace.h"
#include "interp/interpreter.h"
#include "ir/module.h"
#include "runtime/exceptions.h"
#include "runtime/heap.h"

namespace trapjit
{

/**
 * The fast engine; mirrors the Interpreter surface so call sites can
 * switch between the two with a branch.
 */
class FastInterpreter
{
  public:
    /**
     * @param mod     the compiled module to execute
     * @param target  the honest runtime trap model
     * @param cache   optional shared decode cache; when null, decodes
     *                are private to this interpreter (still memoized
     *                per function)
     */
    FastInterpreter(const Module &mod, const Target &target,
                    InterpOptions options = {},
                    std::shared_ptr<DecodedProgramCache> cache = nullptr,
                    DecodeOptions decode_options = {});

    /** Execute @p func with @p args; resets nothing between calls. */
    ExecResult run(FunctionId func, const std::vector<RuntimeValue> &args);

    Heap &heap() { return heap_; }
    EventTrace &trace() { return trace_; }
    const ExecStats &stats() const { return stats_; }

    /** Clear heap, trace and statistics (decoded programs are kept). */
    void reset();

    class TierHooks; ///< tiering call-outs (see below)

  private:
    // The tiered engine embeds a FastInterpreter as its per-function
    // fallback and deopt engine and drives execFrame / resumeFrame
    // directly, so mixed native / interpreted call stacks share one
    // heap, trace and stats block.  It also enables the hotness
    // profiling and call-interception hooks declared at the bottom of
    // this class.
    friend class TieredEngine;

    /**
     * One 64-bit register slot.  All lanes alias the same machine word;
     * the static type of the IR value picks which one is read.
     */
    struct Slot
    {
        union {
            int64_t i;
            double f;
            Address ref;
            uint64_t bits;
        };

        Slot() : bits(0) {}
    };

    struct FrameResult
    {
        Slot value;
        ThrownExc exc;
    };

    /** Decoded form of @p id, decoding (through the cache) on demand. */
    const DecodedFunction &decoded(FunctionId id);

    FrameResult execFrame(const DecodedFunction &df, std::vector<Slot> args,
                          size_t depth);

    /**
     * Re-enter a frame at an arbitrary record with an already-built
     * register file: the native tier's deopt path, running in place on
     * the native frame's pool slot file.  The slot file is canonical
     * wherever a block deopts (write-through register homes), so
     * @p regs (df.numValues slots, owned by the caller) is the complete
     * frame state; execution resumes by re-executing @p startRecord.
     * No depth or argument checks — the frame already passed them when
     * it first entered.
     */
    FrameResult resumeFrame(const DecodedFunction &df, Slot *regs,
                            size_t depth, uint32_t startRecord);

    /** Shared engine of execFrame and resumeFrame. */
    FrameResult execFrameAt(const DecodedFunction &df, Slot *r,
                            size_t depth, uint32_t startRecord);

    /** Decoded-form twin of Interpreter::handleNullAccess. */
    Slot handleNullAccess(const DecodedInst &d, ThrownExc &exc);

    const Module &mod_;
    const Target &target_;
    InterpOptions options_;
    DecodeOptions decodeOptions_;
    std::shared_ptr<DecodedProgramCache> cache_;
    /** targetDigest(target_), taken on the first cache lookup. */
    std::optional<Hash128> targetDigest_;
    std::vector<std::shared_ptr<const DecodedFunction>> decoded_;
    Heap heap_;
    EventTrace trace_;
    ExecStats stats_;

    // ---- profile-guided tiering (all null/zero = disabled) ----------
    // Set directly by the owning TieredEngine (a friend): tierHot_ is
    // its per-function hotness array, bumped on every taken back-edge;
    // reaching tierThreshold_ fires tierPromote exactly once per
    // tier-up (the counter keeps rising past the threshold, so the
    // equality cannot refire until invalidation resets the slot).
    TierHooks *tierHooks_ = nullptr;
    uint32_t *tierHot_ = nullptr;
    uint32_t tierThreshold_ = 0;
};

/**
 * Call-outs from the dispatch loop into the tiered engine.  tierInvoke
 * is offered every resolved call (stats_ flushed around it): it either
 * executes the callee natively, filling @p out and consuming @p args,
 * or returns false with @p args untouched and the interpreter runs the
 * callee itself.  tierPromote reports a hotness counter crossing the
 * threshold; the current frame keeps interpreting either way.
 */
class FastInterpreter::TierHooks
{
  public:
    virtual ~TierHooks() = default;
    virtual bool tierInvoke(FunctionId callee, std::vector<Slot> &&args,
                            size_t depth, FrameResult &out) = 0;
    virtual void tierPromote(FunctionId fn) = 0;
};

} // namespace trapjit

#endif // TRAPJIT_INTERP_FAST_INTERPRETER_H_
