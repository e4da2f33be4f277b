#ifndef TRAPJIT_CODEGEN_NATIVE_TIERED_ENGINE_H_
#define TRAPJIT_CODEGEN_NATIVE_TIERED_ENGINE_H_

/**
 * @file
 * The native tier's one engine: profile-guided mixed-mode execution
 * (TRAPJIT_INTERP=tiered) and, with eagerTieredOptions(), the all-
 * native engine (TRAPJIT_INTERP=native).
 *
 * Every function starts in the fast interpreter, which counts calls
 * and taken back-edges into a per-engine hotness array.  Crossing the
 * threshold hands the function to the TierController, which compiles
 * a native block with the selected backend (baseline or optimized) on
 * a background worker, or inline under synchronous promotion, audits
 * its trap-site tables and publishes it in the shared CodeRegistry.
 * A call whose synchronous promotion publishes the block enters it
 * right away; otherwise later calls do.  At threshold 1 with
 * synchronous promotion every supported function therefore runs as
 * machine code from its first call.
 *
 * Blocks make hot call chains cheap:
 *
 *  - One persistent NativeContext and one engine-owned frame pool are
 *    shared by the whole call tree.  A callee's slot file is carved
 *    from the pool bump pointer; call arguments are staged directly
 *    into what becomes the callee's parameter slots (zero copies).
 *  - Calls between published blocks are patchable rel32 near-calls:
 *    the registry links a site straight at the callee's entry when it
 *    publishes and unlinks it back to the per-site slow stub on
 *    invalidation.  Unlinked or data-driven (virtual/special) calls go
 *    through trapjitTieredSlowCall, which enters published callees
 *    directly or falls back to the interpreter — bumping hotness.
 *  - There is no per-frame setup for traps: the SIGSEGV handler
 *    resolves a null-check trap in place against the registry's
 *    pc-map and rewrites RIP to the resume point, the block's unwind
 *    exit (hard-fault cases, reason parked in the context) or an
 *    optimized block's deopt exit, which finishes the frame on the
 *    fast interpreter (trapjitTieredDeopt).
 *
 * Observable semantics (heap, trace, exceptions, instructions, calls,
 * allocations, traps) are bit-identical to the fast and reference
 * engines — including mid-run promotion, deoptimization, invalidation
 * and re-promotion.  Cycles are not modeled in native frames.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "codegen/native/code_registry.h"
#include "codegen/native/native_compiler.h"
#include "codegen/native/native_runtime.h"
#include "interp/fast_interpreter.h"
#include "jit/stats.h"
#include "jit/tier_controller.h"

namespace trapjit
{

/** Which native lowering promoted functions compile with. */
enum class NativeBackend : uint8_t
{
    /** Resolve from TRAPJIT_NATIVE_BACKEND ("optimized" selects the
     *  optimized backend, anything else — including unset — the
     *  baseline). */
    FromEnv,
    Baseline,  ///< slot-resident lowering (native_compiler.cpp)
    Optimized, ///< regalloc + speculation (optimized_compiler.cpp)
};

/** Tiering-policy knobs (see tieredOptionsFromEnv). */
struct TieredOptions
{
    /** Hotness (calls + back-edges) that triggers promotion. */
    uint32_t threshold = 64;
    /** Compile inside the requesting call (TRAPJIT_TIER_SYNC=1). */
    bool synchronous = false;
    /** Background compile workers (ignored when synchronous). */
    size_t workers = 2;
    /** Patch direct rel32 calls between published blocks. */
    bool linkBlocks = true;
    /** auditNativeTrapSites every block before publishing. */
    bool audit = true;
    /** Backend selection; resolved once in the constructor. */
    NativeBackend backend = NativeBackend::FromEnv;
    /**
     * Section-5.4 load speculation in the optimized backend: -1
     * follows TRAPJIT_SPECULATE (default on, "0" disables), 0 forces
     * it off, 1 forces it on.  Ignored under the baseline backend.
     */
    int speculate = -1;
};

/**
 * TieredOptions from TRAPJIT_TIER_THRESHOLD (positive integer) and
 * TRAPJIT_TIER_SYNC (non-"0" enables synchronous promotion).
 */
TieredOptions tieredOptionsFromEnv();

/**
 * The all-native policy (TRAPJIT_INTERP=native): threshold 1 with
 * synchronous promotion, so every supported function compiles and
 * runs natively from its first call.
 */
TieredOptions eagerTieredOptions();

/**
 * The tiered engine; mirrors the FastInterpreter surface so call
 * sites switch between engines with a branch.  Not thread-safe per
 * instance, but the registry and controller may be shared across
 * engines on different threads.
 */
class TieredEngine final : public FastInterpreter::TierHooks
{
  public:
    /**
     * @param registry    shared published-block registry; created
     *                    privately when null
     * @param controller  shared promotion controller; created privately
     *                    (against @p registry) when null.  When given,
     *                    it must use the same registry, and its own
     *                    compile options decide the backend.
     */
    TieredEngine(const Module &mod, const Target &target,
                 InterpOptions options = {},
                 std::shared_ptr<DecodedProgramCache> decoded_cache = nullptr,
                 DecodeOptions decode_options = {},
                 TieredOptions tiered_options = {},
                 std::shared_ptr<CodeRegistry> registry = nullptr,
                 std::shared_ptr<TierController> controller = nullptr);
    ~TieredEngine() override;

    TieredEngine(const TieredEngine &) = delete;
    TieredEngine &operator=(const TieredEngine &) = delete;

    /** Execute @p func with @p args; resets nothing between calls. */
    ExecResult run(FunctionId func, const std::vector<RuntimeValue> &args);

    Heap &heap() { return fi_.heap_; }
    EventTrace &trace() { return fi_.trace_; }
    const ExecStats &stats() const { return fi_.stats_; }

    /** Clear heap, trace, stats, hotness and the deopt count;
     *  published blocks stay. */
    void reset();

    // ---- tiering control / introspection ----------------------------
    const std::shared_ptr<CodeRegistry> &registry() const
    {
        return registry_;
    }
    const std::shared_ptr<TierController> &controller() const
    {
        return controller_;
    }

    /** Block until every in-flight background promotion settled. */
    void drainPromotions() { controller_->drain(); }

    /** Request promotion of @p fn and wait for it to settle. */
    void promoteNow(FunctionId fn);

    /** Unpublish @p fn (unlinking its inbound call sites) and clear
     *  its hotness so it can re-tier from cold. */
    void invalidate(FunctionId fn);

    /**
     * Fold this engine's tiering counters into @p counters: the
     * controller's promotion and compile totals (including the
     * optimized backend's functionsRegalloc / spillsEmitted /
     * loadsSpeculated / regallocSeconds), the registry's link and
     * eviction counts, and deoptsTaken since the last reset().
     */
    void addTieringCounters(ServiceCounters &counters) const;

    // ---- helpers called from JIT code via the extern "C" trampolines.
    // None of these may throw: they run below frames with no unwind
    // info.  Hard faults are parked in the engine, flagged in the
    // context and reported as status 1.
    uint32_t helperNewObject(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperNewArray(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperMath(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperTraceFieldWrite(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperTraceArrayWrite(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperBudgetFault(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperDepthFault(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperPoolFault(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperSlowCall(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperDeopt(NativeContext &ctx, uint32_t pending);

  private:
    using Slot = FastInterpreter::Slot;
    using FrameResult = FastInterpreter::FrameResult;

    // FastInterpreter::TierHooks
    bool tierInvoke(FunctionId callee, std::vector<Slot> &&args,
                    size_t depth, FrameResult &out) override;
    void tierPromote(FunctionId fn) override;

    /**
     * Published block of @p fn, or null.  A cold function's entry
     * counts toward its hotness first, so a synchronous promotion that
     * publishes here is entered by this same call.
     */
    const NativeCode *blockFor(FunctionId fn);
    /** Route one frame: published block or interpreter fallback. */
    FrameResult callFrame(FunctionId id, std::vector<Slot> args,
                          size_t depth);
    /** Bridge C++ -> tiered code: stage args in the pool, set up the
     *  context and TieredRun scope, enter, convert the result. */
    FrameResult enterTiered(const DecodedFunction &df,
                            const NativeCode &nc, std::vector<Slot> args,
                            size_t depth);
    /** Fold budget + linked-call counts from the context into stats. */
    void syncStatsFromCtx(NativeContext &ctx);
    /** Turn a handler-parked TieredPark code into the engine message. */
    void consumePark(NativeContext &ctx);
    void parkHardFault(std::string msg);
    uint32_t decideNullAccess(NativeContext &ctx, const DecodedInst &d);
    void bumpHotness(FunctionId fn);

    const Module &mod_;
    const Target &target_;
    InterpOptions options_;
    TieredOptions tieredOptions_;
    std::shared_ptr<CodeRegistry> registry_;
    std::shared_ptr<TierController> controller_;
    FastInterpreter fi_;
    bool handlerInstalled_ = false;

    /** Persistent context every tiered frame of this engine shares. */
    NativeContext ctx_;
    /** Frame pool: (maxCallDepth + 2) x widest slot file. */
    std::vector<uint64_t> pool_;
    /** Per-function hotness (calls + back-edges); fi_.tierHot_. */
    std::vector<uint32_t> hotness_;

    bool hardFaultPending_ = false;
    std::string hardFaultMsg_;
    /** Deopt exits taken since construction / the last reset(). */
    size_t deoptsTaken_ = 0;
};

} // namespace trapjit

#endif // TRAPJIT_CODEGEN_NATIVE_TIERED_ENGINE_H_
