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
 * a native block on a background worker, or inline under synchronous
 * promotion, audits
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
 *    resolves a fault in place against the registry's pc-map and
 *    rewrites RIP.  A trap at an implicit null check goes to the
 *    record's NPE exit (trapjitTieredNullPointer), which raises the
 *    exception and dispatches it in code.  Other faults resume with a
 *    zero or unwind as hard faults (reason parked in the context).
 *    Every other exception is dispatched in code too; the deopt exit
 *    into the fast interpreter (trapjitTieredDeopt) serves only budget
 *    exhaustion.
 *  - NPEs are rare per site, not by assumption: the first hardware
 *    trap at an implicit-check site puts that site in its function's
 *    explicit set (kept by the TierController, so engines sharing it
 *    share the set, and reset() keeps it) and invalidates the block.
 *    The next promotion tests that access with test+jz into the same
 *    exit; later NPEs at the site never reach the kernel (DESIGN.md
 *    section 17).
 *
 * Observable semantics (heap, trace, exceptions, instructions, calls,
 * allocations, trapsTaken) are bit-identical to the fast and reference
 * engines — including mid-run promotion, deoptimization, invalidation
 * and re-promotion.  trapsTaken counts NPEs raised at trap-covered
 * implicit checks, whether the guard page or an explicitized test
 * caught the null; the guard-page faults themselves are counted apart
 * (ServiceCounters::hardwareTraps).  Cycles are not modeled in native
 * frames.
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

/** Deleter of a TieredEngine's frame pool mapping: munmap()s it. */
struct FramePoolUnmap
{
    size_t bytes = 0;
    void operator()(uint8_t *pool) const;
};

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
     *                    compile options decide trace recording.
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

    /** Clear heap, trace, stats, hotness and the deopt and hardware-
     *  trap counts; published blocks and explicit sets stay. */
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
     * controller's promotion and compile totals (spillsEmitted and
     * sitesExplicitized among them), the registry's
     * link and eviction counts, and deoptsTaken and hardwareTraps
     * since the last reset().
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
    uint32_t helperDepthFault(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperPoolFault(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperSlowCall(NativeContext &ctx, uint32_t recIdx);
    uint32_t helperDeopt(NativeContext &ctx);
    int32_t helperNullPointer(NativeContext &ctx, uint32_t recIdx);

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
    /** Raise the NPE of trap-covered implicit check @p d (counts
     *  trapsTaken, like the interpreters). */
    void raiseImplicitNpe(NativeContext &ctx, const DecodedInst &d);
    /**
     * When a hardware trap led to the exit being served (the handler
     * left ctx.trapBlock), put the faulting site in its function's
     * explicit set and invalidate the block unless it was already
     * replaced.  Hotness is kept: the function's next call re-requests
     * promotion.
     */
    void explicitizeTrappedSite(NativeContext &ctx);
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
    /**
     * Frame pool: (maxCallDepth + 2) x widest slot file, mapped
     * anonymous, so only the frames a run actually reaches are ever
     * committed (typical call trees touch a few of its pages).
     */
    std::unique_ptr<uint8_t, FramePoolUnmap> pool_;
    /** Per-function hotness (calls + back-edges); fi_.tierHot_. */
    std::vector<uint32_t> hotness_;

    bool hardFaultPending_ = false;
    std::string hardFaultMsg_;
    /** Deopt exits taken since construction / the last reset(). */
    size_t deoptsTaken_ = 0;
    /** Guard-page faults resolved in compiled code, same window. */
    uint64_t hardwareTraps_ = 0;
};

} // namespace trapjit

#endif // TRAPJIT_CODEGEN_NATIVE_TIERED_ENGINE_H_
