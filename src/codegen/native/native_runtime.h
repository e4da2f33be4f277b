#ifndef TRAPJIT_CODEGEN_NATIVE_NATIVE_RUNTIME_H_
#define TRAPJIT_CODEGEN_NATIVE_NATIVE_RUNTIME_H_

/**
 * @file
 * Runtime support for the native x86-64 tier: the context block JIT
 * code addresses directly, the SIGSEGV handler that resolves
 * guard-page faults in place, and the out-of-line helpers compiled
 * code calls for the operations that stay in C++ (allocation, calls,
 * trace recording, libm, deoptimization).
 *
 * Protocol between JIT code and the helpers:
 *
 *  - every helper takes (NativeContext*, recordIndex) and returns a
 *    status: 0 = continue with the next record, 1 = the frame must
 *    unwind — a Java-level exception is pending in the context, or
 *    ctx->hardFault is set (the HardFault message is parked in the
 *    engine).  The status stubs test hardFault to pick the unwind
 *    exit over exception dispatch.
 *  - helpers NEVER throw C++ exceptions: JIT frames carry no unwind
 *    tables, so a throw crossing them would terminate the process.
 *    HardFaults are parked in the engine and rethrown at the top of
 *    TieredEngine::run.
 *
 * Trap recovery: there is no per-frame setup at all.  The SIGSEGV
 * handler looks the faulting PC up in the registry's pc-map, applies
 * the interpreters' null-access decision table against the site's
 * record, and rewrites RIP — to the next record, a catch handler, the
 * block's unwind exit, or (optimized-backend sites) the block's deopt
 * exit.  Faults that don't match a trap site, or whose reference slot
 * is not actually null, become a HardFault instead of corrupting
 * state.  The handler runs on a per-thread alternate stack
 * (runtime/signal_stack.h) and chains to the previously installed
 * handler for faults outside any published block.
 */

#include <atomic>
#include <cstdint>
#include <vector>

#include "interp/decoded_program.h"
#include "ir/function.h"

namespace trapjit
{

class TieredEngine;
struct NativeCode;

/**
 * The block JIT code addresses through r12.  The first 88 bytes are
 * the hot fields with hard-coded displacements (static_asserts below);
 * everything after is only touched from C++.
 */
struct NativeContext
{
    /** maxInstructions minus instructions retired; faults below zero. */
    int64_t budgetRemaining = 0;
    /** Return-value bits, written by compiled Return. */
    uint64_t retBits = 0;
    /** Pending exception (ExcKind as int32; 0 = none) + its site. */
    int32_t pendingKind = 0;
    uint32_t pendingSite = 0;
    /** Message parked in the engine; tiered status stubs test this. */
    uint32_t hardFault = 0;
    uint32_t pad_ = 0;
    /** Function owning the currently executing block. */
    const DecodedFunction *activeDf = nullptr;
    /** Slot base (rbx) of the currently executing frame. */
    void *activeSlots = nullptr;
    /** Frame-pool bump pointer / limit. */
    uint8_t *poolTop = nullptr;
    uint8_t *poolEnd = nullptr;
    /** maxCallDepth + 1 minus current depth; faults below zero. */
    int64_t depthRemaining = 0;
    /** Calls retired by compiled call sites since the last sync. */
    uint64_t linkedCalls = 0;
    /**
     * Record index an optimized block's deopt exit hands to
     * trapjitTieredDeopt: where the fast interpreter picks the frame
     * up.  Written by the in-code deopt stubs and by the SIGSEGV
     * handler for traps at optimized sites.
     */
    uint32_t deoptRecord = 0;
    /** Set by the SIGSEGV handler when the deopt is a failed section-
     *  5.4 speculation (a speculated load read through null). */
    uint32_t deoptSpeculated = 0;

    // ---- cold, C++-only fields --------------------------------------
    TieredEngine *tieredEngine = nullptr;
    /** TieredPark reason left by the SIGSEGV handler (0 = none). */
    int32_t parkCode = 0;
    /** Record index of the parked fault inside parkDf. */
    uint32_t parkRec = 0;
    const DecodedFunction *parkDf = nullptr;
};

constexpr uint8_t kNativeCtxBudgetOffset = 0;
constexpr uint8_t kNativeCtxRetOffset = 8;
constexpr uint8_t kNativeCtxPendingKindOffset = 16;
constexpr uint8_t kNativeCtxPendingSiteOffset = 20;
constexpr uint8_t kNativeCtxHardFaultOffset = 24;
constexpr uint8_t kNativeCtxActiveDfOffset = 32;
constexpr uint8_t kNativeCtxActiveSlotsOffset = 40;
constexpr uint8_t kNativeCtxPoolTopOffset = 48;
constexpr uint8_t kNativeCtxPoolEndOffset = 56;
constexpr uint8_t kNativeCtxDepthRemainingOffset = 64;
constexpr uint8_t kNativeCtxLinkedCallsOffset = 72;
constexpr uint8_t kNativeCtxDeoptRecordOffset = 80;

static_assert(offsetof(NativeContext, budgetRemaining) ==
              kNativeCtxBudgetOffset);
static_assert(offsetof(NativeContext, retBits) == kNativeCtxRetOffset);
static_assert(offsetof(NativeContext, pendingKind) ==
              kNativeCtxPendingKindOffset);
static_assert(offsetof(NativeContext, pendingSite) ==
              kNativeCtxPendingSiteOffset);
static_assert(offsetof(NativeContext, hardFault) ==
              kNativeCtxHardFaultOffset);
static_assert(offsetof(NativeContext, activeDf) ==
              kNativeCtxActiveDfOffset);
static_assert(offsetof(NativeContext, activeSlots) ==
              kNativeCtxActiveSlotsOffset);
static_assert(offsetof(NativeContext, poolTop) ==
              kNativeCtxPoolTopOffset);
static_assert(offsetof(NativeContext, poolEnd) ==
              kNativeCtxPoolEndOffset);
static_assert(offsetof(NativeContext, depthRemaining) ==
              kNativeCtxDepthRemainingOffset);
static_assert(offsetof(NativeContext, linkedCalls) ==
              kNativeCtxLinkedCallsOffset);
static_assert(offsetof(NativeContext, deoptRecord) ==
              kNativeCtxDeoptRecordOffset);

// ---- trap recovery ---------------------------------------------------
//
// The handler reaches everything it needs through the faulting
// thread's TieredRun descriptor plus the pinned registers (r12 =
// NativeContext*, rbx = current frame's Slot*, r14 = budget count).

/** One published block's code range (for fault-PC lookup). */
struct TieredBlockRange
{
    uintptr_t lo = 0;
    uintptr_t hi = 0;
    const NativeCode *nc = nullptr;
    const DecodedFunction *df = nullptr;
};

/**
 * Immutable, sorted snapshot of every block ever published.
 * The registry swaps in a fresh snapshot on publish; old snapshots are
 * kept alive forever so the handler's acquire load is always safe.
 */
struct TieredPcMap
{
    std::vector<TieredBlockRange> blocks; ///< sorted by lo, disjoint
    /** Async-signal-safe binary search; null when pc is outside. */
    const TieredBlockRange *find(uintptr_t pc) const;
};

/** Why the SIGSEGV handler hard-unwound a frame. */
enum class TieredPark : int32_t
{
    None = 0,
    Wild = 1,           ///< PC without site, or reference not null
    SpecUnsafe = 2,     ///< speculative access, target forbids it
    NotTrapCovered = 3, ///< exception site outside the trap area
    Unchecked = 4,      ///< null dereference with no check at all
};

/**
 * Thread-scoped fault-resolution descriptor, active while a root call
 * into compiled code runs.  pcMap is a pointer to the registry's atomic map
 * slot — the handler does a fresh acquire load per fault so blocks
 * published mid-run are visible immediately.
 */
struct TieredRun
{
    const std::atomic<const TieredPcMap *> *pcMap = nullptr;
    uint64_t *trapsTaken = nullptr; ///< ExecStats::trapsTaken
    uint64_t *specReads = nullptr;  ///< ExecStats::speculativeReadsOfNull
    uintptr_t guardLo = 0, guardHi = 0;
    TieredRun *prev = nullptr;
};

/** Enter/exit the calling thread's run scope (LIFO). */
void tieredEnterRun(TieredRun *run);
void tieredExitRun(TieredRun *run);

/**
 * Install / remove the process-wide SIGSEGV handler (refcounted; the
 * previous disposition is restored when the last engine uninstalls).
 */
void nativeInstallSegvHandler();
void nativeUninstallSegvHandler();

/**
 * Walk @p df's try-region parent chain from @p region for an handler
 * catching @p kind; returns the handler's stream index or -1.  The
 * shared L_dispatch stub calls this (through trapjitTieredFindHandler)
 * and the SIGSEGV handler calls it directly for trap NPEs.
 */
int32_t nativeFindHandlerIndex(const DecodedFunction &df,
                               TryRegionId region, ExcKind kind);

// ---- helpers called from JIT code (defined in tiered_engine.cpp) ----
// Every helper reaches the executing frame through ctx->activeDf and
// ctx->activeSlots, which the block prologue publishes and every call
// site restores after its callee returns.
extern "C" {
uint32_t trapjitTieredNewObject(NativeContext *ctx, uint32_t rec);
uint32_t trapjitTieredNewArray(NativeContext *ctx, uint32_t rec);
/** FExp / FSin / FCos / FLog / F2I, switched on the record's srcOp. */
uint32_t trapjitTieredMath(NativeContext *ctx, uint32_t rec);
uint32_t trapjitTieredTraceFieldWrite(NativeContext *ctx, uint32_t rec);
uint32_t trapjitTieredTraceArrayWrite(NativeContext *ctx, uint32_t rec);
/** Budget exhausted: parks the HardFault message; always returns 1. */
uint32_t trapjitTieredBudgetFault(NativeContext *ctx, uint32_t rec);
uint32_t trapjitTieredDepthFault(NativeContext *ctx, uint32_t rec);
uint32_t trapjitTieredPoolFault(NativeContext *ctx, uint32_t rec);
/**
 * Unlinked-call trampoline target: resolves the callee and either
 * enters its published block directly or interprets it.  Arguments
 * were staged by the call site at ctx->poolTop.
 */
uint32_t trapjitTieredSlowCall(NativeContext *ctx, uint32_t rec);
/**
 * An optimized block's deopt exit: finishes the executing frame on
 * the fast interpreter from ctx->deoptRecord, working in place on the
 * frame's pool slot file (canonical at every record boundary).
 * @p pending = 0 re-executes that record; 1 dispatches the exception
 * pending in the context from its try region instead (the helper or
 * callee that raised it already retired the record).  Returns the
 * frame's own status: 0 = returned (value in ctx->retBits), 1 =
 * unwound.
 */
uint32_t trapjitTieredDeopt(NativeContext *ctx, uint32_t pending);
/** Handler index for the pending exception in ctx->activeDf, or -1
 *  (clears the pending exception when a handler catches it). */
int32_t trapjitTieredFindHandler(NativeContext *ctx, uint32_t tryRegion);
}

} // namespace trapjit

#endif // TRAPJIT_CODEGEN_NATIVE_NATIVE_RUNTIME_H_
