#ifndef TRAPJIT_CODEGEN_NATIVE_CODE_REGISTRY_H_
#define TRAPJIT_CODEGEN_NATIVE_CODE_REGISTRY_H_

/**
 * @file
 * The native tier's code-block registry: function id -> published
 * NativeCode block, plus the direct-call link graph between blocks.
 *
 * Lifecycle of one function (TierState):
 *
 *   Cold ──tryBeginPromotion──▶ Requested ──publish──▶ Published
 *     ▲                             │                      │
 *     └──────── invalidate ◀────────┴── markUnsupported ──▶ Unsupported
 *
 * Publishing order matters and is fixed: (1) the block enters the
 * immutable pc-map snapshot (the SIGSEGV handler can resolve its
 * faults from this instant), (2) its *outbound* static call slots are
 * linked to already-published callees, (3) the published pointer is
 * release-stored (callers may now enter it), (4) *inbound* slots of
 * already-published callers are linked to it.  Invalidation reverses
 * only the linking: inbound slots go back to their per-site slow
 * stubs, the published pointer clears, state returns to Cold — but the
 * block itself, its decoded function and its pc-map entry live for the
 * registry's whole lifetime, because a frame of the invalidated block
 * may still be on some thread's stack (graveyard semantics).
 *
 * Patching protocol (DESIGN.md section 14): every patchable rel32
 * field is 4-byte aligned (the compiler NOP-pads call sites), both the
 * stub target and the direct target are valid at every instant, and
 * each retarget is a single aligned 32-bit release store into the RWX
 * buffer.  Readers (executing threads) need no ordering: whichever
 * displacement the fetch observes leads somewhere correct.  Only
 * blocks with a linkable (static-callee) slot are mapped RWX at all;
 * every other block is finalized W^X RX, which is safe because
 * patchSlot only ever writes slots that name a callee.
 */

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "codegen/native/native_compiler.h"
#include "codegen/native/native_runtime.h"
#include "interp/decoded_program.h"

namespace trapjit
{

/** Promotion state of one function (see the diagram above). */
enum class TierState : uint32_t
{
    Cold = 0,
    Requested = 1,
    Published = 2,
    Unsupported = 3,
};

/**
 * Thread-safe registry of published blocks for one module.
 * Shareable between engines (the blocks are engine-independent); the
 * registry must outlive every frame executing one of its blocks.
 */
class CodeRegistry
{
  public:
    explicit CodeRegistry(size_t numFunctions);

    /**
     * Cold -> Requested CAS; true when this caller won the right to
     * compile the function.  Dedups concurrent promotion requests.
     */
    bool tryBeginPromotion(FunctionId fn);

    /**
     * Install @p code (a block compiled from @p df, which it
     * keeps alive) as @p fn's published block and link call slots both
     * ways when @p linkBlocks.  Requires state Requested.
     */
    void publish(FunctionId fn, std::shared_ptr<const NativeCode> code,
                 std::shared_ptr<const DecodedFunction> df,
                 bool linkBlocks);

    /** Requested -> Unsupported (compile failed or audit findings). */
    void markUnsupported(FunctionId fn);

    /**
     * Unlink every inbound call slot (back to the slow stubs), clear
     * the published pointer and return @p fn to Cold so it can re-tier.
     * No-op unless currently Published — and, when @p block is given,
     * unless @p block is the published block (a block that trapped
     * after its replacement was published must not evict it).
     */
    void invalidate(FunctionId fn, const NativeCode *block = nullptr);

    /** Lock-free: the published block, or null.  Never dangles. */
    const NativeCode *
    published(FunctionId fn) const
    {
        return published_[fn].load(std::memory_order_acquire);
    }

    TierState
    state(FunctionId fn) const
    {
        return static_cast<TierState>(
            states_[fn].load(std::memory_order_acquire));
    }

    /**
     * Cap the bytes of *published* (reachable-by-call) code.  When a
     * publish pushes the total past the budget, the registry invalidates
     * the oldest-published blocks (publish-order LRU) through the normal
     * invalidation path until the total fits again — their functions
     * drop back to Cold and may re-tier later.  The blocks themselves
     * stay in the graveyard (frames may still be executing them), so
     * this governs *linkable* code, and their memory returns to the
     * CodeBufferPool when the registry dies.  0 = unlimited.  The
     * constructor seeds this from TRAPJIT_CODE_BUDGET.
     */
    void setCodeBudget(uint64_t bytes);

    /** Bytes of currently published code (the evictor's gauge). */
    uint64_t
    publishedCodeBytes() const
    {
        return publishedBytes_.load(std::memory_order_relaxed);
    }

    /** The atomic pc-map slot TieredRun descriptors point at. */
    const std::atomic<const TieredPcMap *> *
    pcMapSlot() const
    {
        return &pcMap_;
    }

    size_t numFunctions() const { return published_.size(); }

    // ---- tiering counters (monotonic, for ServiceCounters) ----------
    uint64_t slotsPatched() const { return slotsPatched_.load(); }
    uint64_t blocksLinked() const { return blocksLinked_.load(); }
    uint64_t blocksInvalidated() const
    {
        return blocksInvalidated_.load();
    }
    uint64_t blocksEvicted() const { return blocksEvicted_.load(); }

  private:
    struct SlotRef
    {
        const NativeCode *block; ///< the block owning the slot
        uint32_t slotIndex;      ///< index into block->callSlots
    };

    /** Retarget one slot; direct to @p callee, or back to its stub. */
    void patchSlot(const NativeCode &block, const NativeCallSlot &slot,
                   const NativeCode *callee);

    /** invalidate() without taking mutex_ (the evictor holds it). */
    void invalidateLocked(FunctionId fn);

    /** Evict oldest-published blocks until the budget fits;
     *  @p justPublished is never evicted.  Caller holds mutex_. */
    void evictOverBudgetLocked(FunctionId justPublished);

    std::vector<std::atomic<const NativeCode *>> published_;
    std::vector<std::atomic<uint32_t>> states_;

    mutable std::mutex mutex_; ///< serializes publish/invalidate
    /** Blocks + decoded functions, alive for the registry's lifetime. */
    std::vector<std::pair<std::shared_ptr<const NativeCode>,
                          std::shared_ptr<const DecodedFunction>>>
        keepalive_;
    /** Every static call slot targeting a given callee, ever. */
    std::unordered_map<FunctionId, std::vector<SlotRef>> linkSites_;
    /** All pc-map snapshots ever swapped in (handler-safety). */
    std::vector<std::unique_ptr<TieredPcMap>> pcMapHistory_;
    std::atomic<const TieredPcMap *> pcMap_{nullptr};

    std::atomic<uint64_t> slotsPatched_{0};
    std::atomic<uint64_t> blocksLinked_{0};
    std::atomic<uint64_t> blocksInvalidated_{0};
    std::atomic<uint64_t> blocksEvicted_{0};

    // ---- code-budget governance (all mutated under mutex_) ----------
    std::atomic<uint64_t> codeBudget_{0}; ///< 0 = unlimited
    std::atomic<uint64_t> publishedBytes_{0};
    /** Publish order, stale entries skipped via the epoch check. */
    std::deque<std::pair<FunctionId, uint64_t>> lruOrder_;
    /** Bumped every publish of fn; identifies the live lruOrder_ row. */
    std::vector<uint64_t> publishEpoch_;
};

} // namespace trapjit

#endif // TRAPJIT_CODEGEN_NATIVE_CODE_REGISTRY_H_
