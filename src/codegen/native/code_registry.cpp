#include "codegen/native/code_registry.h"

#include <algorithm>
#include <limits>

#include "codegen/native/code_buffer_pool.h"
#include "support/diagnostics.h"

namespace trapjit
{

CodeRegistry::CodeRegistry(size_t numFunctions)
    : published_(numFunctions), states_(numFunctions),
      publishEpoch_(numFunctions, 0)
{
    for (size_t i = 0; i < numFunctions; ++i) {
        published_[i].store(nullptr, std::memory_order_relaxed);
        states_[i].store(static_cast<uint32_t>(TierState::Cold),
                         std::memory_order_relaxed);
    }
    codeBudget_.store(codeBudgetFromEnv(), std::memory_order_relaxed);
}

void
CodeRegistry::setCodeBudget(uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    codeBudget_.store(bytes, std::memory_order_relaxed);
    // A budget below the current total takes effect at the next
    // publish (eviction needs a just-published anchor to protect).
}

bool
CodeRegistry::tryBeginPromotion(FunctionId fn)
{
    uint32_t expected = static_cast<uint32_t>(TierState::Cold);
    return states_[fn].compare_exchange_strong(
        expected, static_cast<uint32_t>(TierState::Requested),
        std::memory_order_acq_rel, std::memory_order_acquire);
}

void
CodeRegistry::patchSlot(const NativeCode &block,
                        const NativeCallSlot &slot,
                        const NativeCode *callee)
{
    if (!block.buffer.patchable())
        return; // RWX refused at finalize: the block runs stub-only
    uint8_t *base = block.buffer.base();
    TRAPJIT_ASSERT(slot.rel32Offset % 4 == 0,
                   "call slot displacement is not 4-byte aligned");
    int32_t rel;
    if (callee != nullptr) {
        intptr_t delta =
            reinterpret_cast<intptr_t>(callee->buffer.base()) -
            reinterpret_cast<intptr_t>(base + slot.rel32Offset + 4);
        if (delta < std::numeric_limits<int32_t>::min() ||
            delta > std::numeric_limits<int32_t>::max())
            return; // out of rel32 range: stay on the slow stub
        rel = static_cast<int32_t>(delta);
    } else {
        rel = static_cast<int32_t>(slot.stubOffset) -
              static_cast<int32_t>(slot.rel32Offset + 4);
    }
    // Both targets are valid at every instant, so an executing thread
    // may observe either displacement; the store only needs to be
    // indivisible, which the 4-byte alignment guarantees on x86-64.
    __atomic_store_n(
        reinterpret_cast<int32_t *>(base + slot.rel32Offset), rel,
        __ATOMIC_RELEASE);
    slotsPatched_.fetch_add(1, std::memory_order_relaxed);
}

void
CodeRegistry::publish(FunctionId fn,
                      std::shared_ptr<const NativeCode> code,
                      std::shared_ptr<const DecodedFunction> df,
                      bool linkBlocks)
{
    TRAPJIT_ASSERT(code != nullptr, "publishing a null block");
    TRAPJIT_ASSERT(state(fn) == TierState::Requested,
                   "publish without a matching promotion request");
    const NativeCode *nc = code.get();
    std::lock_guard<std::mutex> lock(mutex_);

    // 1. Make the block's faults resolvable before anything can enter
    //    it: swap in a fresh pc-map snapshot containing its range.
    auto map = std::make_unique<TieredPcMap>();
    const TieredPcMap *old = pcMap_.load(std::memory_order_relaxed);
    if (old != nullptr)
        map->blocks = old->blocks;
    uintptr_t lo = reinterpret_cast<uintptr_t>(nc->buffer.base());
    map->blocks.push_back(
        TieredBlockRange{lo, lo + nc->codeSize, nc, df.get()});
    std::sort(map->blocks.begin(), map->blocks.end(),
              [](const TieredBlockRange &a, const TieredBlockRange &b) {
                  return a.lo < b.lo;
              });
    pcMap_.store(map.get(), std::memory_order_release);
    pcMapHistory_.push_back(std::move(map));

    // 2. Register the block's outbound static slots and link the ones
    //    whose callee is already published.
    bool linkedAny = false;
    for (uint32_t s = 0; s < nc->callSlots.size(); ++s) {
        const NativeCallSlot &slot = nc->callSlots[s];
        if (slot.callee == kNoFunction)
            continue;
        linkSites_[slot.callee].push_back(SlotRef{nc, s});
        if (!linkBlocks)
            continue;
        const NativeCode *callee =
            published_[slot.callee].load(std::memory_order_relaxed);
        if (callee != nullptr) {
            patchSlot(*nc, slot, callee);
            linkedAny = true;
        }
    }

    // 3. Callers may enter the block from this store on.
    published_[fn].store(nc, std::memory_order_release);
    states_[fn].store(static_cast<uint32_t>(TierState::Published),
                      std::memory_order_release);
    keepalive_.emplace_back(std::move(code), std::move(df));

    // 4. Link inbound slots from every block ever published (including
    //    invalidated ones: their code may still be on some stack).
    if (linkBlocks) {
        auto it = linkSites_.find(fn);
        if (it != linkSites_.end()) {
            for (const SlotRef &ref : it->second) {
                patchSlot(*ref.block,
                          ref.block->callSlots[ref.slotIndex], nc);
                linkedAny = true;
            }
        }
    }
    if (linkedAny)
        blocksLinked_.fetch_add(1, std::memory_order_relaxed);

    // 5. Memory governance: account the new block and, if the budget
    //    is now exceeded, retire the oldest published blocks.
    publishedBytes_.fetch_add(nc->codeSize, std::memory_order_relaxed);
    lruOrder_.emplace_back(fn, ++publishEpoch_[fn]);
    evictOverBudgetLocked(fn);
}

void
CodeRegistry::evictOverBudgetLocked(FunctionId justPublished)
{
    uint64_t budget = codeBudget_.load(std::memory_order_relaxed);
    if (budget == 0)
        return;
    while (publishedBytes_.load(std::memory_order_relaxed) > budget &&
           !lruOrder_.empty()) {
        auto [fn, epoch] = lruOrder_.front();
        if (fn == justPublished)
            break; // never evict the block we are publishing
        lruOrder_.pop_front();
        // Stale row: the function re-published since (a newer row
        // exists further back) or is no longer published at all.
        if (epoch != publishEpoch_[fn] ||
            static_cast<TierState>(states_[fn].load(
                std::memory_order_relaxed)) != TierState::Published)
            continue;
        invalidateLocked(fn);
        blocksEvicted_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
CodeRegistry::markUnsupported(FunctionId fn)
{
    states_[fn].store(static_cast<uint32_t>(TierState::Unsupported),
                      std::memory_order_release);
}

void
CodeRegistry::invalidate(FunctionId fn, const NativeCode *block)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (block != nullptr &&
        published_[fn].load(std::memory_order_relaxed) != block)
        return;
    invalidateLocked(fn);
}

void
CodeRegistry::invalidateLocked(FunctionId fn)
{
    if (static_cast<TierState>(states_[fn].load(
            std::memory_order_relaxed)) != TierState::Published)
        return;
    // Unlink inbound sites first: once the published pointer clears,
    // the slow-call helper would interpret the callee, and a stale
    // direct link must not race past that decision.
    auto it = linkSites_.find(fn);
    if (it != linkSites_.end())
        for (const SlotRef &ref : it->second)
            patchSlot(*ref.block, ref.block->callSlots[ref.slotIndex],
                      nullptr);
    const NativeCode *nc =
        published_[fn].load(std::memory_order_relaxed);
    if (nc != nullptr)
        publishedBytes_.fetch_sub(nc->codeSize,
                                  std::memory_order_relaxed);
    published_[fn].store(nullptr, std::memory_order_release);
    states_[fn].store(static_cast<uint32_t>(TierState::Cold),
                      std::memory_order_release);
    blocksInvalidated_.fetch_add(1, std::memory_order_relaxed);
}

} // namespace trapjit
