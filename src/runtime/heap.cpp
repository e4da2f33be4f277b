#include "runtime/heap.h"

#include <cstring>
#include <string_view>

#include <sys/mman.h>

#include "support/diagnostics.h"
#include "support/hash.h"

namespace trapjit
{

Heap::Heap(size_t capacity_bytes)
    : mapBytes_(static_cast<size_t>(kHeapBase) + capacity_bytes),
      limit_(kHeapBase + capacity_bytes)
{
    // One mapping: [0, kHeapBase) is the PROT_NONE guard region standing
    // in for the OS's protected page-zero area, the rest is the arena.
    // MAP_NORESERVE keeps a fleet of test heaps cheap — pages commit on
    // first touch.
    void *map = mmap(nullptr, mapBytes_, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (map == MAP_FAILED)
        TRAPJIT_FATAL("mmap of the heap arena failed");
    base_ = static_cast<uint8_t *>(map);
    if (mprotect(base_ + kHeapBase, capacity_bytes,
                 PROT_READ | PROT_WRITE) != 0)
        TRAPJIT_FATAL("mprotect of the heap arena failed");
}

Heap::~Heap()
{
    if (base_ != nullptr)
        munmap(base_, mapBytes_);
}

// Allocation hands out pre-zeroed memory without touching it: bytes
// above next_ are always zero — fresh anonymous pages are zero-fill on
// first touch, every store lands inside an already-allocated block
// (below next_), and reset() re-wipes [kHeapBase, next_) before the
// bump pointer rewinds.  That keeps allocation O(1) regardless of
// object size (jumbo-field profiles allocate ~512 KB nodes) and moves
// all zeroing cost into reset(), off the execution path, where callers
// recycling a heap between runs can amortize or exclude it.

Address
Heap::allocateObject(ClassId cls, int64_t size)
{
    TRAPJIT_ASSERT(size >= kFieldBaseOffset, "undersized allocation");
    int64_t rounded = (size + 7) & ~int64_t(7);
    if (next_ + rounded > limit_)
        return 0;
    Address ref = next_;
    next_ += rounded;
    writeI32(ref + kHeaderOffset, static_cast<int32_t>(cls));
    return ref;
}

Address
Heap::allocateArray(Type elem_type, int32_t length)
{
    TRAPJIT_ASSERT(length >= 0, "negative array length reached the heap");
    int64_t size =
        kArrayDataOffset + int64_t(length) * typeSize(elem_type);
    int64_t rounded = (size + 7) & ~int64_t(7);
    if (next_ + rounded > limit_)
        return 0;
    Address ref = next_;
    next_ += rounded;
    writeI32(ref + kArrayLengthOffset, length);
    return ref;
}

uint64_t
Heap::digest() const
{
    const Hash128 hash = hashBytes(std::string_view(
        reinterpret_cast<const char *>(base_ + kHeapBase),
        static_cast<size_t>(next_ - kHeapBase)));
    return hash.hi ^ hash.lo;
}

Heap::Difference
Heap::firstDifference(const Heap &other) const
{
    Difference diff;
    const size_t mine = static_cast<size_t>(next_ - kHeapBase);
    const size_t theirs = static_cast<size_t>(other.next_ - kHeapBase);
    const size_t common = mine < theirs ? mine : theirs;
    const uint8_t *a = base_ + kHeapBase;
    const uint8_t *b = other.base_ + kHeapBase;
    for (size_t i = 0; i < common; i += 8) {
        const size_t span = common - i < 8 ? common - i : 8;
        uint64_t wa = 0, wb = 0;
        std::memcpy(&wa, a + i, span);
        std::memcpy(&wb, b + i, span);
        if (wa != wb) {
            diff.differs = true;
            diff.address = kHeapBase + i;
            diff.lhsWord = wa;
            diff.rhsWord = wb;
            return diff;
        }
    }
    if (mine != theirs) {
        diff.differs = true;
        diff.sizeOnly = true;
        diff.address = kHeapBase + common;
    }
    return diff;
}

void
Heap::reset()
{
    size_t used = static_cast<size_t>(next_ - kHeapBase);
    std::memset(base_ + kHeapBase, 0, used);
    next_ = kHeapBase;
}

} // namespace trapjit
