#ifndef TRAPJIT_RUNTIME_HEAP_H_
#define TRAPJIT_RUNTIME_HEAP_H_

/**
 * @file
 * Simulated Java heap backed by a real guard page.
 *
 * References are plain 64-bit addresses into an mmap'd arena; the null
 * reference is address 0.  The arena is one contiguous mapping whose
 * first `kHeapBase` bytes are PROT_NONE, so simulated address A lives at
 * host address hostBase() + A and an access through a null reference —
 * any offset below kHeapBase — lands on protected memory and raises a
 * real SIGSEGV.  The interpreters never touch that region (they check
 * for null first and consult the Target's trap model), but the native
 * x86-64 tier (codegen/native/) relies on the hardware fault exactly
 * the way the paper's JIT does: an implicit null check emits zero
 * instructions and the faulting load/store is caught by the signal
 * handler in codegen/native/native_runtime.cpp.
 *
 * Object layout (see ir/layout.h): 4-byte class-id header at offset 0;
 * arrays keep their length at offset 4 and elements from offset 8;
 * object fields start at offset 8.
 */

#include <cstdint>
#include <cstring>

#include "ir/layout.h"
#include "ir/type.h"
#include "ir/value.h"

namespace trapjit
{

/** Runtime address (a simulated reference). */
using Address = uint64_t;

/** First allocatable address: above any legal field offset from null. */
constexpr Address kHeapBase = 0x100000; // 1 MiB > kMaxFieldOffset

/** Bump-pointer arena with typed accessors. */
class Heap
{
  public:
    /** @param capacity_bytes arena size available for allocation. */
    explicit Heap(size_t capacity_bytes = 32u << 20);
    ~Heap();

    Heap(const Heap &) = delete;
    Heap &operator=(const Heap &) = delete;

    /**
     * Allocate @p size zeroed bytes tagged with @p cls in the header.
     * Returns 0 (null) when the arena is exhausted — the caller turns
     * that into an OutOfMemoryError.
     */
    Address allocateObject(ClassId cls, int64_t size);

    /**
     * Allocate an array of @p length elements of @p elem_type; writes the
     * length word.  Returns 0 when exhausted.  @p length must be >= 0.
     */
    Address allocateArray(Type elem_type, int32_t length);

    /** Bytes currently allocated (excludes the guarded low region). */
    size_t bytesAllocated() const { return next_ - kHeapBase; }

    /** True if [addr, addr+size) is inside the allocated arena. */
    bool
    inBounds(Address addr, int64_t size) const
    {
        return addr >= kHeapBase && addr + size <= next_;
    }

    /**
     * Host address of simulated address 0: host = hostBase() + simulated.
     * The native tier keeps this bias in a register; [hostBase(),
     * hostBase()+kHeapBase) is the PROT_NONE guard region whose faults
     * the SIGSEGV handler converts into NullPointerExceptions.
     */
    uint8_t *hostBase() const { return base_; }

    /** Host range of the guard region (fault-address classification). */
    uintptr_t guardLo() const { return reinterpret_cast<uintptr_t>(base_); }
    uintptr_t
    guardHi() const
    {
        return reinterpret_cast<uintptr_t>(base_) + kHeapBase;
    }

    // Typed accessors; addresses must be in bounds (callers check).
    // Inline: these sit on the hottest path of both interpreter engines.
    int32_t
    readI32(Address addr) const
    {
        int32_t v;
        std::memcpy(&v, plot(addr), sizeof(v));
        return v;
    }

    int64_t
    readI64(Address addr) const
    {
        int64_t v;
        std::memcpy(&v, plot(addr), sizeof(v));
        return v;
    }

    double
    readF64(Address addr) const
    {
        double v;
        std::memcpy(&v, plot(addr), sizeof(v));
        return v;
    }

    Address
    readRef(Address addr) const
    {
        Address v;
        std::memcpy(&v, plot(addr), sizeof(v));
        return v;
    }

    void
    writeI32(Address addr, int32_t value)
    {
        std::memcpy(plot(addr), &value, sizeof(value));
    }

    void
    writeI64(Address addr, int64_t value)
    {
        std::memcpy(plot(addr), &value, sizeof(value));
    }

    void
    writeF64(Address addr, double value)
    {
        std::memcpy(plot(addr), &value, sizeof(value));
    }

    void
    writeRef(Address addr, Address value)
    {
        std::memcpy(plot(addr), &value, sizeof(value));
    }

    /** Class id stored in the header of the object at @p ref. */
    ClassId
    classOf(Address ref) const
    {
        return static_cast<ClassId>(readI32(ref + kHeaderOffset));
    }

    /** Length word of the array at @p ref. */
    int32_t
    arrayLength(Address ref) const
    {
        return static_cast<int32_t>(readI32(ref + kArrayLengthOffset));
    }

    /** Digest of the allocated region (hashBytes folded to 64 bits),
     *  comparable within one process (for equivalence tests). */
    uint64_t digest() const;

    /**
     * First 8-byte word at which this heap's allocated region differs
     * from @p other's — the actionable half of a digest mismatch.  A
     * size difference with bit-identical common prefix reports the
     * first address past the shorter arena.
     */
    struct Difference
    {
        bool differs = false;
        Address address = 0; ///< simulated address of the word
        uint64_t lhsWord = 0;
        uint64_t rhsWord = 0;
        bool sizeOnly = false; ///< arenas differ only in extent
    };
    Difference firstDifference(const Heap &other) const;

    /** Release everything (arena is reused). */
    void reset();

  private:
    uint8_t *plot(Address addr) { return base_ + addr; }
    const uint8_t *plot(Address addr) const { return base_ + addr; }

    uint8_t *base_ = nullptr; ///< host address of simulated address 0
    size_t mapBytes_ = 0;     ///< total mapping size (guard + arena)
    Address next_ = kHeapBase;
    Address limit_;
};

} // namespace trapjit

#endif // TRAPJIT_RUNTIME_HEAP_H_
