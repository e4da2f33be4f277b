#ifndef TRAPJIT_JIT_COMPILE_CACHE_H_
#define TRAPJIT_JIT_COMPILE_CACHE_H_

/**
 * @file
 * Function-level compile cache.
 *
 * The cache maps a content address of a compile job to the serialized
 * IR of its compiled function.  The key must cover *everything* the
 * pipeline reads while compiling a function (see
 * CompileService::jobKey in jit/compile_service.cpp):
 *
 *   - the target fingerprint (arch/target.h),
 *   - the config fingerprint (jit/pipeline.h),
 *   - the class table (devirtualization reads vtables and layouts),
 *   - the serialized pristine function itself and its id (a call
 *     closure does not say which of its members is being compiled),
 *     and
 *   - the serialized bodies of every function the inliner could read
 *     while compiling it (its call closure, widened by all vtable
 *     implementations when the closure contains a virtual call).
 *
 * Key equality therefore implies bit-identical compile output, which is
 * what makes cache hits safe regardless of worker count or scheduling
 * order — the determinism tests in tests/test_compile_service.cpp
 * enforce exactly that.
 *
 * Values are shared immutable strings: lookups hand out
 * shared_ptr<const string> so a hit never copies the IR text and an
 * insert racing a lookup is benign.
 *
 * Concurrency design (reader-mostly): the store is split into 16
 * shards selected by the top key bits.  Each shard is an open-addressed
 * table of atomic slot pointers.  lookup() takes no lock: it
 * acquire-loads the shard's table pointer and probes with acquire
 * loads, stopping at the first empty slot — published entries are
 * immutable, and a slot transitions exactly once, from null to a fully
 * constructed entry (release store), so a reader either sees null (a
 * benign miss for an entry being published concurrently) or the
 * complete entry.  insert() is first-writer-wins under a per-shard
 * spinlock; it re-checks under the lock *before* allocating the shared
 * string so a losing racer never pays the allocation.  Tables grow by
 * retirement: a full table is replaced by a doubled copy and the old
 * one is kept alive for the lifetime of the shard, so concurrent
 * readers holding the old pointer stay valid.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/hash.h"

namespace trapjit
{

/** Monotonic per-cache operation counters (approximate totals; each
 *  counter is individually atomic). */
struct CompileCacheStats
{
    uint64_t hits = 0;        ///< lookup() returned an entry
    uint64_t misses = 0;      ///< lookup() found nothing
    uint64_t inserts = 0;     ///< insert() published a new entry
    uint64_t insertRaces = 0; ///< insert() lost to an earlier writer
};

/** Thread-safe content-addressed store of compiled-function IR. */
class CompileCache
{
  public:
    using Value = std::shared_ptr<const std::string>;

    static constexpr size_t kNumShards = 16;

    CompileCache();
    ~CompileCache();

    CompileCache(const CompileCache &) = delete;
    CompileCache &operator=(const CompileCache &) = delete;

    /** The compiled IR for @p key, or nullptr on a miss.  Lock-free. */
    Value lookup(const Hash128 &key) const;

    /**
     * Publish a compile result.  First writer wins: if @p key is
     * already present the stored value is returned unchanged, so every
     * caller ends up holding the same bytes even when two workers
     * compiled the same key concurrently.  The shared string is only
     * allocated after the presence check, so a losing racer pays no
     * allocation.
     */
    Value insert(const Hash128 &key, std::string compiled_ir);

    /**
     * Publish an already-shared value (e.g. one loaded from the
     * persistent cache).  Same first-writer-wins contract as insert().
     */
    Value insertValue(const Hash128 &key, Value value);

    size_t size() const;

    /**
     * Drop every entry.  Requires quiescence: no concurrent lookup or
     * insert may be in flight (retired tables are freed here).
     */
    void clear();

    /** Snapshot of the operation counters. */
    CompileCacheStats stats() const;

  private:
    struct Entry
    {
        Hash128 key;
        Value value;
    };

    /** One open-addressed table generation.  Slots transition null ->
     *  entry exactly once; growth replaces the whole table. */
    struct Table
    {
        explicit Table(size_t cap);

        size_t capacity;
        size_t mask;
        std::unique_ptr<std::atomic<const Entry *>[]> slots;
    };

    struct Shard;

    static size_t shardIndex(const Hash128 &key)
    {
        return static_cast<size_t>(key.hi >> 60) & (kNumShards - 1);
    }

    /** Probe @p table for @p key with acquire loads. */
    static const Entry *find(const Table &table, const Hash128 &key);

    /** Publish @p entry into the shard, growing if needed.  Caller
     *  holds the shard spinlock. */
    void publishLocked(Shard &shard, const Entry *entry);

    std::unique_ptr<Shard[]> shards_;
};

} // namespace trapjit

#endif // TRAPJIT_JIT_COMPILE_CACHE_H_
