#ifndef TRAPJIT_JIT_PERSISTENT_CACHE_H_
#define TRAPJIT_JIT_PERSISTENT_CACHE_H_

/**
 * @file
 * Persistent cross-run compile cache.
 *
 * The in-memory CompileCache amortizes compilation across workers of
 * one process; this tier amortizes it across *processes and runs*.  It
 * is safe for exactly the same reason: the jobKey is a content address
 * covering the target fingerprint, the config fingerprint, the class
 * table, the compiled function's id and its serialized call closure, so
 * key equality implies bit-identical compile output no matter which
 * process produced it.
 *
 * On-disk layout inside the cache directory (see DESIGN.md §16):
 *
 *   segment.tjs   append-only record file.  A 24-byte header
 *                 (magic/version/schema fingerprint) followed by
 *                 entries of [40-byte EntryHeader][payload].  The
 *                 EntryHeader carries the jobKey, the payload size and
 *                 a 128-bit payload checksum, so torn tails and bit
 *                 rot are detected, never trusted.
 *   index.tji     open-addressed index page, mmap'd MAP_SHARED.  Slots
 *                 map jobKey -> (segment offset, payload size); a
 *                 slot's offset field is published *last* with a
 *                 release store (write-then-publish), so concurrent
 *                 mappers see either nothing or a complete slot.  The
 *                 header's coveredBytes watermark records how much of
 *                 the segment the index describes; openers scan any
 *                 uncovered tail (eagerly checksummed) and re-publish
 *                 it, which is also how crash recovery works.
 *
 * The index is an accelerator, never an authority: every payload read
 * is validated against the entry checksum before use, and any
 * corruption (bad magic, out-of-bounds slot, failed checksum) demotes
 * the entry to a miss.  A miss only costs a recompile — this is a
 * cache, not a database.
 *
 * Cross-process writers are serialized with flock(2) on the segment
 * file; flock is per-open-file-description, so two handles onto one
 * directory exclude each other even inside a single process (the
 * concurrency tests exploit exactly that).  Lookups take no file lock.
 * A version/fingerprint mismatch in the segment header (schema change)
 * self-invalidates: both files are truncated and rewritten fresh.
 */

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "support/hash.h"

namespace trapjit
{

/** Snapshot of a PersistentCache's operation counters. */
struct PersistentCacheStats
{
    uint64_t hits = 0;           ///< lookup() served a validated entry
    uint64_t misses = 0;         ///< lookup() found nothing usable
    uint64_t inserts = 0;        ///< entries appended by this handle
    uint64_t corruptEntries = 0; ///< entries rejected by validation
    uint64_t bytesMapped = 0;    ///< current segment+index mapping size
    uint64_t entries = 0;        ///< usable entries known to this handle
};

/**
 * One handle onto an on-disk cache directory.  Thread-safe; all
 * bookkeeping serializes on an internal mutex (the lock-free fast path
 * is the in-memory CompileCache in front of this tier).  The one
 * expensive step of a lookup, checksumming a payload on its first use,
 * runs outside that mutex on a private copy of the bytes.
 */
class PersistentCache
{
  public:
    using Value = std::shared_ptr<const std::string>;

    /**
     * Open (creating if needed) the cache in @p dir.  Returns nullptr
     * if the directory cannot be created or the files cannot be
     * opened — callers degrade to memory-only caching.
     */
    static std::shared_ptr<PersistentCache> open(const std::string &dir);

    ~PersistentCache();

    PersistentCache(const PersistentCache &) = delete;
    PersistentCache &operator=(const PersistentCache &) = delete;

    /**
     * The compiled IR for @p key, or nullptr on a miss.  A payload is
     * checksum-verified before its first use on this handle; a payload
     * that fails is a miss (counted corrupt), never served.  On a hit,
     * a non-null @p checksum receives the verified payload checksum,
     * which is hashBytes(*value).
     *
     * Concurrent first lookups of one key each verify a private copy
     * unlocked and then share the first published value, so all of
     * them return the same bytes.
     */
    Value lookup(const Hash128 &key, Hash128 *checksum = nullptr);

    /** Durably publish a compile result (first writer wins). */
    void insert(const Hash128 &key, const Value &value);

    /** Usable entries known to this handle. */
    size_t size();

    /** Bytes of this handle's current file mappings. */
    uint64_t bytesMapped();

    PersistentCacheStats stats();

    const std::string &dir() const { return dir_; }

  private:
    PersistentCache() = default;

    struct Rec
    {
        uint64_t offset = 0; ///< EntryHeader offset in the segment
        uint32_t size = 0;   ///< payload size
        Hash128 sum;         ///< payload checksum from the entry header
        bool validated = false;
        Value memValue; ///< decoded payload, cached after validation
    };

    bool openFiles();
    void selfInvalidateLocked();
    bool remapSegmentLocked(uint64_t newSize);
    bool createFreshIndexLocked(uint64_t capacity,
                                uint64_t coveredBytes);
    bool remapIndexByNameLocked();
    void loadIndexSlotsLocked();
    void reconcileLocked();
    void publishIndexSlotLocked(const Hash128 &key, uint64_t offset,
                                uint32_t size);
    void growIndexLocked();
    void flockExclusive();
    void flockRelease();

    std::string dir_;
    std::string segmentPath_;
    std::string indexPath_;

    std::mutex mutex_;

    int segFd_ = -1;
    uint8_t *segMap_ = nullptr;
    uint64_t segMapSize_ = 0;
    uint64_t segSize_ = 0;

    int indexFd_ = -1;
    uint8_t *indexMap_ = nullptr;
    uint64_t indexMapSize_ = 0;
    uint64_t indexCapacity_ = 0;

    std::unordered_map<Hash128, Rec, Hash128Hasher> map_;

    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t inserts_ = 0;
    uint64_t corrupt_ = 0;
};

/** TRAPJIT_CACHE_DIR, or empty when unset. */
std::string cacheDirFromEnv();

} // namespace trapjit

#endif // TRAPJIT_JIT_PERSISTENT_CACHE_H_
