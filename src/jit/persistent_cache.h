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
 * A cache directory holds one file, `segment.tjs` (see DESIGN.md §16):
 * a 24-byte header (magic/version/schema fingerprint) followed by
 * append-only records of [40-byte EntryHeader][payload].  The
 * EntryHeader carries the jobKey, the payload size and a 128-bit
 * payload checksum, so torn tails and bit rot are detected, never
 * trusted.  The segment is the only state: a handle learns its records
 * by scanning headers (at open, and from its last known end before
 * each append), keeps key -> record in memory, and serves a key from
 * the last record that carries it.  Every payload is checksummed when
 * looked up, and a payload that fails is a miss, so recompiling the
 * key appends a good record that later handles serve instead.  A miss
 * only costs a recompile — this is a cache, not a database.
 *
 * Cross-process writers are serialized with flock(2) on the segment
 * file; flock is per-open-file-description, so two handles onto one
 * directory exclude each other even inside a single process (the
 * concurrency tests exploit exactly that).  Lookups take no file lock.
 * A version/fingerprint mismatch in the segment header (schema change)
 * self-invalidates: the file is truncated and rewritten fresh.
 */

#include <atomic>
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
    uint64_t hits = 0;           ///< lookup() served a verified payload
    uint64_t misses = 0;         ///< lookup() found nothing usable
    uint64_t corruptEntries = 0; ///< records rejected by their checksum
    uint64_t bytesMapped = 0;    ///< current segment mapping size
};

/**
 * One handle onto an on-disk cache directory.  Thread-safe; the record
 * table serializes on an internal mutex.  A lookup reads and
 * checksums its private copy of the payload outside that mutex.
 */
class PersistentCache
{
  public:
    using Value = std::shared_ptr<const std::string>;

    /**
     * Open (creating if needed) the cache in @p dir.  Returns nullptr
     * if the directory cannot be created or the segment cannot be
     * opened — callers degrade to memory-only caching.
     */
    static std::shared_ptr<PersistentCache> open(const std::string &dir);

    ~PersistentCache();

    PersistentCache(const PersistentCache &) = delete;
    PersistentCache &operator=(const PersistentCache &) = delete;

    /**
     * A verified copy of the payload recorded for @p key, or nullptr
     * on a miss.  A payload that fails its checksum is a miss (counted
     * corrupt), never served, and the handle forgets its record so the
     * next insert of the key appends a fresh one.  On a hit, a
     * non-null @p checksum receives the verified payload checksum,
     * which is hashBytes(*value).  The handle keeps no copy: callers
     * that look a key up twice cache the value themselves.
     */
    Value lookup(const Hash128 &key, Hash128 *checksum = nullptr);

    /** Durably append a compile result unless some handle already
     *  recorded @p key (first writer wins). */
    void insert(const Hash128 &key, const Value &value);

    /** Keys with a record known to this handle. */
    size_t size();

    /** Bytes of the segment mapping this handle scans headers in. */
    uint64_t bytesMapped();

    PersistentCacheStats stats();

  private:
    PersistentCache() = default;

    struct Rec
    {
        uint64_t offset = 0; ///< EntryHeader offset in the segment
        uint32_t size = 0;   ///< payload size
        Hash128 sum;         ///< payload checksum from the entry header
    };

    bool openSegment(const std::string &path);
    bool scanLocked();
    bool remapLocked(uint64_t size);
    void flockExclusive();
    void flockRelease();

    std::mutex mutex_;

    int fd_ = -1; ///< open for the handle's lifetime

    // Guarded by mutex_.
    uint8_t *map_ = nullptr;
    uint64_t mapSize_ = 0;
    /** End of the last complete record this handle has scanned or
     *  appended; the next scan starts here. */
    uint64_t end_ = 0;
    std::unordered_map<Hash128, Rec, Hash128Hasher> recs_;

    // Bumped by lookups, partly outside the mutex.
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> corrupt_{0};
};

/** TRAPJIT_CACHE_DIR, or empty when unset. */
std::string cacheDirFromEnv();

} // namespace trapjit

#endif // TRAPJIT_JIT_PERSISTENT_CACHE_H_
