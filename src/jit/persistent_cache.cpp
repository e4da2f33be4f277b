#include "jit/persistent_cache.h"

#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace trapjit
{

namespace
{

// On-disk format v1.  The schema fingerprint folds in the job-key
// scheme ("pcache v2": keys cover the compiled function's id and its
// call closure) and the serializer format tag, so changing the cache
// layout, how keys are derived or the IR text format self-invalidates
// old directories.
constexpr uint32_t kSegMagic = 0x47534A54;   // "TJSG"
constexpr uint32_t kEntryMagic = 0x4E454A54; // "TJEN"
constexpr uint32_t kIndexMagic = 0x58494A54; // "TJIX"
constexpr uint32_t kVersion = 1;

constexpr uint64_t kSegHeaderSize = 24;
constexpr uint64_t kEntryHeaderSize = 40;
constexpr uint64_t kIndexHeaderSize = 40;
constexpr uint64_t kIndexSlotSize = 32;
constexpr uint64_t kInitialIndexCapacity = 4096;

// Keep individual entries sane: a serialized function measured in
// hundreds of megabytes is corruption, not data.
constexpr uint32_t kMaxPayloadSize = 256u << 20;

Hash128
schemaFingerprint()
{
    return hashBytes("trapjit-pcache v2; trapjit-module v1");
}

uint32_t
loadU32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

uint64_t
loadU64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

void
storeU32(uint8_t *p, uint32_t v)
{
    std::memcpy(p, &v, sizeof v);
}

void
storeU64(uint8_t *p, uint64_t v)
{
    std::memcpy(p, &v, sizeof v);
}

/** Release-store a u64 inside a MAP_SHARED mapping (publication). */
void
storeU64Release(uint8_t *p, uint64_t v)
{
    __atomic_store_n(reinterpret_cast<uint64_t *>(p), v,
                     __ATOMIC_RELEASE);
}

uint64_t
loadU64Acquire(const uint8_t *p)
{
    return __atomic_load_n(reinterpret_cast<const uint64_t *>(p),
                           __ATOMIC_ACQUIRE);
}

bool
writeAll(int fd, const void *data, size_t size)
{
    const char *p = static_cast<const char *>(data);
    while (size > 0) {
        ssize_t n = ::write(fd, p, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        size -= static_cast<size_t>(n);
    }
    return true;
}

std::string
segmentHeaderBytes()
{
    std::string h(kSegHeaderSize, '\0');
    uint8_t *p = reinterpret_cast<uint8_t *>(h.data());
    Hash128 fp = schemaFingerprint();
    storeU32(p + 0, kSegMagic);
    storeU32(p + 4, kVersion);
    storeU64(p + 8, fp.hi);
    storeU64(p + 16, fp.lo);
    return h;
}

} // namespace

std::string
cacheDirFromEnv()
{
    const char *dir = std::getenv("TRAPJIT_CACHE_DIR");
    return dir != nullptr ? std::string(dir) : std::string();
}

std::shared_ptr<PersistentCache>
PersistentCache::open(const std::string &dir)
{
    if (dir.empty())
        return nullptr;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    // create_directories reports success-or-exists via ec; a failure
    // here (permissions, file in the way) degrades to no cache.
    if (ec)
        return nullptr;

    auto cache = std::shared_ptr<PersistentCache>(new PersistentCache);
    cache->dir_ = dir;
    cache->segmentPath_ = dir + "/segment.tjs";
    cache->indexPath_ = dir + "/index.tji";
    if (!cache->openFiles())
        return nullptr;
    return cache;
}

PersistentCache::~PersistentCache()
{
    if (segMap_ != nullptr)
        ::munmap(segMap_, segMapSize_);
    if (indexMap_ != nullptr)
        ::munmap(indexMap_, indexMapSize_);
    if (segFd_ >= 0)
        ::close(segFd_);
    if (indexFd_ >= 0)
        ::close(indexFd_);
}

void
PersistentCache::flockExclusive()
{
    while (::flock(segFd_, LOCK_EX) != 0 && errno == EINTR) {
    }
}

void
PersistentCache::flockRelease()
{
    ::flock(segFd_, LOCK_UN);
}

bool
PersistentCache::openFiles()
{
    segFd_ = ::open(segmentPath_.c_str(), O_RDWR | O_CREAT | O_APPEND,
                    0644);
    if (segFd_ < 0)
        return false;

    std::lock_guard<std::mutex> lock(mutex_);
    flockExclusive();

    struct stat st;
    if (::fstat(segFd_, &st) != 0) {
        flockRelease();
        return false;
    }
    segSize_ = static_cast<uint64_t>(st.st_size);

    bool fresh = false;
    if (segSize_ < kSegHeaderSize) {
        fresh = true;
    } else {
        if (!remapSegmentLocked(segSize_)) {
            flockRelease();
            return false;
        }
        Hash128 fp = schemaFingerprint();
        if (loadU32(segMap_ + 0) != kSegMagic ||
            loadU32(segMap_ + 4) != kVersion ||
            loadU64(segMap_ + 8) != fp.hi ||
            loadU64(segMap_ + 16) != fp.lo) {
            // Stale or foreign schema: self-invalidate both files.
            fresh = true;
        }
    }
    if (fresh) {
        selfInvalidateLocked();
    } else {
        if (!remapIndexByNameLocked()) {
            flockRelease();
            return false;
        }
        loadIndexSlotsLocked();
        reconcileLocked();
    }
    flockRelease();
    return true;
}

/** Truncate both files and write fresh headers.  Caller holds the
 *  mutex and the flock. */
void
PersistentCache::selfInvalidateLocked()
{
    map_.clear();
    if (::ftruncate(segFd_, 0) != 0)
        return;
    std::string header = segmentHeaderBytes();
    writeAll(segFd_, header.data(), header.size());
    segSize_ = kSegHeaderSize;
    remapSegmentLocked(segSize_);
    createFreshIndexLocked(kInitialIndexCapacity, kSegHeaderSize);
}

bool
PersistentCache::remapSegmentLocked(uint64_t newSize)
{
    if (segMap_ != nullptr) {
        ::munmap(segMap_, segMapSize_);
        segMap_ = nullptr;
        segMapSize_ = 0;
    }
    if (newSize == 0)
        return true;
    void *m = ::mmap(nullptr, newSize, PROT_READ, MAP_SHARED, segFd_,
                     0);
    if (m == MAP_FAILED)
        return false;
    segMap_ = static_cast<uint8_t *>(m);
    segMapSize_ = newSize;
    return true;
}

/** Write a zeroed index of @p capacity slots to a temp file and rename
 *  it into place, then map it.  Caller holds the flock. */
bool
PersistentCache::createFreshIndexLocked(uint64_t capacity,
                                        uint64_t coveredBytes)
{
    std::string tmpPath = indexPath_ + ".tmp";
    int fd = ::open(tmpPath.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    uint64_t fileSize = kIndexHeaderSize + capacity * kIndexSlotSize;
    std::string bytes(fileSize, '\0');
    uint8_t *p = reinterpret_cast<uint8_t *>(bytes.data());
    Hash128 fp = schemaFingerprint();
    storeU32(p + 0, kIndexMagic);
    storeU32(p + 4, kVersion);
    storeU64(p + 8, fp.hi);
    storeU64(p + 16, fp.lo);
    storeU64(p + 24, capacity);
    storeU64(p + 32, coveredBytes);
    bool ok = writeAll(fd, bytes.data(), bytes.size());
    ::close(fd);
    if (!ok || ::rename(tmpPath.c_str(), indexPath_.c_str()) != 0) {
        ::unlink(tmpPath.c_str());
        return false;
    }
    return remapIndexByNameLocked();
}

/**
 * (Re)map index.tji by name if our mapping is missing or stale (a
 * concurrent writer grew the index and renamed a new file over it).
 * Invalid or missing index files are recreated fresh, with
 * coveredBytes reset so the segment scan in reconcileLocked() rebuilds
 * the slots.  Caller holds the flock.
 */
bool
PersistentCache::remapIndexByNameLocked()
{
    struct stat byName;
    bool exists = ::stat(indexPath_.c_str(), &byName) == 0;
    if (exists && indexFd_ >= 0) {
        struct stat byFd;
        if (::fstat(indexFd_, &byFd) == 0 &&
            byFd.st_ino == byName.st_ino &&
            byFd.st_dev == byName.st_dev)
            return true; // mapping is current
    }
    if (indexMap_ != nullptr) {
        ::munmap(indexMap_, indexMapSize_);
        indexMap_ = nullptr;
        indexMapSize_ = 0;
    }
    if (indexFd_ >= 0) {
        ::close(indexFd_);
        indexFd_ = -1;
    }
    if (!exists)
        return createFreshIndexLocked(kInitialIndexCapacity,
                                      kSegHeaderSize);

    indexFd_ = ::open(indexPath_.c_str(), O_RDWR, 0644);
    if (indexFd_ < 0)
        return false;
    struct stat st;
    if (::fstat(indexFd_, &st) != 0)
        return false;
    uint64_t fileSize = static_cast<uint64_t>(st.st_size);
    if (fileSize >= kIndexHeaderSize) {
        void *m = ::mmap(nullptr, fileSize, PROT_READ | PROT_WRITE,
                         MAP_SHARED, indexFd_, 0);
        if (m != MAP_FAILED) {
            indexMap_ = static_cast<uint8_t *>(m);
            indexMapSize_ = fileSize;
            Hash128 fp = schemaFingerprint();
            uint64_t capacity = loadU64(indexMap_ + 24);
            if (loadU32(indexMap_ + 0) == kIndexMagic &&
                loadU32(indexMap_ + 4) == kVersion &&
                loadU64(indexMap_ + 8) == fp.hi &&
                loadU64(indexMap_ + 16) == fp.lo && capacity > 0 &&
                (capacity & (capacity - 1)) == 0 &&
                kIndexHeaderSize + capacity * kIndexSlotSize ==
                    fileSize) {
                indexCapacity_ = capacity;
                return true;
            }
            ::munmap(indexMap_, indexMapSize_);
            indexMap_ = nullptr;
            indexMapSize_ = 0;
        }
    }
    // Unusable index: rebuild fresh; the reconcile scan repopulates it
    // from the (authoritative) segment.
    ::close(indexFd_);
    indexFd_ = -1;
    return createFreshIndexLocked(kInitialIndexCapacity,
                                  kSegHeaderSize);
}

/**
 * Load every published index slot into the in-memory map with lazy
 * checksum validation.  Slots that fail the bounds or header checks
 * are dropped (corrupt).  Caller holds the flock.
 */
void
PersistentCache::loadIndexSlotsLocked()
{
    if (indexMap_ == nullptr)
        return;
    for (uint64_t i = 0; i < indexCapacity_; ++i) {
        const uint8_t *slot =
            indexMap_ + kIndexHeaderSize + i * kIndexSlotSize;
        uint64_t offset = loadU64Acquire(slot + 16);
        if (offset == 0)
            continue;
        Hash128 key{loadU64(slot + 0), loadU64(slot + 8)};
        uint64_t size = loadU64(slot + 24);
        if (size > kMaxPayloadSize || offset < kSegHeaderSize ||
            offset + kEntryHeaderSize + size < offset ||
            offset + kEntryHeaderSize + size > segSize_) {
            ++corrupt_;
            continue;
        }
        const uint8_t *hdr = segMap_ + offset;
        if (loadU32(hdr + 0) != kEntryMagic ||
            loadU32(hdr + 4) != static_cast<uint32_t>(size) ||
            loadU64(hdr + 8) != key.hi || loadU64(hdr + 16) != key.lo) {
            ++corrupt_;
            continue;
        }
        Rec rec;
        rec.offset = offset;
        rec.size = static_cast<uint32_t>(size);
        rec.sum = Hash128{loadU64(hdr + 24), loadU64(hdr + 32)};
        rec.validated = false; // checksum checked on first lookup
        map_.emplace(key, rec);
    }
}

/**
 * Bring this handle up to date with the segment file: remap if it
 * grew, then scan any tail beyond the index's coveredBytes watermark,
 * eagerly checksumming each entry and publishing it.  A torn entry can
 * only sit at EOF (appends are single writes under the flock), so the
 * scan repairs it by truncating.  Caller holds the flock.
 */
void
PersistentCache::reconcileLocked()
{
    struct stat st;
    if (::fstat(segFd_, &st) != 0)
        return;
    uint64_t segSize = static_cast<uint64_t>(st.st_size);
    if (segSize < kSegHeaderSize)
        return;
    if (segSize != segMapSize_ && !remapSegmentLocked(segSize))
        return;
    segSize_ = segSize;

    if (!remapIndexByNameLocked() || indexMap_ == nullptr)
        return;
    uint64_t covered = loadU64Acquire(indexMap_ + 32);
    if (covered < kSegHeaderSize)
        covered = kSegHeaderSize;
    if (covered > segSize_)
        covered = segSize_; // externally truncated segment
    uint64_t pos = covered;
    while (pos + kEntryHeaderSize <= segSize_) {
        const uint8_t *hdr = segMap_ + pos;
        uint32_t size = loadU32(hdr + 4);
        Hash128 key{loadU64(hdr + 8), loadU64(hdr + 16)};
        Hash128 sum{loadU64(hdr + 24), loadU64(hdr + 32)};
        if (loadU32(hdr + 0) != kEntryMagic || size > kMaxPayloadSize ||
            pos + kEntryHeaderSize + size > segSize_)
            break; // torn tail
        std::string_view payload(
            reinterpret_cast<const char *>(hdr + kEntryHeaderSize),
            size);
        if (hashBytes(payload) != sum) {
            ++corrupt_;
            break; // torn payload at EOF
        }
        Rec rec;
        rec.offset = pos;
        rec.size = size;
        rec.sum = sum;
        rec.validated = true;
        map_.emplace(key, rec);
        publishIndexSlotLocked(key, pos, size);
        pos += kEntryHeaderSize + size;
    }
    if (pos < segSize_) {
        // Repair the torn tail so future appends produce a clean file.
        if (::ftruncate(segFd_, static_cast<off_t>(pos)) == 0) {
            segSize_ = pos;
            remapSegmentLocked(segSize_);
        }
    }
    storeU64Release(indexMap_ + 32, segSize_);
}

/** Publish (or refresh) an index slot.  First key writer wins; the
 *  offset field is stored last, with release.  Caller holds flock. */
void
PersistentCache::publishIndexSlotLocked(const Hash128 &key,
                                        uint64_t offset, uint32_t size)
{
    if (indexMap_ == nullptr || indexCapacity_ == 0)
        return;
    // Count occupied slots lazily via probe length: grow when the load
    // factor would pass ~70%.
    uint64_t population = 0;
    for (uint64_t i = 0; i < indexCapacity_; ++i) {
        const uint8_t *slot =
            indexMap_ + kIndexHeaderSize + i * kIndexSlotSize;
        if (loadU64Acquire(slot + 16) != 0)
            ++population;
    }
    if ((population + 1) * 10 > indexCapacity_ * 7)
        growIndexLocked();

    uint64_t mask = indexCapacity_ - 1;
    uint64_t idx = key.lo & mask;
    for (uint64_t n = 0; n < indexCapacity_; ++n) {
        uint8_t *slot =
            indexMap_ + kIndexHeaderSize + idx * kIndexSlotSize;
        uint64_t existing = loadU64Acquire(slot + 16);
        if (existing == 0) {
            storeU64(slot + 0, key.hi);
            storeU64(slot + 8, key.lo);
            storeU64(slot + 24, size);
            storeU64Release(slot + 16, offset); // publication point
            return;
        }
        if (loadU64(slot + 0) == key.hi && loadU64(slot + 8) == key.lo)
            return; // first writer won
        idx = (idx + 1) & mask;
    }
}

/** Double the index via write-temp-then-rename.  Caller holds flock. */
void
PersistentCache::growIndexLocked()
{
    uint64_t newCapacity = indexCapacity_ * 2;
    uint64_t covered = loadU64Acquire(indexMap_ + 32);

    // Snapshot current slots before the mapping is replaced.
    std::vector<std::array<uint64_t, 4>> live;
    live.reserve(indexCapacity_);
    for (uint64_t i = 0; i < indexCapacity_; ++i) {
        const uint8_t *slot =
            indexMap_ + kIndexHeaderSize + i * kIndexSlotSize;
        uint64_t offset = loadU64Acquire(slot + 16);
        if (offset == 0)
            continue;
        live.push_back({loadU64(slot + 0), loadU64(slot + 8), offset,
                        loadU64(slot + 24)});
    }
    if (!createFreshIndexLocked(newCapacity, covered))
        return;
    uint64_t mask = indexCapacity_ - 1;
    for (const auto &s : live) {
        uint64_t idx = s[1] & mask;
        while (true) {
            uint8_t *slot =
                indexMap_ + kIndexHeaderSize + idx * kIndexSlotSize;
            if (loadU64(slot + 16) == 0) {
                storeU64(slot + 0, s[0]);
                storeU64(slot + 8, s[1]);
                storeU64(slot + 24, s[3]);
                storeU64Release(slot + 16, s[2]);
                break;
            }
            idx = (idx + 1) & mask;
        }
    }
}

PersistentCache::Value
PersistentCache::lookup(const Hash128 &key, Hash128 *checksum)
{
    std::string payload;
    uint64_t offset = 0;
    Hash128 sum;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        if (it == map_.end()) {
            ++misses_;
            return nullptr;
        }
        Rec &rec = it->second;
        if (rec.memValue == nullptr) {
            if (rec.offset + kEntryHeaderSize + rec.size > segMapSize_) {
                ++corrupt_;
                ++misses_;
                map_.erase(it);
                return nullptr;
            }
            // Copy under the lock: an insert may remap the segment as
            // soon as the lock is released.
            const char *bytes = reinterpret_cast<const char *>(
                segMap_ + rec.offset + kEntryHeaderSize);
            if (rec.validated) {
                rec.memValue =
                    std::make_shared<const std::string>(bytes, rec.size);
            } else {
                payload.assign(bytes, rec.size);
                offset = rec.offset;
                sum = rec.sum;
            }
        }
        if (rec.memValue != nullptr) {
            ++hits_;
            if (checksum != nullptr)
                *checksum = rec.sum;
            return rec.memValue;
        }
    }

    // First use on this handle: verify the private copy unlocked, so
    // workers looking up other keys do not queue behind the hash.
    const bool intact = hashBytes(payload) == sum;

    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    // Still the record this copy came from, not yet published by a
    // concurrent verifier (a corrupt record may also have been erased
    // and the key re-inserted by a compile meanwhile).
    const bool same = it != map_.end() && it->second.offset == offset &&
                      it->second.memValue == nullptr;
    if (!intact) {
        ++misses_;
        if (same) { // count each rejected entry once
            ++corrupt_;
            map_.erase(it);
        }
        return nullptr;
    }
    ++hits_;
    if (checksum != nullptr)
        *checksum = sum;
    if (same) {
        it->second.validated = true;
        it->second.memValue =
            std::make_shared<const std::string>(std::move(payload));
        return it->second.memValue;
    }
    if (it != map_.end() && it->second.offset == offset)
        return it->second.memValue; // a concurrent verifier published
    return std::make_shared<const std::string>(std::move(payload));
}

void
PersistentCache::insert(const Hash128 &key, const Value &value)
{
    if (value == nullptr || value->size() > kMaxPayloadSize)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (map_.find(key) != map_.end())
        return;

    flockExclusive();
    // Catch up with concurrent writers first — one of them may have
    // persisted this very key.
    reconcileLocked();
    if (map_.find(key) != map_.end()) {
        flockRelease();
        return;
    }

    // Append [header][payload] with a single write so a crash tears at
    // most the tail (repaired by the next reconcile scan).
    std::string record(kEntryHeaderSize + value->size(), '\0');
    uint8_t *p = reinterpret_cast<uint8_t *>(record.data());
    Hash128 sum = hashBytes(*value);
    storeU32(p + 0, kEntryMagic);
    storeU32(p + 4, static_cast<uint32_t>(value->size()));
    storeU64(p + 8, key.hi);
    storeU64(p + 16, key.lo);
    storeU64(p + 24, sum.hi);
    storeU64(p + 32, sum.lo);
    std::memcpy(p + kEntryHeaderSize, value->data(), value->size());

    uint64_t offset = segSize_;
    if (!writeAll(segFd_, record.data(), record.size())) {
        flockRelease();
        return;
    }
    segSize_ += record.size();

    publishIndexSlotLocked(key, offset,
                           static_cast<uint32_t>(value->size()));
    if (indexMap_ != nullptr)
        storeU64Release(indexMap_ + 32, segSize_);

    Rec rec;
    rec.offset = offset;
    rec.size = static_cast<uint32_t>(value->size());
    rec.sum = sum;
    rec.validated = true;
    rec.memValue = value;
    map_.emplace(key, rec);
    ++inserts_;
    flockRelease();
}

size_t
PersistentCache::size()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
}

uint64_t
PersistentCache::bytesMapped()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return segMapSize_ + indexMapSize_;
}

PersistentCacheStats
PersistentCache::stats()
{
    std::lock_guard<std::mutex> lock(mutex_);
    PersistentCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.inserts = inserts_;
    s.corruptEntries = corrupt_;
    s.bytesMapped = segMapSize_ + indexMapSize_;
    s.entries = map_.size();
    return s;
}

} // namespace trapjit
