#include "jit/persistent_cache.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace trapjit
{

namespace
{

// On-disk format v1.  The schema fingerprint folds in the cache scheme
// ("pcache v5": keys cover the compiled function's id and its call
// closure, the directory is the segment alone, payloads are compiled
// bottom-up, inlining their callees' compiled bodies, and keys and
// payload checksums are MurmurHash3 x64_128 digests) and the
// serializer format tag, so changing the cache layout, how keys are
// derived, what a payload holds, the digest function or the IR text
// format self-invalidates old directories.
constexpr uint32_t kSegMagic = 0x47534A54;   // "TJSG"
constexpr uint32_t kEntryMagic = 0x4E454A54; // "TJEN"
constexpr uint32_t kVersion = 1;

constexpr uint64_t kSegHeaderSize = 24;
constexpr uint64_t kEntryHeaderSize = 40;

// Keep individual entries sane: a serialized function measured in
// hundreds of megabytes is corruption, not data.
constexpr uint32_t kMaxPayloadSize = 256u << 20;

Hash128
schemaFingerprint()
{
    return hashBytes("trapjit-pcache v5; trapjit-module v1");
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
    if (!cache->openSegment(dir + "/segment.tjs"))
        return nullptr;
    return cache;
}

PersistentCache::~PersistentCache()
{
    if (map_ != nullptr)
        ::munmap(map_, mapSize_);
    if (fd_ >= 0)
        ::close(fd_);
}

void
PersistentCache::flockExclusive()
{
    while (::flock(fd_, LOCK_EX) != 0 && errno == EINTR) {
    }
}

void
PersistentCache::flockRelease()
{
    ::flock(fd_, LOCK_UN);
}

bool
PersistentCache::openSegment(const std::string &path)
{
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0)
        return false;

    std::lock_guard<std::mutex> lock(mutex_);
    flockExclusive();
    const std::string header = segmentHeaderBytes();
    std::string found(kSegHeaderSize, '\0');
    bool ok = true;
    if (::pread(fd_, found.data(), found.size(), 0) !=
            static_cast<ssize_t>(found.size()) ||
        found != header) {
        // New, or a stale or foreign schema: self-invalidate.
        ok = ::ftruncate(fd_, 0) == 0 &&
             writeAll(fd_, header.data(), header.size());
    }
    if (ok) {
        end_ = kSegHeaderSize;
        scanLocked();
    }
    flockRelease();
    return ok;
}

/**
 * Catch up with the segment file: map it whole, then walk the record
 * headers from end_ to EOF, recording each complete record (a later
 * record of a key replaces an earlier one).  Payloads are checksummed
 * on lookup, not here.  Under the flock no other handle can truncate
 * the file, so reading it through the mapping cannot fault.  Appends
 * are single writes under the flock, so a record with a bad header or
 * one that runs past EOF can only be a torn tail, and the scan
 * truncates it away.  Returns whether end_ is now the file's end, so
 * that an append lands there.  Caller holds the mutex and the flock.
 */
bool
PersistentCache::scanLocked()
{
    struct stat st;
    if (::fstat(fd_, &st) != 0)
        return false;
    uint64_t size = static_cast<uint64_t>(st.st_size);
    if (size < end_) {
        // Rewritten underneath this handle (a self-invalidating
        // opener): forget its records and rescan.
        recs_.clear();
        end_ = kSegHeaderSize;
    }
    if (size != mapSize_ && !remapLocked(size))
        return false;
    uint64_t pos = end_;
    while (pos + kEntryHeaderSize <= size) {
        const uint8_t *hdr = map_ + pos;
        uint32_t payload = loadU32(hdr + 4);
        if (loadU32(hdr + 0) != kEntryMagic || payload > kMaxPayloadSize ||
            pos + kEntryHeaderSize + payload > size)
            break;
        Hash128 key{loadU64(hdr + 8), loadU64(hdr + 16)};
        recs_[key] = Rec{pos, payload,
                         Hash128{loadU64(hdr + 24), loadU64(hdr + 32)}};
        pos += kEntryHeaderSize + payload;
    }
    end_ = pos;
    if (pos == size)
        return true;
    // Repair the torn tail so future appends produce a clean file.
    return ::ftruncate(fd_, static_cast<off_t>(pos)) == 0 &&
           remapLocked(pos);
}

bool
PersistentCache::remapLocked(uint64_t size)
{
    if (map_ != nullptr)
        ::munmap(map_, mapSize_);
    map_ = nullptr;
    mapSize_ = 0;
    if (size == 0)
        return true;
    void *m = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd_, 0);
    if (m == MAP_FAILED)
        return false;
    map_ = static_cast<uint8_t *>(m);
    mapSize_ = size;
    return true;
}

PersistentCache::Value
PersistentCache::lookup(const Hash128 &key, Hash128 *checksum)
{
    Rec rec;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = recs_.find(key);
        if (it == recs_.end()) {
            ++misses_;
            return nullptr;
        }
        rec = it->second;
    }

    // Read and verify a private copy unlocked, so workers looking up
    // other keys do not queue behind the hash.  pread rather than the
    // scan's mapping: a segment truncated underneath this handle (a
    // self-invalidating opener) reads short here instead of faulting.
    std::string payload(rec.size, '\0');
    if (::pread(fd_, payload.data(), rec.size,
                static_cast<off_t>(rec.offset + kEntryHeaderSize)) !=
            static_cast<ssize_t>(rec.size) ||
        hashBytes(payload) != rec.sum) {
        ++misses_;
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = recs_.find(key);
        // Forget the record (once, whichever racer gets here first) so
        // the recompile's insert appends a good one.
        if (it != recs_.end() && it->second.offset == rec.offset) {
            ++corrupt_;
            recs_.erase(it);
        }
        return nullptr;
    }
    ++hits_;
    if (checksum != nullptr)
        *checksum = rec.sum;
    return std::make_shared<const std::string>(std::move(payload));
}

void
PersistentCache::insert(const Hash128 &key, const Value &value)
{
    if (value == nullptr || value->size() > kMaxPayloadSize)
        return;

    // [header][payload], appended with a single write so a crash tears
    // at most the tail (repaired by the next scan).
    const uint32_t size = static_cast<uint32_t>(value->size());
    const Hash128 sum = hashBytes(*value);
    std::string record(kEntryHeaderSize + size, '\0');
    uint8_t *p = reinterpret_cast<uint8_t *>(record.data());
    storeU32(p + 0, kEntryMagic);
    storeU32(p + 4, size);
    storeU64(p + 8, key.hi);
    storeU64(p + 16, key.lo);
    storeU64(p + 24, sum.hi);
    storeU64(p + 32, sum.lo);
    std::memcpy(p + kEntryHeaderSize, value->data(), size);

    std::lock_guard<std::mutex> lock(mutex_);
    if (recs_.count(key) != 0)
        return;
    flockExclusive();
    // Catch up with concurrent writers first — one of them may have
    // recorded this very key.
    if (scanLocked() && recs_.count(key) == 0 &&
        writeAll(fd_, record.data(), record.size())) {
        recs_[key] = Rec{end_, size, sum};
        end_ += record.size();
    }
    flockRelease();
}

size_t
PersistentCache::size()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return recs_.size();
}

uint64_t
PersistentCache::bytesMapped()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return mapSize_;
}

PersistentCacheStats
PersistentCache::stats()
{
    std::lock_guard<std::mutex> lock(mutex_);
    PersistentCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.corruptEntries = corrupt_;
    s.bytesMapped = mapSize_;
    return s;
}

} // namespace trapjit
