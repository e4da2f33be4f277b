#ifndef TRAPJIT_SUPPORT_HASH_H_
#define TRAPJIT_SUPPORT_HASH_H_

/**
 * @file
 * Stable 128-bit content hashing (MurmurHash3 x64_128, seed 0) for the
 * compile cache.
 *
 * The compile cache (jit/compile_service.h) keys entries by a digest of
 * serialized IR plus configuration and target fingerprints, and the
 * persistent tier checksums every payload with it.  The digest must be
 * stable across processes, runs and hosts — it is a content address,
 * not a bucket index — so std::hash (implementation-defined, often
 * randomized) is unusable.  MurmurHash3's x64_128 construction mixes
 * two 64-bit lanes per 16-byte block, read explicitly little-endian,
 * and finishes with the fmix64 avalanche: a few lines of
 * dependency-free code that hash about ten times faster than a
 * byte-at-a-time loop, with 128 bits keeping accidental collisions out
 * of reach of any realistic corpus.  It is not a cryptographic hash;
 * nothing here defends against crafted collisions.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace trapjit
{

/** A 128-bit digest, comparable and usable as an unordered_map key. */
struct Hash128
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    bool operator==(const Hash128 &other) const = default;

    /** 32 hex digits, for logs and diagnostics. */
    std::string toHex() const;
};

/** Hash functor so Hash128 can key an unordered_map directly. */
struct Hash128Hasher
{
    size_t
    operator()(const Hash128 &h) const
    {
        // The digest is already uniformly mixed; fold the halves.
        return static_cast<size_t>(h.hi ^ h.lo);
    }
};

/**
 * Incremental MurmurHash3 x64_128 hasher.
 *
 * Feed it byte strings and integers; the digest depends on the exact
 * byte sequence fed, not on how it was split between update() calls (a
 * partial block waits in a buffer), so callers composing multi-field
 * keys must delimit fields (update() of a length, or a separator byte)
 * when the fields themselves are variable-length.
 */
class Hasher
{
  public:
    /** Absorb raw bytes. */
    Hasher &update(const void *data, size_t size);

    Hasher &
    update(std::string_view text)
    {
        return update(text.data(), text.size());
    }

    /** Absorb a 64-bit integer as its 8 little-endian bytes (fixed
     *  width: no delimiter needed). */
    Hasher &update(uint64_t value);

    /** Digest of everything absorbed so far; the hasher can keep
     *  absorbing afterwards. */
    Hash128 digest() const;

  private:
    uint64_t h1_ = 0;
    uint64_t h2_ = 0;
    uint64_t length_ = 0;        ///< bytes absorbed
    unsigned char tail_[16] = {}; ///< the partial block
    size_t tailSize_ = 0;         ///< bytes of tail_ in use (< 16)
};

/** One-shot convenience. */
Hash128 hashBytes(std::string_view text);

} // namespace trapjit

#endif // TRAPJIT_SUPPORT_HASH_H_
