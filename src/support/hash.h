#ifndef TRAPJIT_SUPPORT_HASH_H_
#define TRAPJIT_SUPPORT_HASH_H_

/**
 * @file
 * Stable 128-bit content hashing (FNV-1a) for the compile cache.
 *
 * The compile cache (jit/compile_service.h) keys entries by a digest of
 * serialized IR plus configuration and target fingerprints.  The digest
 * must be stable across processes and runs — it is a content address,
 * not a bucket index — so std::hash (implementation-defined, often
 * randomized) is unusable.  FNV-1a with a 128-bit state keeps accidental
 * collisions out of reach of any realistic corpus while staying a few
 * lines of dependency-free code.
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
 * Incremental FNV-1a/128 hasher.
 *
 * Feed it byte strings and integers; the digest depends on the exact
 * byte sequence fed, so callers composing multi-field keys must
 * delimit fields (update() of a length, or a separator byte) when the
 * fields themselves are variable-length.
 */
class Hasher
{
  public:
    Hasher();

    /** Absorb raw bytes. */
    Hasher &update(const void *data, size_t size);

    Hasher &
    update(std::string_view text)
    {
        return update(text.data(), text.size());
    }

    /** Absorb a little-endian 64-bit integer (fixed width: no delimiter
     *  needed). */
    Hasher &update(uint64_t value);

    /** Current digest (the hasher can keep absorbing afterwards). */
    Hash128 digest() const { return Hash128{hi_, lo_}; }

  private:
    uint64_t hi_;
    uint64_t lo_;
};

/** One-shot convenience. */
Hash128 hashBytes(std::string_view text);

} // namespace trapjit

#endif // TRAPJIT_SUPPORT_HASH_H_
