#include "support/hash.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

namespace trapjit
{

namespace
{

// MurmurHash3 x64_128 constants, per the reference implementation.
constexpr uint64_t kC1 = 0x87c37b91114253d5ULL;
constexpr uint64_t kC2 = 0x4cf5ad432745937fULL;

/** Eight bytes at @p p as a little-endian integer, on any host. */
inline uint64_t
loadLE64(const unsigned char *p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

inline uint64_t
mixK1(uint64_t k1)
{
    return std::rotl(k1 * kC1, 31) * kC2;
}

inline uint64_t
mixK2(uint64_t k2)
{
    return std::rotl(k2 * kC2, 33) * kC1;
}

/** Absorb one 16-byte block into the two lanes. */
inline void
mixBlock(uint64_t &h1, uint64_t &h2, const unsigned char *block)
{
    h1 ^= mixK1(loadLE64(block));
    h1 = (std::rotl(h1, 27) + h2) * 5 + 0x52dce729;
    h2 ^= mixK2(loadLE64(block + 8));
    h2 = (std::rotl(h2, 31) + h1) * 5 + 0x38495ab5;
}

/** The finalizer: every input bit flips each output bit with
 *  probability close to 1/2. */
inline uint64_t
fmix64(uint64_t k)
{
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
}

} // namespace

Hasher &
Hasher::update(const void *data, size_t size)
{
    if (size == 0)
        return *this;
    const auto *bytes = static_cast<const unsigned char *>(data);
    length_ += size;
    if (tailSize_ > 0) {
        const size_t take = std::min(size, sizeof tail_ - tailSize_);
        std::memcpy(tail_ + tailSize_, bytes, take);
        tailSize_ += take;
        bytes += take;
        size -= take;
        if (tailSize_ < sizeof tail_)
            return *this;
        mixBlock(h1_, h2_, tail_);
        tailSize_ = 0;
    }
    uint64_t h1 = h1_;
    uint64_t h2 = h2_;
    for (; size >= sizeof tail_; bytes += sizeof tail_, size -= sizeof tail_)
        mixBlock(h1, h2, bytes);
    h1_ = h1;
    h2_ = h2;
    std::memcpy(tail_, bytes, size);
    tailSize_ = size;
    return *this;
}

Hasher &
Hasher::update(uint64_t value)
{
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<unsigned char>(value >> (8 * i));
    return update(bytes, sizeof(bytes));
}

Hash128
Hasher::digest() const
{
    uint64_t h1 = h1_;
    uint64_t h2 = h2_;
    if (tailSize_ > 0) {
        // The partial block, zero-padded: bytes 0-7 feed lane 1 and
        // bytes 8-15 lane 2, as the reference's tail switch does.
        unsigned char block[sizeof tail_] = {};
        std::memcpy(block, tail_, tailSize_);
        if (tailSize_ > 8)
            h2 ^= mixK2(loadLE64(block + 8));
        h1 ^= mixK1(loadLE64(block));
    }
    h1 ^= length_;
    h2 ^= length_;
    h1 += h2;
    h2 += h1;
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 += h2;
    h2 += h1;
    return Hash128{h1, h2};
}

Hash128
hashBytes(std::string_view text)
{
    return Hasher().update(text).digest();
}

std::string
Hash128::toHex() const
{
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return buf;
}

} // namespace trapjit
