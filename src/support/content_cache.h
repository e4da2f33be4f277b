#ifndef TRAPJIT_SUPPORT_CONTENT_CACHE_H_
#define TRAPJIT_SUPPORT_CONTENT_CACHE_H_

/**
 * @file
 * Thread-safe content-addressed store of shared immutable values.
 *
 * Keys are content addresses (support/hash.h): equal keys imply equal
 * values, so the first writer wins and every later insert of the key
 * hands back the stored value unchanged.  Callers therefore all end up
 * holding the same bytes even when two workers built one key at once.
 * Values are shared_ptr<const T>, so a hit copies nothing and an
 * insert racing a lookup is benign.
 *
 * One mutex guards one unordered_map.  The callers make one lookup per
 * compile job or decode, orders of magnitude below what a contended
 * mutex sustains, so nothing cleverer pays for itself.
 */

#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "support/hash.h"

namespace trapjit
{

template <typename T>
class ContentCache
{
  public:
    using Value = std::shared_ptr<const T>;

    /** The value stored under @p key, or nullptr on a miss. */
    Value
    lookup(const Hash128 &key) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        return it == entries_.end() ? nullptr : it->second;
    }

    /** Store @p value under @p key unless the key is present; returns
     *  the stored value either way (first writer wins). */
    Value
    insert(const Hash128 &key, Value value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.try_emplace(key, std::move(value)).first->second;
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

  private:
    mutable std::mutex mutex_;
    std::unordered_map<Hash128, Value, Hash128Hasher> entries_;
};

} // namespace trapjit

#endif // TRAPJIT_SUPPORT_CONTENT_CACHE_H_
