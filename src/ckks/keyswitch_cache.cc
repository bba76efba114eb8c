#include "ckks/keyswitch_cache.h"

#include <iterator>

namespace cross::ckks {

size_t
KeySwitchPrecomp::paramBytes() const
{
    size_t bytes = extSlots.size() * sizeof(u32);
    for (const auto &[b, a] : keys) {
        for (const poly::RnsPoly *poly : {&b, &a}) {
            for (size_t i = 0; i < poly->limbCount(); ++i)
                bytes += poly->limb(i).size() * sizeof(u32);
        }
    }
    return bytes;
}

PrecompPtr
KeySwitchCache::get(u64 key_id, size_t level, const Builder &build) const
{
    // The build is serialised under the lock (same discipline as the
    // context's basis-conversion caches).
    std::lock_guard<std::mutex> lock(m_);
    const Slot slot{key_id, level};
    auto it = entries_.find(slot);
    if (it != entries_.end()) {
        ++hits_;
        it->second.lastUse = ++tick_;
        return it->second.pre;
    }
    ++misses_;
    auto pre = std::make_shared<const KeySwitchPrecomp>(build());
    const size_t bytes = pre->paramBytes();
    // Insert before touching the byte ledger: a throwing map insert
    // (allocation failure) must not leave residentBytes_ accounting
    // for an entry that never landed.
    entries_.emplace(slot, Entry{++tick_, bytes, pre});
    residentBytes_ += bytes;
    enforceBudgetLocked(slot);
    return pre;
}

KeySwitchCache::Entries::iterator
KeySwitchCache::dropLocked(Entries::iterator it) const
{
    const Entry &e = it->second;
    residentBytes_ -= e.bytes;
    std::erase_if(held_, [](const Held &h) { return h.pre.expired(); });
    // Exact under m_: new copies come only from get(), under the lock,
    // so a count of 1 means no caller holds this precomp.
    if (e.pre.use_count() > 1)
        held_.push_back({e.pre, e.bytes});
    return entries_.erase(it);
}

void
KeySwitchCache::enforceBudgetLocked(const Slot &keep) const
{
    if (budget_ == 0)
        return;
    while (residentBytes_ > budget_ && entries_.size() > 1) {
        // Strict LRU: evict the entry with the oldest use tick, never
        // the one being served right now (even if it alone exceeds the
        // budget).
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->first == keep)
                continue;
            if (victim == entries_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == entries_.end())
            break;
        dropLocked(victim);
        ++evictions_;
    }
}

void
KeySwitchCache::invalidate(u64 key_id)
{
    std::lock_guard<std::mutex> lock(m_);
    for (auto it = entries_.begin(); it != entries_.end();)
        it = it->first.first == key_id ? dropLocked(it) : std::next(it);
}

void
KeySwitchCache::clear()
{
    std::lock_guard<std::mutex> lock(m_);
    while (!entries_.empty())
        dropLocked(entries_.begin());
}

void
KeySwitchCache::setByteBudget(size_t bytes)
{
    std::lock_guard<std::mutex> lock(m_);
    budget_ = bytes;
    // Shrink below the new bound immediately. No entry is being served
    // right now, and no built key has id 0, so the keeper never
    // matches and plain LRU order decides.
    enforceBudgetLocked({0, 0});
}

size_t
KeySwitchCache::byteBudget() const
{
    std::lock_guard<std::mutex> lock(m_);
    return budget_;
}

u64
KeySwitchCache::hits() const
{
    std::lock_guard<std::mutex> lock(m_);
    return hits_;
}

u64
KeySwitchCache::misses() const
{
    std::lock_guard<std::mutex> lock(m_);
    return misses_;
}

u64
KeySwitchCache::evictions() const
{
    std::lock_guard<std::mutex> lock(m_);
    return evictions_;
}

size_t
KeySwitchCache::size() const
{
    std::lock_guard<std::mutex> lock(m_);
    return entries_.size();
}

size_t
KeySwitchCache::residentBytes() const
{
    std::lock_guard<std::mutex> lock(m_);
    return residentBytes_;
}

size_t
KeySwitchCache::retiredBytes() const
{
    std::lock_guard<std::mutex> lock(m_);
    std::erase_if(held_, [](const Held &h) { return h.pre.expired(); });
    size_t bytes = 0;
    for (const auto &h : held_)
        bytes += h.bytes;
    return bytes;
}

void
KeySwitchCache::resetStats()
{
    std::lock_guard<std::mutex> lock(m_);
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
}

} // namespace cross::ckks
