/**
 * @file
 * Batch-reusable key-switching operands and their context-level
 * residency cache.
 *
 * KeySwitchPrecomp is the paramBytes half of the simulator's batching
 * model (tpu::runBatched): the switching-key digits restricted to one
 * level's extended basis, streamed once and reused by every ciphertext
 * in a batch. KeySwitchCache keeps those operands resident across
 * batches, evaluators and pipeline stages -- the "key-switch key
 * residency" the SHARP line of work motivates -- so each (key
 * identity, level) pair is built exactly once while resident.
 *
 * Identity and ownership rules:
 *  - Entries are keyed by (SwitchKey::id(), level). The id is minted
 *    when a key is built from digits and travels with every copy, and
 *    a key's digits are read-only, so an id names one immutable set of
 *    key material and two different keys never share an entry. A
 *    moved-from key keeps its id but loses its digits, so
 *    CkksEvaluator::precomputeKeySwitchShared checks digit coverage
 *    before the lookup.
 *  - get() hands out shared ownership of the precomp. Eviction,
 *    invalidate() and clear() drop only the cache's own reference; a
 *    caller holding the handle keeps the precomp alive and unchanged
 *    for as long as it holds it, and the memory is freed when the last
 *    handle goes. BatchEvaluator holds the handles it prefetches for
 *    the length of each call, so nothing outlives the work that reads
 *    it.
 *  - get() is thread-safe; builds are serialised under the cache lock.
 *
 * Residency bound (the Fig. 11b VMEM roll-off, functionally):
 *  - setByteBudget(b) bounds the *resident* set by the summed
 *    paramBytes of the cached precomps, evicting in strict
 *    least-recently-used order (every get() is a use). A lookup that
 *    lands on an evicted pair misses and rebuilds, exactly as a
 *    switching key that rolled out of VMEM must be re-streamed. Set-D
 *    style many-level rotation-key sets therefore degrade
 *    deterministically instead of growing without bound.
 *  - retiredBytes() reports the precomps that are no longer resident
 *    but still held by a caller (tracked with weak references), so the
 *    memory held outside the budget is observable.
 *  - A single precomp larger than the whole budget is still served
 *    (the alternative is livelock); it is evicted as soon as the next
 *    entry lands.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.h"
#include "poly/ring.h"

namespace cross::ckks {

/**
 * Batch-reusable key-switching operands for one level: the extended
 * slot list and the switching-key digits restricted to it. The
 * BatchEvaluator builds one per (key, level) and shares it across
 * every ciphertext in the batch instead of re-selecting per operation.
 */
struct KeySwitchPrecomp
{
    size_t level = 0;
    std::vector<u32> extSlots;
    /** Per digit: (b, a) key halves pre-restricted to extSlots. */
    std::vector<std::pair<poly::RnsPoly, poly::RnsPoly>> keys;

    /**
     * Bytes of switching-key operands this precomp keeps resident --
     * the same paramBytes quantity the TPU cost model amortises across
     * a batch. The LRU budget accounts in this unit.
     */
    size_t paramBytes() const;
};

/** Shared ownership of a precomp: stays valid while held, whatever
 *  the cache evicts. */
using PrecompPtr = std::shared_ptr<const KeySwitchPrecomp>;

/** Context-level (key id, level) -> KeySwitchPrecomp cache. */
class KeySwitchCache
{
  public:
    using Builder = std::function<KeySwitchPrecomp()>;

    /**
     * Return the resident precomp for (@p key_id, @p level), invoking
     * @p build under the cache lock on the first request. Counts as a
     * use for LRU purposes and may evict other entries when a byte
     * budget is set.
     */
    PrecompPtr get(u64 key_id, size_t level, const Builder &build) const;

    /** Drop every level cached for @p key_id from the resident set. */
    void invalidate(u64 key_id);

    /** Drop every resident entry. */
    void clear();

    /**
     * Bound the resident set to @p bytes of precomp paramBytes
     * (0 = unbounded, the default). Shrinking below the current
     * resident size evicts immediately, oldest first.
     */
    void setByteBudget(size_t bytes);
    size_t byteBudget() const;

    /** @name Introspection (conformance tests assert build counts). @{ */
    /** Lookups served from a resident entry. */
    u64 hits() const;
    /** Lookups that had to build (== precomps constructed). */
    u64 misses() const;
    /** Entries displaced by the LRU budget. */
    u64 evictions() const;
    /** Resident (key, level) entries. */
    size_t size() const;
    /** Summed paramBytes of the resident entries (<= byteBudget()
     *  whenever a budget is set and more than one entry ever fit). */
    size_t residentBytes() const;
    /** Summed paramBytes of precomps no longer resident but still held
     *  by a caller. */
    size_t retiredBytes() const;
    /** Zero the hit/miss/eviction counters; resident entries stay. */
    void resetStats();
    /** @} */

  private:
    using Slot = std::pair<u64, size_t>; ///< (key id, level)

    struct Entry
    {
        u64 lastUse = 0;  ///< LRU tick of the most recent get()
        size_t bytes = 0; ///< pre->paramBytes(), cached
        PrecompPtr pre;
    };

    /** A dropped precomp a caller may still hold. */
    struct Held
    {
        std::weak_ptr<const KeySwitchPrecomp> pre;
        size_t bytes = 0;
    };

    using Entries = std::map<Slot, Entry>;

    /** Evict LRU entries until the budget holds; m_ must be held.
     *  @p keep is the entry that must survive (the one being served). */
    void enforceBudgetLocked(const Slot &keep) const;
    /** Erase @p it, releasing only the cache's reference (a holder
     *  keeps the precomp, tracked in held_); m_ must be held. Returns
     *  the next entry. */
    Entries::iterator dropLocked(Entries::iterator it) const;

    mutable std::mutex m_;
    mutable Entries entries_;
    mutable std::vector<Held> held_;
    mutable size_t budget_ = 0;
    mutable size_t residentBytes_ = 0;
    mutable u64 tick_ = 0;
    mutable u64 hits_ = 0;
    mutable u64 misses_ = 0;
    mutable u64 evictions_ = 0;
};

} // namespace cross::ckks
