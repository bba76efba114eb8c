/**
 * @file
 * The CKKS evaluator: the four backbone HE operators the paper benchmarks
 * (HE-Add, HE-Mult, Rescale, Rotate) plus plaintext variants and the
 * hybrid key-switching core they share.
 *
 * Every kernel executed is reported to an optional KernelLog with its
 * shape and wall time; tests check the log against the pure schedule
 * enumerator (schedule.h), which is what the TPU cost model replays --
 * guaranteeing the simulator prices exactly the kernels the functional
 * implementation runs.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "ckks/ciphertext.h"
#include "ckks/context.h"
#include "ckks/kernel_log.h"
#include "ckks/keys.h"
#include "ckks/keyswitch_cache.h"
#include "common/check.h"

namespace cross::ckks {

/**
 * Galois elements are the units of Z_2N: odd and reduced mod 2N. Even
 * indices are not ring automorphisms at all, and indices >= 2N alias a
 * smaller element (a silently wrong rotation plus a duplicated
 * automorphism-map cache entry), so both are rejected up front. Shared
 * by the scalar and batch rotate paths so the predicate cannot
 * diverge.
 */
inline void
checkAutomorphismIndex(const CkksContext &ctx, u32 auto_idx)
{
    requireThat(auto_idx % 2 == 1 && auto_idx < 2 * ctx.degree(),
                "rotate: automorphism index must be odd and < 2N");
}

/**
 * CKKS scales must agree to this relative tolerance before add /
 * addPlain. One definition shared by the scalar evaluator and
 * BatchEvaluator::run's fail-fast prevalidation walk, so the batch
 * walk accepts exactly the operands the per-item execution would.
 */
inline bool
ckksScalesMatch(double a, double b)
{
    return std::abs(a - b) <= 1e-6 * std::max(a, b);
}

/**
 * The shared ModUp of one ciphertext polynomial: its digit
 * decomposition lifted to the extended basis (Q + complement + P), in
 * eval domain. Halevi-Shoup hoisting computes this once per input and
 * amortises it across a whole rotation fan-out -- the eval-domain
 * automorphism is a pure slot permutation, so each rotation permutes
 * the decomposed digits instead of re-running ModUp.
 */
struct HoistedDecomp
{
    /** Level the decomposition was taken at (input limbs - 1). */
    size_t level = 0;
    /** Ring indices of the extended basis, as extendedSlots(level). */
    std::vector<u32> extSlots;
    /** One extended-basis polynomial per active digit, eval domain. */
    std::vector<poly::RnsPoly> digits;
};

/** Homomorphic operator implementations. */
class CkksEvaluator
{
  public:
    explicit CkksEvaluator(const CkksContext &ctx, KernelLog *log = nullptr)
        : ctx_(ctx), log_(log)
    {
    }

    /** @name Backbone HE operators (Table VIII workloads). @{ */
    Ciphertext add(const Ciphertext &a, const Ciphertext &b) const;
    Ciphertext sub(const Ciphertext &a, const Ciphertext &b) const;
    /** Tensor product without relinearisation. */
    Ciphertext3 multiplyNoRelin(const Ciphertext &a,
                                const Ciphertext &b) const;
    /** Key-switch the degree-2 term back to a 2-element ciphertext. */
    Ciphertext relinearize(const Ciphertext3 &c, const SwitchKey &rlk) const;
    Ciphertext relinearize(const Ciphertext3 &c,
                           const KeySwitchPrecomp &pre) const;
    /** multiplyNoRelin + relinearize. */
    Ciphertext multiply(const Ciphertext &a, const Ciphertext &b,
                        const SwitchKey &rlk) const;
    /** Batched form: reuses a per-level precomputation (bit-identical). */
    Ciphertext multiply(const Ciphertext &a, const Ciphertext &b,
                        const KeySwitchPrecomp &pre) const;
    /** Drop the last limb, dividing the scale by q_l. */
    Ciphertext rescale(const Ciphertext &ct) const;
    /**
     * Double rescaling (Section V-A): drop params().rescaleSplit
     * sub-moduli in one logical level step -- how CROSS supports
     * baselines whose moduli exceed the 32-bit register width.
     */
    Ciphertext rescaleMulti(const Ciphertext &ct) const;
    /** Slot rotation: automorphism + key switch. Implemented as a
     *  fan-out-of-one hoisted rotation (hoistedModUp +
     *  applyHoistedRotation), so rotateHoisted over N keys is
     *  bit-identical to N independent rotate calls by construction. */
    Ciphertext rotate(const Ciphertext &ct, u32 auto_idx,
                      const SwitchKey &rot_key) const;
    Ciphertext rotate(const Ciphertext &ct, u32 auto_idx,
                      const KeySwitchPrecomp &pre) const;
    /** @} */

    /** @name Halevi-Shoup hoisted rotations. @{ */
    /**
     * Phase 1 of the key switch, standalone: decompose @p c1 into
     * digits and lift each to the extended basis (one INTT + per-digit
     * BConv/NTT). The result is rotation-independent and can be shared
     * across every rotation of the same ciphertext at this level.
     */
    HoistedDecomp hoistedModUp(const poly::RnsPoly &c1) const;

    /**
     * Phases 2+3 against a shared decomposition: permute the
     * decomposed digits (and c0) by @p auto_idx, inner-product with
     * the rotation key's digits, ModDown, and fold c0 -- one rotation
     * of the fan-out. Bit-identical to rotate(ct, auto_idx, pre) and
     * only valid when @p dec came from hoistedModUp(ct.c1).
     */
    Ciphertext applyHoistedRotation(const Ciphertext &ct,
                                    const HoistedDecomp &dec, u32 auto_idx,
                                    const KeySwitchPrecomp &pre) const;
    Ciphertext applyHoistedRotation(const Ciphertext &ct,
                                    const HoistedDecomp &dec, u32 auto_idx,
                                    const SwitchKey &rot_key) const;

    /**
     * The fan-out API: one shared ModUp of @p ct, then one
     * applyHoistedRotation per (automorphism index, key) branch.
     * Bit-identical to |branches| independent rotate calls at any
     * thread count, paying |branches|-1 fewer ModUps (counted into the
     * KernelLog's hoistedModUpSaves).
     */
    std::vector<Ciphertext> rotateHoisted(
        const Ciphertext &ct,
        const std::vector<std::pair<u32, const SwitchKey *>> &branches)
        const;

    /** Credit a fan-out of @p fanout rotations sharing one ModUp to
     *  the log's shared-ModUp save counter (fanout-1 saves; no-op
     *  without a log or for fanout <= 1). The batch engine calls this
     *  directly because it drives applyHoistedRotation itself. */
    void noteHoistedSaves(size_t fanout) const;
    /** @} */

    /** @name Plaintext operands. @{ */
    Ciphertext addPlain(const Ciphertext &ct, const Plaintext &pt) const;
    Ciphertext multiplyPlain(const Ciphertext &ct,
                             const Plaintext &pt) const;
    /** @} */

    /** Truncate to @p limbs limbs (level reduction; scale unchanged). */
    Ciphertext reduceToLimbs(const Ciphertext &ct, size_t limbs) const;

    /**
     * Hybrid key-switching core (ModUp -> inner product -> ModDown);
     * public because rotation/relin/bootstrapping all reuse it and tests
     * probe it directly.
     */
    std::pair<poly::RnsPoly, poly::RnsPoly>
    keySwitch(const poly::RnsPoly &c, const SwitchKey &swk) const;

    /** Key switch against a shared per-level precomputation. */
    std::pair<poly::RnsPoly, poly::RnsPoly>
    keySwitch(const poly::RnsPoly &c, const KeySwitchPrecomp &pre) const;

    /**
     * Build the batch-reusable operands of keySwitch at @p level: the
     * extended slot list, the key digits restricted to it, and a warm
     * ModUp/ModDown conversion cache. Using the result is bit-identical
     * to passing the SwitchKey directly.
     */
    KeySwitchPrecomp precomputeKeySwitch(const SwitchKey &swk,
                                         size_t level) const;

    /**
     * Like precomputeKeySwitch, but resident: served from the
     * context's KeySwitchCache, building at most once per
     * (key id, level) while resident. The returned handle keeps the
     * precomp valid for as long as it is held, whatever the cache
     * evicts. Throws std::invalid_argument, before the lookup, when
     * @p swk's digits do not cover @p level (a moved-from, default or
     * short key).
     */
    PrecompPtr precomputeKeySwitchShared(const SwitchKey &swk,
                                         size_t level) const;

    /**
     * precomputeKeySwitchShared without the handle: the reference is
     * the cache's own and stays valid only while the entry is resident
     * (until an eviction, invalidate() or clear() drops it).
     */
    const KeySwitchPrecomp &
    precomputeKeySwitchCached(const SwitchKey &swk, size_t level) const;

  private:
    /**
     * Key-switch phase 2: (sum_j b_j * digits[j], sum_j a_j * digits[j])
     * over the key digits of @p pre, read in place, on pre.extSlots.
     */
    std::pair<poly::RnsPoly, poly::RnsPoly>
    keyInnerProduct(const std::vector<poly::RnsPoly> &digits,
                    const KeySwitchPrecomp &pre) const;

    /** ModUp phase body shared by hoistedModUp and keySwitch. */
    std::vector<poly::RnsPoly>
    modUpPhase(const poly::RnsPoly &c,
               const std::vector<u32> &ext_slots) const;

    /**
     * ModDown phase: (acc - Conv_P->Q(acc_P)) * P^-1 at @p level,
     * computed in the Q limbs of @p acc, which it consumes.
     */
    poly::RnsPoly modDownPhase(poly::RnsPoly acc, size_t level) const;

    void logCall(KernelKind kind, u32 limbs, u32 limbs_out,
                 double seconds) const;

    const CkksContext &ctx_;
    KernelLog *log_;
};

} // namespace cross::ckks
