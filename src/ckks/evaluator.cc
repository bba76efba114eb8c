#include "ckks/evaluator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "nt/modops.h"
#include "nt/modvec.h"
#include "nt/shoup.h"
#include "poly/ntt_ct.h"

namespace cross::ckks {

using poly::RnsPoly;

namespace {

/** Scales must agree to fp tolerance before add/sub. */
void
checkScales(const Ciphertext &a, const Ciphertext &b)
{
    requireThat(ckksScalesMatch(a.scale, b.scale),
                "ciphertext scales do not match");
}

} // namespace

void
CkksEvaluator::logCall(KernelKind kind, u32 limbs, u32 limbs_out,
                       double seconds) const
{
    if (log_)
        log_->add(kind, ctx_.degree(), limbs, limbs_out, seconds);
}

Ciphertext
CkksEvaluator::add(const Ciphertext &a, const Ciphertext &b) const
{
    checkScales(a, b);
    const size_t limbs = std::min(a.limbs(), b.limbs());
    Ciphertext r = reduceToLimbs(a, limbs);
    Ciphertext bb = reduceToLimbs(b, limbs);
    WallTimer t;
    r.c0.addInPlace(bb.c0);
    r.c1.addInPlace(bb.c1);
    logCall(KernelKind::VecModAdd, static_cast<u32>(2 * limbs), 0,
            t.seconds());
    return r;
}

Ciphertext
CkksEvaluator::sub(const Ciphertext &a, const Ciphertext &b) const
{
    checkScales(a, b);
    const size_t limbs = std::min(a.limbs(), b.limbs());
    Ciphertext r = reduceToLimbs(a, limbs);
    Ciphertext bb = reduceToLimbs(b, limbs);
    WallTimer t;
    r.c0.subInPlace(bb.c0);
    r.c1.subInPlace(bb.c1);
    logCall(KernelKind::VecModSub, static_cast<u32>(2 * limbs), 0,
            t.seconds());
    return r;
}

Ciphertext3
CkksEvaluator::multiplyNoRelin(const Ciphertext &a,
                               const Ciphertext &b) const
{
    const size_t limbs = std::min(a.limbs(), b.limbs());
    requireThat(limbs >= 1, "multiplyNoRelin: empty operand");
    // The tensor reads the operands' first `limbs` limbs in place; the
    // cross term a0*b1 + a1*b0 is one fused inner product, so its
    // VecModAdd is logged with no time of its own.
    const std::vector<u32> slots(a.c0.slots().begin(),
                                 a.c0.slots().begin() + limbs);
    WallTimer t;
    Ciphertext3 r;
    r.c0 = RnsPoly(ctx_.ring(), slots, true);
    r.c1 = RnsPoly(ctx_.ring(), slots, true);
    r.c2 = RnsPoly(ctx_.ring(), slots, true);
    const RnsPoly *a0[] = {&a.c0}, *b0[] = {&b.c0};
    const RnsPoly *a1[] = {&a.c1}, *b1[] = {&b.c1};
    const RnsPoly *ax[] = {&a.c0, &a.c1}, *bx[] = {&b.c1, &b.c0};
    r.c0.setInnerProduct(a0, b0, 1);        // a0*b0
    r.c1.setInnerProduct(ax, bx, 2);        // a0*b1 + a1*b0
    r.c2.setInnerProduct(a1, b1, 1);        // a1*b1
    logCall(KernelKind::VecModMul, static_cast<u32>(4 * limbs), 0,
            t.seconds());
    logCall(KernelKind::VecModAdd, static_cast<u32>(limbs), 0, 0.0);
    r.scale = a.scale * b.scale;
    return r;
}

Ciphertext
CkksEvaluator::relinearize(const Ciphertext3 &c, const SwitchKey &rlk) const
{
    return relinearize(
        c, precomputeKeySwitch(rlk, c.c2.limbCount() - 1));
}

Ciphertext
CkksEvaluator::relinearize(const Ciphertext3 &c,
                           const KeySwitchPrecomp &pre) const
{
    // A stale or mis-indexed precomp would otherwise key-switch with
    // the wrong digit restriction and silently produce garbage.
    requireThat(pre.level == c.c2.limbCount() - 1,
                "relinearize: precomp level does not match ciphertext");
    auto [k0, k1] = keySwitch(c.c2, pre);
    Ciphertext r;
    r.c0 = std::move(k0);
    r.c1 = std::move(k1);
    WallTimer t;
    r.c0.addInPlace(c.c0);
    r.c1.addInPlace(c.c1);
    logCall(KernelKind::VecModAdd, static_cast<u32>(2 * c.c0.limbCount()),
            0, t.seconds());
    r.scale = c.scale;
    return r;
}

Ciphertext
CkksEvaluator::multiply(const Ciphertext &a, const Ciphertext &b,
                        const SwitchKey &rlk) const
{
    return relinearize(multiplyNoRelin(a, b), rlk);
}

Ciphertext
CkksEvaluator::multiply(const Ciphertext &a, const Ciphertext &b,
                        const KeySwitchPrecomp &pre) const
{
    requireThat(pre.level + 1 == std::min(a.limbs(), b.limbs()),
                "multiply: precomp level does not match operand level");
    return relinearize(multiplyNoRelin(a, b), pre);
}

Ciphertext
CkksEvaluator::rescale(const Ciphertext &ct) const
{
    const size_t limbs = ct.limbs();
    requireThat(limbs >= 2, "rescale: no limb left to drop");
    const size_t l = limbs - 1;
    const u64 q_l = ctx_.qModulus(l);

    Ciphertext r = ct;
    for (RnsPoly *comp : {&r.c0, &r.c1}) {
        // INTT the dropped limb to coefficients.
        WallTimer ti;
        std::vector<u32> last = comp->limb(l);
        poly::inverseInPlace(last.data(), ctx_.ring().tables(l));
        logCall(KernelKind::Intt, 1, 0, ti.seconds());

        // The per-limb fold is independent across target limbs. Run the
        // lifts over the 2-D (limb x coefficient-range) split, batch
        // the NTTs so the pool can also split inside a limb, then fold
        // through the dispatched vector lanes; the kernel log is
        // emitted afterwards in limb order with even per-limb time
        // shares, keeping its shape deterministic under any thread
        // count.
        WallTimer tn;
        std::vector<std::vector<u32>> lifted(l);
        for (size_t i = 0; i < l; ++i)
            lifted[i].resize(last.size());
        parallelFor2D(l, last.size(),
                      [&](size_t i, size_t lo, size_t hi) {
            const u64 q_i = ctx_.qModulus(i);
            // Exact centered lift of [c]_{q_l} into q_i.
            for (size_t n = lo; n < hi; ++n) {
                const u64 v = last[n];
                lifted[i][n] = static_cast<u32>(
                    v > q_l / 2 ? q_i - ((q_l - v) % q_i) : v % q_i);
            }
        });
        std::vector<u32 *> polys(l);
        std::vector<const poly::NttTables *> tabs(l);
        for (size_t i = 0; i < l; ++i) {
            polys[i] = lifted[i].data();
            tabs[i] = &ctx_.ring().tables(i);
        }
        poly::forwardInPlaceMany(polys.data(), tabs.data(), l);
        const double ntt_share = l ? tn.seconds() / l : 0.0;

        WallTimer tv;
        std::vector<nt::ShoupConst> inv(l);
        for (size_t i = 0; i < l; ++i) {
            inv[i] = nt::shoupPrecompute(
                static_cast<u32>(ctx_.qInvModQ(l, i)),
                static_cast<u32>(ctx_.qModulus(i)));
        }
        parallelFor2D(l, last.size(),
                      [&](size_t i, size_t lo, size_t hi) {
            const u32 q = static_cast<u32>(ctx_.qModulus(i));
            u32 *dst = comp->limb(i).data();
            nt::subModVec(dst + lo, dst + lo, lifted[i].data() + lo,
                          hi - lo, q);
            nt::mulShoupVec(dst + lo, dst + lo, inv[i], hi - lo, q);
        });
        const double vec_share = l ? tv.seconds() / l : 0.0;
        for (size_t i = 0; i < l; ++i) {
            logCall(KernelKind::Ntt, 1, 0, ntt_share);
            logCall(KernelKind::VecModSub, 1, 0, 0.0);
            logCall(KernelKind::VecModMulConst, 1, 0, vec_share);
        }
        comp->dropLastLimb();
    }
    r.scale = ct.scale / static_cast<double>(q_l);
    return r;
}

Ciphertext
CkksEvaluator::rescaleMulti(const Ciphertext &ct) const
{
    const u32 split = ctx_.params().rescaleSplit;
    requireThat(ct.limbs() > split,
                "rescaleMulti: not enough limbs for a double rescale");
    Ciphertext r = ct;
    for (u32 i = 0; i < split; ++i)
        r = rescale(r);
    return r;
}

Ciphertext
CkksEvaluator::rotate(const Ciphertext &ct, u32 auto_idx,
                      const SwitchKey &rot_key) const
{
    checkAutomorphismIndex(ctx_, auto_idx);
    return rotate(ct, auto_idx,
                  precomputeKeySwitch(rot_key, ct.limbs() - 1));
}

Ciphertext
CkksEvaluator::rotate(const Ciphertext &ct, u32 auto_idx,
                      const KeySwitchPrecomp &pre) const
{
    // A fan-out of one: the hoisted path IS the rotate path, so
    // rotateHoisted over N keys is bit-identical to N rotate calls by
    // construction (same decomposition, same arithmetic order).
    return applyHoistedRotation(ct, hoistedModUp(ct.c1), auto_idx, pre);
}

HoistedDecomp
CkksEvaluator::hoistedModUp(const RnsPoly &c1) const
{
    requireThat(c1.limbCount() >= 1, "hoistedModUp: empty input");
    HoistedDecomp dec;
    dec.level = c1.limbCount() - 1;
    dec.extSlots = ctx_.extendedSlots(dec.level);
    dec.digits = modUpPhase(c1, dec.extSlots);
    return dec;
}

Ciphertext
CkksEvaluator::applyHoistedRotation(const Ciphertext &ct,
                                    const HoistedDecomp &dec,
                                    u32 auto_idx,
                                    const KeySwitchPrecomp &pre) const
{
    checkAutomorphismIndex(ctx_, auto_idx);
    requireThat(dec.level == ct.limbs() - 1,
                "applyHoistedRotation: decomposition level does not "
                "match ciphertext");
    requireThat(pre.level == dec.level,
                "applyHoistedRotation: precomp level does not match "
                "decomposition");
    const size_t level = dec.level;
    const size_t d = ctx_.activeDigits(level);
    const size_t ext = dec.extSlots.size();
    internalCheck(dec.digits.size() == d && pre.keys.size() == d,
                  "applyHoistedRotation: digit count mismatch");

    // Permute the shared decomposition (and c0) into rotated position:
    // the eval-domain automorphism is a pure slot permutation, so it
    // commutes with the basis extension and one launch covers all
    // digits plus c0.
    WallTimer t;
    std::vector<RnsPoly> rotated;
    rotated.reserve(d);
    for (const auto &digit : dec.digits)
        rotated.push_back(digit.automorphism(auto_idx));
    RnsPoly r0 = ct.c0.automorphism(auto_idx);
    logCall(KernelKind::Automorphism,
            static_cast<u32>(d * ext + ct.limbs()), 0, t.seconds());

    // Inner product with the rotation key over all digits: one fused
    // multiply-accumulate per half, reading the shared precomp in place.
    WallTimer tm;
    auto [acc0, acc1] = keyInnerProduct(rotated, pre);
    logCall(KernelKind::VecModMul, static_cast<u32>(2 * d * ext), 0,
            tm.seconds());
    logCall(KernelKind::VecModAdd, static_cast<u32>(2 * d * ext), 0, 0.0);

    Ciphertext out;
    out.c0 = modDownPhase(std::move(acc0), level);
    out.c1 = modDownPhase(std::move(acc1), level);
    WallTimer t2;
    out.c0.addInPlace(r0);
    logCall(KernelKind::VecModAdd, static_cast<u32>(ct.limbs()), 0,
            t2.seconds());
    out.scale = ct.scale;
    return out;
}

Ciphertext
CkksEvaluator::applyHoistedRotation(const Ciphertext &ct,
                                    const HoistedDecomp &dec,
                                    u32 auto_idx,
                                    const SwitchKey &rot_key) const
{
    return applyHoistedRotation(ct, dec, auto_idx,
                                precomputeKeySwitch(rot_key, dec.level));
}

std::vector<Ciphertext>
CkksEvaluator::rotateHoisted(
    const Ciphertext &ct,
    const std::vector<std::pair<u32, const SwitchKey *>> &branches) const
{
    requireThat(!branches.empty(), "rotateHoisted: no branches");
    for (const auto &[k, key] : branches) {
        checkAutomorphismIndex(ctx_, k);
        requireThat(key != nullptr, "rotateHoisted: null rotation key");
    }
    const HoistedDecomp dec = hoistedModUp(ct.c1);
    std::vector<Ciphertext> out;
    out.reserve(branches.size());
    for (const auto &[k, key] : branches)
        out.push_back(applyHoistedRotation(ct, dec, k, *key));
    noteHoistedSaves(branches.size());
    return out;
}

void
CkksEvaluator::noteHoistedSaves(size_t fanout) const
{
    if (log_ && fanout > 1)
        log_->noteHoistedModUpSaves(fanout - 1);
}

Ciphertext
CkksEvaluator::addPlain(const Ciphertext &ct, const Plaintext &pt) const
{
    requireThat(ckksScalesMatch(ct.scale, pt.scale),
                "addPlain: scales do not match");
    // A short plaintext would silently truncate the ciphertext's
    // modulus chain; like the precomp-level checks, level mismatch is
    // the caller's bug, not an implicit conversion.
    requireThat(pt.poly.limbCount() >= ct.limbs(),
                "addPlain: plaintext level below ciphertext level");
    const size_t limbs = ct.limbs();
    Ciphertext r = reduceToLimbs(ct, limbs);
    RnsPoly p = pt.poly;
    p.truncateLimbs(limbs);
    WallTimer t;
    r.c0.addInPlace(p);
    logCall(KernelKind::VecModAdd, static_cast<u32>(limbs), 0, t.seconds());
    return r;
}

Ciphertext
CkksEvaluator::multiplyPlain(const Ciphertext &ct, const Plaintext &pt) const
{
    requireThat(pt.poly.limbCount() >= ct.limbs(),
                "multiplyPlain: plaintext level below ciphertext level");
    const size_t limbs = ct.limbs();
    Ciphertext r = reduceToLimbs(ct, limbs);
    RnsPoly p = pt.poly;
    p.truncateLimbs(limbs);
    WallTimer t;
    r.c0.mulPointwiseInPlace(p);
    r.c1.mulPointwiseInPlace(p);
    logCall(KernelKind::VecModMulConst, static_cast<u32>(2 * limbs), 0,
            t.seconds());
    r.scale = ct.scale * pt.scale;
    return r;
}

Ciphertext
CkksEvaluator::reduceToLimbs(const Ciphertext &ct, size_t limbs) const
{
    requireThat(limbs >= 1 && limbs <= ct.limbs(),
                "reduceToLimbs: bad limb count");
    Ciphertext r = ct;
    r.c0.truncateLimbs(limbs);
    r.c1.truncateLimbs(limbs);
    return r;
}

KeySwitchPrecomp
CkksEvaluator::precomputeKeySwitch(const SwitchKey &swk, size_t level) const
{
    const size_t d = ctx_.activeDigits(level);
    requireThat(d <= swk.digits().size(),
                "precomputeKeySwitch: not enough digits");
    KeySwitchPrecomp pre;
    pre.level = level;
    pre.extSlots = ctx_.extendedSlots(level);
    pre.keys.reserve(d);
    for (size_t j = 0; j < d; ++j) {
        pre.keys.emplace_back(
            swk.digits()[j].first.selectSlots(pre.extSlots),
            swk.digits()[j].second.selectSlots(pre.extSlots));
        // Warm the conversion cache so parallel batch items hit only
        // read paths.
        (void)ctx_.modUpConv(j, level);
    }
    (void)ctx_.modDownConv(level);
    return pre;
}

PrecompPtr
CkksEvaluator::precomputeKeySwitchShared(const SwitchKey &swk,
                                         size_t level) const
{
    // Check before the lookup: entries are keyed by id, and a
    // moved-from key keeps its id without its digits, so a hit must
    // not hide a key that could never have built the entry.
    requireThat(ctx_.activeDigits(level) <= swk.digits().size(),
                "key-switch precomp: switching key has too few digits "
                "for the level (moved-from, default-constructed or "
                "short key)");
    return ctx_.keySwitchCache().get(
        swk.id(), level, [&] { return precomputeKeySwitch(swk, level); });
}

const KeySwitchPrecomp &
CkksEvaluator::precomputeKeySwitchCached(const SwitchKey &swk,
                                         size_t level) const
{
    return *precomputeKeySwitchShared(swk, level);
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::keySwitch(const RnsPoly &c, const SwitchKey &swk) const
{
    requireThat(c.limbCount() >= 1, "keySwitch: empty input");
    return keySwitch(c, precomputeKeySwitch(swk, c.limbCount() - 1));
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::keySwitch(const RnsPoly &c,
                         const KeySwitchPrecomp &pre) const
{
    requireThat(c.limbCount() - 1 == pre.level,
                "keySwitch: precomp level mismatch");
    const size_t level = pre.level;
    const size_t d = ctx_.activeDigits(level);
    const size_t ext = pre.extSlots.size();

    // Phase 1 (ModUp), then phase 2 (the inner product with the key
    // digits), then phase 3 (ModDown) -- the same three phases the
    // hoisted rotation path runs.
    const std::vector<RnsPoly> digits = modUpPhase(c, pre.extSlots);

    // Phase 2 is one fused pass over all digits; its time is logged on
    // the per-digit VecModMul entries in even shares.
    WallTimer tm;
    auto [acc0, acc1] = keyInnerProduct(digits, pre);
    const double share = tm.seconds() / static_cast<double>(d);
    for (size_t j = 0; j < d; ++j) {
        logCall(KernelKind::VecModMul, static_cast<u32>(2 * ext), 0, share);
        logCall(KernelKind::VecModAdd, static_cast<u32>(2 * ext), 0, 0.0);
    }

    return {modDownPhase(std::move(acc0), level),
            modDownPhase(std::move(acc1), level)};
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::keyInnerProduct(const std::vector<RnsPoly> &digits,
                               const KeySwitchPrecomp &pre) const
{
    const size_t d = digits.size();
    internalCheck(d >= 1 && d <= pre.keys.size(),
                  "keyInnerProduct: digit count mismatch");
    std::vector<const RnsPoly *> x(d), kb(d), ka(d);
    for (size_t j = 0; j < d; ++j) {
        x[j] = &digits[j];
        kb[j] = &pre.keys[j].first;
        ka[j] = &pre.keys[j].second;
    }
    std::pair<RnsPoly, RnsPoly> acc{RnsPoly(ctx_.ring(), pre.extSlots, true),
                                    RnsPoly(ctx_.ring(), pre.extSlots, true)};
    acc.first.setInnerProduct(kb.data(), x.data(), d);
    acc.second.setInnerProduct(ka.data(), x.data(), d);
    return acc;
}

std::vector<RnsPoly>
CkksEvaluator::modUpPhase(const RnsPoly &c,
                          const std::vector<u32> &ext_slots) const
{
    requireThat(c.isEval(), "keySwitch: input must be in eval domain");
    const size_t level = c.limbCount() - 1;
    const size_t d = ctx_.activeDigits(level);
    const size_t ext = ext_slots.size();

    // INTT the input once; digits share the coefficient form.
    WallTimer ti;
    RnsPoly c_coeff = c;
    c_coeff.toCoeff();
    logCall(KernelKind::Intt, static_cast<u32>(level + 1), 0, ti.seconds());

    std::vector<RnsPoly> digits;
    digits.reserve(d);
    for (size_t j = 0; j < d; ++j) {
        const auto [first, last] = ctx_.digitRange(j, level);
        const auto &conv = ctx_.modUpConv(j, level);

        // Assemble the extended-basis digit polynomial in eval domain:
        // digit limbs come straight from c (already NTT'd); ModUp
        // converts the digit from c_coeff's limbs straight into the
        // other (complement + P) limbs, which are then transformed
        // limb-parallel.
        RnsPoly up(ctx_.ring(), ext_slots, true);
        std::vector<u32 *> conv_out;
        std::vector<const poly::NttTables *> conv_tabs;
        for (size_t pos = 0; pos < ext; ++pos) {
            const u32 ring_idx = ext_slots[pos];
            const bool in_digit =
                ring_idx >= first && ring_idx < last &&
                ring_idx < ctx_.qCount();
            if (in_digit) {
                up.limb(pos) = c.limb(ring_idx);
            } else {
                conv_out.push_back(up.limb(pos).data());
                conv_tabs.push_back(&ctx_.ring().tables(ring_idx));
            }
        }
        internalCheck(conv_out.size() == conv.to().size(),
                      "keySwitch: modup mismatch");
        std::vector<const u32 *> conv_in(last - first);
        for (size_t i = first; i < last; ++i)
            conv_in[i - first] = c_coeff.limb(i).data();

        WallTimer tb;
        conv.apply(conv_in.data(), conv_out.data(), ctx_.degree());
        logCall(KernelKind::BConv, static_cast<u32>(last - first),
                static_cast<u32>(conv_out.size()), tb.seconds());

        WallTimer tn;
        poly::forwardInPlaceMany(conv_out.data(), conv_tabs.data(),
                                 conv_out.size());
        logCall(KernelKind::Ntt, static_cast<u32>(conv_out.size()), 0,
                tn.seconds());
        digits.push_back(std::move(up));
    }
    return digits;
}

RnsPoly
CkksEvaluator::modDownPhase(RnsPoly acc, size_t level) const
{
    // ModDown: (acc - Conv_P->Q(acc_P)) * P^-1.
    const auto &conv = ctx_.modDownConv(level);

    // INTT acc's P limbs in place, then convert them straight into
    // conv_q's limbs.
    WallTimer ti2;
    std::vector<u32 *> ppolys(ctx_.pCount());
    std::vector<const poly::NttTables *> ptabs(ctx_.pCount());
    for (size_t jj = 0; jj < ctx_.pCount(); ++jj) {
        ppolys[jj] = acc.limb(level + 1 + jj).data();
        ptabs[jj] = &ctx_.ring().tables(ctx_.pSlot(jj));
    }
    poly::inverseInPlaceMany(ppolys.data(), ptabs.data(),
                             ctx_.pCount());
    logCall(KernelKind::Intt, static_cast<u32>(ctx_.pCount()), 0,
            ti2.seconds());

    RnsPoly conv_q(ctx_.ring(), level + 1, true);
    std::vector<u32 *> qpolys(level + 1);
    std::vector<const poly::NttTables *> qtabs(level + 1);
    for (size_t i = 0; i <= level; ++i) {
        qpolys[i] = conv_q.limb(i).data();
        qtabs[i] = &ctx_.ring().tables(i);
    }
    WallTimer tb2;
    conv.apply(ppolys.data(), qpolys.data(), ctx_.degree());
    logCall(KernelKind::BConv, static_cast<u32>(ctx_.pCount()),
            static_cast<u32>(level + 1), tb2.seconds());

    WallTimer tn2;
    poly::forwardInPlaceMany(qpolys.data(), qtabs.data(), level + 1);
    logCall(KernelKind::Ntt, static_cast<u32>(level + 1), 0,
            tn2.seconds());

    // (acc - conv) * P^-1 in acc's own Q limbs, one fused pass per
    // chunk as in rescale.
    WallTimer tv;
    acc.truncateLimbs(level + 1);
    std::vector<nt::ShoupConst> pinv(level + 1);
    for (size_t i = 0; i <= level; ++i) {
        const u32 q = static_cast<u32>(ctx_.qModulus(i));
        pinv[i] = nt::shoupPrecompute(
            static_cast<u32>(ctx_.pInvModQ(i) % q), q);
    }
    parallelFor2D(level + 1, ctx_.degree(),
                  [&](size_t i, size_t lo, size_t hi) {
        const u32 q = static_cast<u32>(ctx_.qModulus(i));
        u32 *dst = acc.limb(i).data();
        nt::subModVec(dst + lo, dst + lo, conv_q.limb(i).data() + lo,
                      hi - lo, q);
        nt::mulShoupVec(dst + lo, dst + lo, pinv[i], hi - lo, q);
    });
    logCall(KernelKind::VecModSub, static_cast<u32>(level + 1), 0, 0.0);
    logCall(KernelKind::VecModMulConst, static_cast<u32>(level + 1), 0,
            tv.seconds());
    return acc;
}

} // namespace cross::ckks
