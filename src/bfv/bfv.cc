#include "bfv/bfv.h"

#include "common/bitops.h"
#include "common/check.h"
#include "common/timer.h"
#include "nt/modops.h"
#include "nt/primes.h"
#include "poly/ntt_ct.h"

namespace cross::bfv {

using ckks::KernelKind;
using nt::BigUInt;
using poly::RnsPoly;

BfvParams
BfvParams::testSet(u32 n, size_t limbs, u32 logt)
{
    BfvParams p;
    p.n = n;
    p.limbs = limbs;
    p.logt = logt;
    return p;
}

BfvContext::BfvContext(BfvParams params)
    : params_(params), qBasis_({3}), qbBasis_({3}) // replaced below
{
    requireThat(isPow2(params_.n) && params_.n >= 8,
                "BfvContext: N must be a power of two >= 8");
    requireThat(params_.logt >= 4 && params_.logt < params_.logq,
                "BfvContext: need t << q");

    const u64 step = 2ULL * params_.n;
    auto q_moduli = nt::generateNttPrimes(params_.logq, params_.limbs, step);
    // Extension basis B with Q*B > 2*N*Q^2: one extra limb covers
    // log2(2N) <= 17 < logq; one more for margin.
    bCount_ = params_.limbs + 2;
    auto b_moduli = nt::generateNttPrimesAvoiding(params_.logq + 1, bCount_,
                                                  step, q_moduli);
    t_ = static_cast<u32>(
        nt::generateNttPrimesAvoiding(params_.logt, 1, step, q_moduli)[0]);

    std::vector<u64> all = q_moduli;
    all.insert(all.end(), b_moduli.begin(), b_moduli.end());
    ring_ = std::make_unique<poly::Ring>(params_.n, all);
    plainTables_ = std::make_unique<poly::NttTables>(params_.n, t_);

    qBasis_ = rns::RnsBasis(q_moduli);
    qbBasis_ = rns::RnsBasis(all);
    bigQ_ = qBasis_.bigModulus();

    // Delta = floor(Q / t), reduced per q limb.
    u64 rem = 0;
    const BigUInt delta = bigQ_.divmodSmall(t_, rem);
    deltaModQ_.resize(params_.limbs);
    for (size_t i = 0; i < params_.limbs; ++i)
        deltaModQ_[i] = delta.modSmall(q_moduli[i]);

    qToB_ = std::make_unique<rns::BasisConversion>(qBasis_,
                                                   rns::RnsBasis(b_moduli));
    digitConv_.reserve(params_.limbs);
    for (size_t i = 0; i < params_.limbs; ++i) {
        std::vector<u64> rest = q_moduli;
        rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
        digitConv_.emplace_back(rns::RnsBasis({q_moduli[i]}),
                                rns::RnsBasis(std::move(rest)));
    }
    scaleDown_ = std::make_unique<ScaleRound>(qbBasis_, params_.limbs, t_,
                                              q_moduli);
    decryptScale_ = std::make_unique<ScaleRound>(
        qBasis_, params_.limbs, t_, std::vector<u64>{t_});
}

BfvPlaintext
BfvEncoder::encode(const std::vector<u64> &values) const
{
    const u32 n = ctx_.degree();
    requireThat(values.size() <= n, "BfvEncoder: too many values");
    BfvPlaintext pt;
    pt.coeffs.resize(n, 0);
    const u32 t = ctx_.plainModulus();
    for (size_t i = 0; i < values.size(); ++i)
        pt.coeffs[i] = static_cast<u32>(values[i] % t);
    // Slots -> coefficients: inverse NTT modulo t.
    poly::inverseInPlace(pt.coeffs.data(), ctx_.plainTables());
    return pt;
}

std::vector<u64>
BfvEncoder::decode(const BfvPlaintext &pt) const
{
    std::vector<u32> coeffs = pt.coeffs;
    poly::forwardInPlace(coeffs.data(), ctx_.plainTables());
    return {coeffs.begin(), coeffs.end()};
}

BfvKeyGenerator::BfvKeyGenerator(const BfvContext &ctx, u64 seed)
    : ctx_(ctx), rng_(seed)
{
    const size_t full = ctx_.qCount() + ctx_.bCount();
    sk_.s = RnsPoly::ternary(ctx_.ring(), full, rng_);
    sk_.s.toEval();
}

BfvPublicKey
BfvKeyGenerator::publicKey()
{
    const size_t l = ctx_.qCount();
    BfvPublicKey pk;
    pk.a = RnsPoly::uniform(ctx_.ring(), l, true, rng_);
    RnsPoly e =
        RnsPoly::gaussian(ctx_.ring(), l, rng_, ctx_.params().sigma);
    e.toEval();
    RnsPoly s_l = sk_.s;
    s_l.truncateLimbs(l);
    pk.b = pk.a;
    pk.b.mulPointwiseInPlace(s_l);
    pk.b.negateInPlace();
    pk.b.addInPlace(e);
    return pk;
}

BfvSwitchKey
BfvKeyGenerator::switchKeyFor(const RnsPoly &s_src)
{
    // Per-limb RNS gadget: F_i == 1 (mod q_i), 0 on the other q limbs --
    // realised as F_i = (Q/q_i) * [(Q/q_i)^-1]_{q_i} mod Q.
    const size_t l = ctx_.qCount();
    RnsPoly s_l = sk_.s;
    s_l.truncateLimbs(l);

    BfvSwitchKey swk;
    swk.digits.reserve(l);
    for (size_t i = 0; i < l; ++i) {
        RnsPoly a = RnsPoly::uniform(ctx_.ring(), l, true, rng_);
        RnsPoly e =
            RnsPoly::gaussian(ctx_.ring(), l, rng_, ctx_.params().sigma);
        e.toEval();

        std::vector<u64> f(l, 0);
        f[i] = 1; // delta_ij gadget in RNS form
        RnsPoly term = s_src;
        term.truncateLimbs(l);
        term.mulScalarPerLimbInPlace(f);

        RnsPoly b = a;
        b.mulPointwiseInPlace(s_l);
        b.negateInPlace();
        b.addInPlace(e);
        b.addInPlace(term);
        swk.digits.emplace_back(std::move(b), std::move(a));
    }
    return swk;
}

BfvSwitchKey
BfvKeyGenerator::relinKey()
{
    RnsPoly s2 = sk_.s;
    s2.mulPointwiseInPlace(sk_.s);
    return switchKeyFor(s2);
}

BfvSwitchKey
BfvKeyGenerator::rotationKey(u32 auto_idx)
{
    return switchKeyFor(sk_.s.automorphism(auto_idx));
}

void
BfvEvaluator::logCall(KernelKind kind, u32 limbs, u32 limbs_out,
                      double seconds) const
{
    if (log_)
        log_->add(kind, ctx_.degree(), limbs, limbs_out, seconds);
}

BfvCiphertext
BfvEvaluator::encrypt(const BfvPlaintext &pt, const BfvPublicKey &pk,
                      Rng &rng) const
{
    const size_t l = ctx_.qCount();
    RnsPoly v = RnsPoly::ternary(ctx_.ring(), l, rng);
    v.toEval();
    RnsPoly e0 = RnsPoly::gaussian(ctx_.ring(), l, rng,
                                   ctx_.params().sigma);
    e0.toEval();
    RnsPoly e1 = RnsPoly::gaussian(ctx_.ring(), l, rng,
                                   ctx_.params().sigma);
    e1.toEval();

    // Delta * m lifted to RNS, eval domain.
    RnsPoly dm(ctx_.ring(), l, false);
    for (size_t i = 0; i < l; ++i) {
        const u64 q = ctx_.ring().modulus(i);
        const u64 d = ctx_.deltaModQ(i);
        for (u32 j = 0; j < ctx_.degree(); ++j)
            dm.limb(i)[j] =
                static_cast<u32>(nt::mulMod(pt.coeffs[j] % q, d, q));
    }
    dm.toEval();

    BfvCiphertext ct;
    ct.c0 = pk.b;
    ct.c0.mulPointwiseInPlace(v);
    ct.c0.addInPlace(e0);
    ct.c0.addInPlace(dm);
    ct.c1 = pk.a;
    ct.c1.mulPointwiseInPlace(v);
    ct.c1.addInPlace(e1);
    return ct;
}

BfvPlaintext
BfvEvaluator::decrypt(const BfvCiphertext &ct, const BfvSecretKey &sk) const
{
    const size_t l = ct.c0.limbCount();
    RnsPoly s = sk.s;
    s.truncateLimbs(l);
    RnsPoly w = ct.c1;
    w.mulPointwiseInPlace(s);
    w.addInPlace(ct.c0);
    w.toCoeff();

    // m = round(t * w / Q) mod t.
    BfvPlaintext pt;
    pt.coeffs.resize(ctx_.degree());
    std::vector<const u32 *> in(l);
    for (size_t i = 0; i < l; ++i)
        in[i] = w.limb(i).data();
    ctx_.decryptScale().apply(in, {pt.coeffs.data()}, ctx_.degree());
    return pt;
}

BfvCiphertext
BfvEvaluator::add(const BfvCiphertext &a, const BfvCiphertext &b) const
{
    WallTimer timer;
    BfvCiphertext r = a;
    r.c0.addInPlace(b.c0);
    r.c1.addInPlace(b.c1);
    logCall(KernelKind::VecModAdd,
            static_cast<u32>(2 * a.c0.limbCount()), 0, timer.seconds());
    return r;
}

namespace {

/** Extend a Q-basis eval poly to the full Q u B basis (BFV ModUp). */
RnsPoly
modUpToQb(const BfvContext &ctx, const RnsPoly &c, ckks::KernelLog *log)
{
    const size_t l = ctx.qCount();
    const size_t full = l + ctx.bCount();
    const u32 n = ctx.degree();

    WallTimer ti;
    RnsPoly coeff = c;
    coeff.toCoeff();
    if (log)
        log->add(KernelKind::Intt, n, static_cast<u32>(l), 0, ti.seconds());

    WallTimer tb;
    rns::LimbMatrix in(l), out;
    for (size_t i = 0; i < l; ++i)
        in[i] = coeff.limb(i);
    ctx.qToB().apply(in, out);
    if (log)
        log->add(KernelKind::BConv, n, static_cast<u32>(l),
                 static_cast<u32>(ctx.bCount()), tb.seconds());

    WallTimer tn;
    RnsPoly up(ctx.ring(), full, true);
    for (size_t i = 0; i < l; ++i)
        up.limb(i) = c.limb(i); // already in eval domain
    for (size_t j = 0; j < ctx.bCount(); ++j) {
        up.limb(l + j) = std::move(out[j]);
        poly::forwardInPlace(up.limb(l + j).data(),
                             ctx.ring().tables(l + j));
    }
    if (log)
        log->add(KernelKind::Ntt, n, static_cast<u32>(ctx.bCount()), 0,
                 tn.seconds());
    return up;
}

} // namespace

BfvCiphertext
BfvEvaluator::multiply(const BfvCiphertext &a, const BfvCiphertext &b,
                       const BfvSwitchKey &rlk) const
{
    const size_t l = ctx_.qCount();
    const size_t full = l + ctx_.bCount();
    const u32 n = ctx_.degree();

    // ModUp all four components to Q u B.
    const RnsPoly a0 = modUpToQb(ctx_, a.c0, log_);
    const RnsPoly a1 = modUpToQb(ctx_, a.c1, log_);
    const RnsPoly b0 = modUpToQb(ctx_, b.c0, log_);
    const RnsPoly b1 = modUpToQb(ctx_, b.c1, log_);

    // Tensor in eval domain: (d0, d1, d2), with d1 = a0*b1 + a1*b0 as
    // one fused inner product (its VecModAdd carries no time).
    WallTimer tm;
    RnsPoly d0(ctx_.ring(), full, true), d1(ctx_.ring(), full, true),
        d2(ctx_.ring(), full, true);
    const RnsPoly *x0[] = {&a0}, *y0[] = {&b0};
    const RnsPoly *x1[] = {&a0, &a1}, *y1[] = {&b1, &b0};
    const RnsPoly *x2[] = {&a1}, *y2[] = {&b1};
    d0.setInnerProduct(x0, y0, 1);
    d1.setInnerProduct(x1, y1, 2);
    d2.setInnerProduct(x2, y2, 1);
    logCall(KernelKind::VecModMul, static_cast<u32>(4 * full), 0,
            tm.seconds());
    logCall(KernelKind::VecModAdd, static_cast<u32>(full), 0, 0.0);

    // Scale by t/Q in RNS: Q u B -> Q.
    WallTimer ti;
    RnsPoly *tensor[3] = {&d0, &d1, &d2};
    for (RnsPoly *d : tensor)
        d->toCoeff();
    logCall(KernelKind::Intt, static_cast<u32>(3 * full), 0, ti.seconds());
    WallTimer ts;
    RnsPoly scaled[3] = {RnsPoly(ctx_.ring(), l, false),
                         RnsPoly(ctx_.ring(), l, false),
                         RnsPoly(ctx_.ring(), l, false)};
    for (int comp = 0; comp < 3; ++comp) {
        std::vector<const u32 *> in(full);
        std::vector<u32 *> out(l);
        for (size_t i = 0; i < full; ++i)
            in[i] = tensor[comp]->limb(i).data();
        for (size_t i = 0; i < l; ++i)
            out[i] = scaled[comp].limb(i).data();
        ctx_.scaleDown().apply(in, out, n);
    }
    logCall(KernelKind::BConv, static_cast<u32>(3 * full),
            static_cast<u32>(3 * l), ts.seconds());

    WallTimer tn;
    for (auto &p : scaled)
        p.toEval();
    logCall(KernelKind::Ntt, static_cast<u32>(3 * l), 0, tn.seconds());

    // Relinearise d2 back onto (c0, c1).
    auto [k0, k1] = keySwitch(scaled[2], rlk);
    WallTimer tadd;
    BfvCiphertext out;
    out.c0 = std::move(scaled[0]);
    out.c0.addInPlace(k0);
    out.c1 = std::move(scaled[1]);
    out.c1.addInPlace(k1);
    logCall(KernelKind::VecModAdd, static_cast<u32>(2 * l), 0,
            tadd.seconds());
    return out;
}

std::pair<RnsPoly, RnsPoly>
BfvEvaluator::keySwitch(const RnsPoly &c, const BfvSwitchKey &swk) const
{
    requireThat(c.isEval(), "BFV keySwitch: input must be in eval domain");
    const size_t l = c.limbCount();
    requireThat(l == ctx_.qCount(),
                "BFV keySwitch: input must span the Q basis");
    requireThat(swk.digits.size() >= l, "BFV keySwitch: missing digits");

    WallTimer ti;
    RnsPoly c_coeff = c;
    c_coeff.toCoeff();
    logCall(KernelKind::Intt, static_cast<u32>(l), 0, ti.seconds());

    // Lift every digit first, then run the inner product with the key
    // digits as one fused pass that reads them in place. The log keeps
    // its per-digit order (BConv, Ntt, VecModMul, VecModAdd), with the
    // fused time in even shares on the VecModMul entries.
    std::vector<RnsPoly> ups;
    ups.reserve(l);
    std::vector<double> bconv_s(l), ntt_s(l);
    for (size_t i = 0; i < l; ++i) {
        // Digit i: limb i exact, converted to the other q limbs.
        WallTimer tb;
        rns::LimbMatrix in = {c_coeff.limb(i)}, out;
        ctx_.digitConversion(i).apply(in, out);
        bconv_s[i] = tb.seconds();

        WallTimer tn;
        RnsPoly &up = ups.emplace_back(ctx_.ring(), l, true);
        size_t pos = 0;
        for (size_t j = 0; j < l; ++j) {
            if (j == i) {
                up.limb(j) = c.limb(i);
            } else {
                up.limb(j) = std::move(out[pos++]);
                poly::forwardInPlace(up.limb(j).data(),
                                     ctx_.ring().tables(j));
            }
        }
        ntt_s[i] = tn.seconds();
    }
    std::vector<const RnsPoly *> x(l), kb(l), ka(l);
    for (size_t i = 0; i < l; ++i) {
        x[i] = &ups[i];
        kb[i] = &swk.digits[i].first;
        ka[i] = &swk.digits[i].second;
    }

    WallTimer tmul;
    std::pair<RnsPoly, RnsPoly> acc{RnsPoly(ctx_.ring(), l, true),
                                    RnsPoly(ctx_.ring(), l, true)};
    acc.first.setInnerProduct(kb.data(), x.data(), l);
    acc.second.setInnerProduct(ka.data(), x.data(), l);
    const double share = tmul.seconds() / static_cast<double>(l);
    for (size_t i = 0; i < l; ++i) {
        logCall(KernelKind::BConv, 1, static_cast<u32>(l - 1), bconv_s[i]);
        logCall(KernelKind::Ntt, static_cast<u32>(l - 1), 0, ntt_s[i]);
        logCall(KernelKind::VecModMul, static_cast<u32>(2 * l), 0, share);
        logCall(KernelKind::VecModAdd, static_cast<u32>(2 * l), 0, 0.0);
    }
    return acc;
}

BfvCiphertext
BfvEvaluator::rotate(const BfvCiphertext &ct, u32 auto_idx,
                     const BfvSwitchKey &key) const
{
    WallTimer t;
    RnsPoly r0 = ct.c0.automorphism(auto_idx);
    RnsPoly r1 = ct.c1.automorphism(auto_idx);
    logCall(KernelKind::Automorphism,
            static_cast<u32>(2 * ct.c0.limbCount()), 0, t.seconds());
    auto [k0, k1] = keySwitch(r1, key);
    WallTimer ta;
    BfvCiphertext out;
    out.c0 = std::move(r0);
    out.c0.addInPlace(k0);
    out.c1 = std::move(k1);
    logCall(KernelKind::VecModAdd, static_cast<u32>(ct.c0.limbCount()), 0,
            ta.seconds());
    return out;
}

} // namespace cross::bfv
