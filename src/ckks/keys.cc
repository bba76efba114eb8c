#include "ckks/keys.h"

#include <atomic>

namespace cross::ckks {

using poly::RnsPoly;

SwitchKey::SwitchKey(std::vector<Digit> digits) : digits_(std::move(digits))
{
    static std::atomic<u64> next_id{0};
    id_ = ++next_id;
}

KeyGenerator::KeyGenerator(const CkksContext &ctx, u64 seed)
    : ctx_(ctx), rng_(seed)
{
    const size_t full = ctx_.qCount() + ctx_.pCount();
    sk_.s = RnsPoly::ternary(ctx_.ring(), full, rng_);
    sk_.s.toEval();
}

PublicKey
KeyGenerator::publicKey()
{
    const size_t l = ctx_.qCount();
    PublicKey pk;
    pk.a = RnsPoly::uniform(ctx_.ring(), l, true, rng_);
    RnsPoly e = RnsPoly::gaussian(ctx_.ring(), l, rng_, ctx_.params().sigma);
    e.toEval();
    RnsPoly s_l = sk_.s;
    s_l.truncateLimbs(l);
    // b = -a*s + e
    pk.b = pk.a;
    pk.b.mulPointwiseInPlace(s_l);
    pk.b.negateInPlace();
    pk.b.addInPlace(e);
    return pk;
}

SwitchKey
KeyGenerator::switchKeyFor(const RnsPoly &s_src)
{
    const size_t full = ctx_.qCount() + ctx_.pCount();
    std::vector<SwitchKey::Digit> digits;
    digits.reserve(ctx_.params().dnum);
    for (u32 j = 0; j < ctx_.params().dnum; ++j) {
        RnsPoly a = RnsPoly::uniform(ctx_.ring(), full, true, rng_);
        RnsPoly e =
            RnsPoly::gaussian(ctx_.ring(), full, rng_, ctx_.params().sigma);
        e.toEval();

        // F_j: P on digit-j q-limbs, 0 elsewhere (incl. all p-limbs).
        std::vector<u64> f(full, 0);
        for (size_t i = 0; i < ctx_.qCount(); ++i) {
            if (ctx_.digitOf(i) == j)
                f[i] = ctx_.pModQ(i);
        }
        RnsPoly term = s_src;
        term.mulScalarPerLimbInPlace(f);

        RnsPoly b = a;
        b.mulPointwiseInPlace(sk_.s);
        b.negateInPlace();
        b.addInPlace(e);
        b.addInPlace(term);
        digits.emplace_back(std::move(b), std::move(a));
    }
    return SwitchKey(std::move(digits));
}

SwitchKey
KeyGenerator::relinKey()
{
    RnsPoly s2 = sk_.s;
    s2.mulPointwiseInPlace(sk_.s);
    return switchKeyFor(s2);
}

SwitchKey
KeyGenerator::rotationKey(u32 auto_idx)
{
    return switchKeyFor(sk_.s.automorphism(auto_idx));
}

} // namespace cross::ckks
