#include "bfv/scale_round.h"

#include <algorithm>
#include <cmath>

#include "common/bitops.h"
#include "common/check.h"
#include "common/parallel.h"
#include "nt/modops.h"
#include "nt/modvec.h"

namespace cross::bfv {

using nt::BigUInt;

namespace {

/** Input-limb cap under which the doubles S and F err by < 2^-32. */
constexpr size_t kMaxLimbs = 1024;
/** Distance from a half-integer below which a coefficient falls back. */
constexpr double kTieMargin = 0x1p-30;

/** Widest modulus in @p moduli, in bits. */
u32
maxBits(const std::vector<u64> &moduli)
{
    u32 bits = 0;
    for (u64 m : moduli)
        bits = std::max(bits, ilog2(m) + 1);
    return bits;
}

/**
 * round(z) for z >= 0 (no exact half-integer can occur); sets
 * @p near_tie when z is within kTieMargin of a half-integer.
 */
u64
roundFlagged(double z, u8 &near_tie)
{
    const double whole = std::floor(z);
    const double frac = z - whole;
    near_tie |= std::fabs(frac - 0.5) < kTieMargin;
    return static_cast<u64>(whole) + (frac > 0.5 ? 1 : 0);
}

} // namespace

ScaleRound::ScaleRound(const rns::RnsBasis &in, size_t q_count, u64 t,
                       std::vector<u64> out)
    : in_(in), qCount_(q_count), t_(t), out_(std::move(out))
{
    const size_t k_all = in_.size();
    requireThat(q_count >= 1 && q_count <= k_all,
                "ScaleRound: Q must be a non-empty prefix of the input "
                "basis");
    requireThat(k_all <= kMaxLimbs,
                "ScaleRound: at most 1024 input limbs (the rounding "
                "error bound)");
    requireThat(t >= 2 && t < (1ULL << 31),
                "ScaleRound: need 2 <= t < 2^31");

    std::vector<u64> q_moduli(in_.moduli().begin(),
                              in_.moduli().begin() + q_count);
    std::vector<u64> b_moduli(in_.moduli().begin() + q_count,
                              in_.moduli().end());
    bigQ_ = BigUInt::product(q_moduli);
    const BigUInt big_b = BigUInt::product(b_moduli);
    const BigUInt tb = big_b * t;

    for (u64 o : out_)
        outBarrett_.emplace_back(static_cast<u32>(o)); // checks o < 2^31
    w_.assign(out_.size(), std::vector<u32>(k_all));
    for (size_t k = 0; k < k_all; ++k) {
        const u64 m = in_.modulus(k);
        mu_.push_back(nt::shoupPrecompute(static_cast<u32>(in_.qHatInv(k)),
                                          static_cast<u32>(m)));
        invM_.push_back(1.0 / static_cast<double>(m));
        u64 rem = 0;
        // Q limb: floor(tB/q_k) and R_k = [tB]_{q_k}. B limb: t*B/b_k.
        const BigUInt c = tb.divmodSmall(m, rem);
        if (k < q_count)
            rQ_.push_back(nt::shoupPrecompute(static_cast<u32>(rem),
                                              static_cast<u32>(m)));
        for (size_t i = 0; i < out_.size(); ++i)
            w_[i][k] = static_cast<u32>(c.modSmall(out_[i]));
    }
    for (u64 o : out_)
        negTb_.push_back(static_cast<u32>(nt::negMod(tb.modSmall(o), o)));

    // Each accumulator starts below 2^42 (the per-coefficient integer
    // terms: L * 2^31 + L plus v * [-tB] with v <= K <= 1024) and takes
    // at most 2^62 of products per window, so it stays below 2^63.
    const u32 slack = 62 - (maxBits(in_.moduli()) + maxBits(out_));
    reduceEvery_ = size_t{1} << std::min(slack, 20u);
}

size_t
ScaleRound::apply(const std::vector<const u32 *> &in,
                  const std::vector<u32 *> &out, size_t n) const
{
    requireThat(in.size() == in_.size() && out.size() == out_.size(),
                "ScaleRound::apply: limb count mismatch");
    const size_t k_all = in_.size();

    // y_k = [x_k * mu_k]_{m_k}.
    std::vector<std::vector<u32>> y(k_all, std::vector<u32>(n));
    parallelFor2D(k_all, n, [&](size_t k, size_t lo, size_t hi) {
        nt::mulShoupVec(y[k].data() + lo, in[k] + lo, mu_[k], hi - lo,
                        static_cast<u32>(in_.modulus(k)));
    });

    // Per coefficient: v = round(S) and the output-independent integer
    // sum_k floor(y_k R_k / q_k) + round(F).
    std::vector<u64> base(n, 0);
    std::vector<u32> v(n);
    std::vector<u8> near_tie(n, 0);
    parallelForRange(0, n, [&](size_t lo, size_t hi) {
        std::vector<double> s(hi - lo, 0.0), f(hi - lo, 0.0);
        for (size_t k = 0; k < k_all; ++k) {
            const u32 *yk = y[k].data() + lo;
            for (size_t j = 0; j < hi - lo; ++j)
                s[j] += static_cast<double>(yk[j]) * invM_[k];
        }
        for (size_t k = 0; k < qCount_; ++k) {
            const u32 *yk = y[k].data() + lo;
            const u64 q = in_.modulus(k);
            const nt::ShoupConst &r_k = rQ_[k];
            for (size_t j = 0; j < hi - lo; ++j) {
                // Shoup quotient estimate of y_k * R_k / q_k, off by <= 1.
                u64 quot = static_cast<u64>(
                    (static_cast<u128>(r_k.wShoup) * yk[j]) >> 64);
                u64 rem = static_cast<u64>(r_k.w) * yk[j] - quot * q;
                if (rem >= q) {
                    rem -= q;
                    ++quot;
                }
                base[lo + j] += quot;
                f[j] += static_cast<double>(rem) * invM_[k];
            }
        }
        for (size_t j = 0; j < hi - lo; ++j) {
            u8 &flag = near_tie[lo + j];
            v[lo + j] = static_cast<u32>(roundFlagged(s[j], flag));
            base[lo + j] += roundFlagged(f[j], flag);
        }
    });

    // out_i = [ base + v * [-tB]_{o_i} + sum_k y_k * w_ik ]_{o_i}.
    parallelFor2D(out_.size(), n, [&](size_t i, size_t lo, size_t hi) {
        const size_t len = hi - lo;
        std::vector<u64> acc(len);
        for (size_t j = 0; j < len; ++j)
            acc[j] = base[lo + j] + static_cast<u64>(v[lo + j]) * negTb_[i];
        size_t window = 0;
        for (size_t k = 0; k < k_all; ++k) {
            nt::accumMulVec(acc.data(), y[k].data() + lo, w_[i][k], len);
            if (++window == reduceEvery_) {
                nt::reduceWideInPlaceVec(acc.data(), len, outBarrett_[i]);
                window = 0;
            }
        }
        nt::reduceWideVec(out[i] + lo, acc.data(), len, outBarrett_[i]);
    });

    size_t fallbacks = 0;
    for (size_t j = 0; j < n; ++j) {
        if (near_tie[j]) {
            applyExact(in, out, j);
            ++fallbacks;
        }
    }
    return fallbacks;
}

void
ScaleRound::applyExact(const std::vector<const u32 *> &in,
                       const std::vector<u32 *> &out, size_t j) const
{
    std::vector<u64> residues(in_.size());
    for (size_t k = 0; k < in_.size(); ++k)
        residues[k] = in[k][j];
    BigUInt x = in_.compose(residues);
    const BigUInt &m = in_.bigModulus();
    const bool neg = (x + x).compare(m) > 0;
    if (neg)
        x = m - x;
    const BigUInt r = (x * t_).divRound(bigQ_);
    for (size_t i = 0; i < out_.size(); ++i) {
        const u64 ri = r.modSmall(out_[i]);
        out[i][j] = static_cast<u32>(neg ? nt::negMod(ri, out_[i]) : ri);
    }
}

} // namespace cross::bfv
