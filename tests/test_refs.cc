#include "test_refs.h"

#include "common/check.h"
#include "common/rng.h"
#include "nt/modops.h"

namespace cross::testref {

std::vector<u32>
negacyclicMulSchoolbook(const std::vector<u32> &a, const std::vector<u32> &b,
                        u64 q)
{
    const size_t n = a.size();
    internalCheck(b.size() == n, "schoolbook: size mismatch");
    std::vector<u32> z(n, 0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            const u64 p = nt::mulMod(a[i], b[j], q);
            const size_t k = i + j;
            if (k < n)
                z[k] = static_cast<u32>(nt::addMod(z[k], p, q));
            else
                z[k - n] = static_cast<u32>(nt::subMod(z[k - n], p, q));
        }
    }
    return z;
}

namespace {

/**
 * Full product (degree < 2n-1, length 2n, top entry zero) of a and b
 * mod q. Karatsuba recursion over halves; schoolbook below a threshold
 * and for odd lengths.
 */
std::vector<u64>
mulFullMod(const u64 *a, const u64 *b, size_t n, u64 q)
{
    std::vector<u64> out(2 * n, 0);
    if (n <= 32 || n % 2 != 0) {
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j < n; ++j)
                out[i + j] =
                    nt::addMod(out[i + j], nt::mulMod(a[i], b[j], q), q);
        return out;
    }
    const size_t h = n / 2;
    // a = a0 + x^h a1, b = b0 + x^h b1:
    //   a*b = z0 + x^h (z1 - z0 - z2) + x^2h z2
    // with z0 = a0*b0, z2 = a1*b1, z1 = (a0+a1)*(b0+b1).
    const auto z0 = mulFullMod(a, b, h, q);
    const auto z2 = mulFullMod(a + h, b + h, h, q);
    std::vector<u64> sa(h), sb(h);
    for (size_t i = 0; i < h; ++i) {
        sa[i] = nt::addMod(a[i], a[h + i], q);
        sb[i] = nt::addMod(b[i], b[h + i], q);
    }
    auto z1 = mulFullMod(sa.data(), sb.data(), h, q);
    for (size_t i = 0; i < 2 * h; ++i)
        z1[i] = nt::subMod(nt::subMod(z1[i], z0[i], q), z2[i], q);
    for (size_t i = 0; i < 2 * h; ++i) {
        out[i] = nt::addMod(out[i], z0[i], q);
        out[h + i] = nt::addMod(out[h + i], z1[i], q);
        out[2 * h + i] = nt::addMod(out[2 * h + i], z2[i], q);
    }
    return out;
}

} // namespace

std::vector<u32>
negacyclicMulKaratsuba(const std::vector<u32> &a, const std::vector<u32> &b,
                       u64 q)
{
    const size_t n = a.size();
    internalCheck(b.size() == n, "karatsuba: size mismatch");
    std::vector<u64> wa(n), wb(n);
    for (size_t i = 0; i < n; ++i) {
        wa[i] = a[i];
        wb[i] = b[i];
    }
    const auto full = mulFullMod(wa.data(), wb.data(), n, q);
    // Fold x^n == -1: z[k] = full[k] - full[k + n].
    std::vector<u32> z(n);
    for (size_t k = 0; k < n; ++k)
        z[k] = static_cast<u32>(nt::subMod(full[k], full[k + n], q));
    return z;
}

std::vector<std::vector<u32>>
scaleRoundBigUInt(const rns::RnsBasis &basis, size_t q_count, u64 t,
                  const std::vector<u64> &out_moduli,
                  const std::vector<std::vector<u32>> &in)
{
    internalCheck(in.size() == basis.size(), "scaleRound: limb count");
    const nt::BigUInt big_q = basis.subBasis(0, q_count).bigModulus();
    const nt::BigUInt &big_m = basis.bigModulus();
    const size_t n = in.empty() ? 0 : in[0].size();
    std::vector<std::vector<u32>> out(out_moduli.size(),
                                      std::vector<u32>(n));
    std::vector<u64> residues(in.size());
    for (size_t j = 0; j < n; ++j) {
        for (size_t k = 0; k < in.size(); ++k)
            residues[k] = in[k][j];
        nt::BigUInt x = basis.compose(residues);
        // Centre modulo M, scale, round.
        const bool neg = (x + x).compare(big_m) > 0;
        if (neg)
            x = big_m - x;
        const nt::BigUInt y = (x * t).divRound(big_q);
        for (size_t i = 0; i < out_moduli.size(); ++i) {
            const u64 o = out_moduli[i];
            const u64 r = y.modSmall(o);
            out[i][j] = static_cast<u32>(neg ? nt::negMod(r, o) : r);
        }
    }
    return out;
}

std::vector<u32>
dotModExact(const std::vector<std::vector<u32>> &a,
            const std::vector<std::vector<u32>> &b, u64 q)
{
    internalCheck(!a.empty() && a.size() == b.size(),
                  "dotModExact: operand count mismatch");
    const size_t n = a[0].size();
    std::vector<u32> z(n);
    for (size_t j = 0; j < n; ++j) {
        u128 sum = 0;
        for (size_t t = 0; t < a.size(); ++t)
            sum += static_cast<u128>(a[t][j]) * b[t][j];
        z[j] = static_cast<u32>(sum % q);
    }
    return z;
}

std::vector<u32>
randomPoly(u32 n, u64 q, u64 seed)
{
    Rng rng(seed);
    std::vector<u32> a(n);
    for (auto &x : a)
        x = static_cast<u32>(rng.uniform(q));
    return a;
}

} // namespace cross::testref
