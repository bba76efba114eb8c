/**
 * @file
 * Tests for the RNS substrate: CRT compose/decompose round trips and the
 * two-step Basis Conversion (BConv) against BigUInt ground truth,
 * including the approximate-conversion alpha*Q slack bound.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "nt/modops.h"
#include "nt/primes.h"
#include "rns/basis.h"
#include "rns/bconv.h"

namespace cross::rns {
namespace {

std::vector<u64>
testPrimes(u32 bits, size_t count, u64 step, const std::vector<u64> &avoid = {})
{
    return nt::generateNttPrimesAvoiding(bits, count, step, avoid);
}

TEST(RnsBasis, ConstructionInvariants)
{
    const auto moduli = testPrimes(28, 5, 1 << 13);
    RnsBasis basis(moduli);
    EXPECT_EQ(basis.size(), 5u);
    for (size_t i = 0; i < basis.size(); ++i) {
        // qHat_i * qHatInv_i == 1 (mod q_i)
        const u64 qi = basis.modulus(i);
        const u64 qhat_mod = basis.qHat(i).modSmall(qi);
        EXPECT_EQ(nt::mulMod(qhat_mod, basis.qHatInv(i), qi), 1u);
        // Q == qHat_i * q_i
        EXPECT_TRUE(basis.qHat(i) * qi == basis.bigModulus());
    }
}

TEST(RnsBasis, RejectsBadModuli)
{
    EXPECT_THROW(RnsBasis({4ULL}), std::invalid_argument);          // even
    EXPECT_THROW(RnsBasis({9ULL, 21ULL}), std::invalid_argument);   // gcd 3
    EXPECT_THROW(RnsBasis({}), std::invalid_argument);              // empty
}

TEST(RnsBasis, ComposeDecomposeRoundTrip)
{
    const auto moduli = testPrimes(28, 6, 1 << 12);
    RnsBasis basis(moduli);
    Rng rng(3);
    for (int iter = 0; iter < 50; ++iter) {
        // Random x < Q built from random residues.
        std::vector<u64> residues(basis.size());
        for (size_t i = 0; i < basis.size(); ++i)
            residues[i] = rng.uniform(basis.modulus(i));
        const nt::BigUInt x = basis.compose(residues);
        EXPECT_TRUE(x < basis.bigModulus());
        EXPECT_EQ(basis.decompose(x), residues);
    }
}

TEST(RnsBasis, DecomposeComposeIdentityOnSmallValues)
{
    RnsBasis basis(testPrimes(20, 3, 2048));
    for (u64 v : {0ULL, 1ULL, 123456789ULL}) {
        const auto res = basis.decompose(nt::BigUInt(v));
        EXPECT_EQ(basis.compose(res).low64(), v);
    }
}

TEST(RnsBasis, SubBasisAndConcat)
{
    const auto moduli = testPrimes(28, 6, 1 << 12);
    RnsBasis basis(moduli);
    RnsBasis sub = basis.subBasis(1, 3);
    EXPECT_EQ(sub.size(), 3u);
    EXPECT_EQ(sub.modulus(0), basis.modulus(1));

    const auto aux = testPrimes(29, 2, 1 << 12, moduli);
    RnsBasis cat = basis.concat(RnsBasis(aux));
    EXPECT_EQ(cat.size(), 8u);
    EXPECT_EQ(cat.modulus(6), aux[0]);
}

TEST(RnsBasis, QHatModExternal)
{
    const auto moduli = testPrimes(28, 4, 1 << 12);
    const auto ext = testPrimes(29, 2, 1 << 12, moduli);
    RnsBasis basis(moduli);
    for (size_t i = 0; i < basis.size(); ++i)
        for (u64 p : ext)
            EXPECT_EQ(basis.qHatMod(i, p), basis.qHat(i).modSmall(p));
}

// ---------------------------------------------------------------------
// BConv
// ---------------------------------------------------------------------
// (L, L', modulus bits)
class BConvTest : public ::testing::TestWithParam<std::tuple<int, int, u32>>
{
};

TEST_P(BConvTest, ExactAgainstBigUInt)
{
    const auto [l_in, l_out, bits] = GetParam();
    const u64 step = 1 << 12;
    const auto from_m = testPrimes(bits, l_in, step);
    const auto to_m = testPrimes(bits, l_out, step, from_m);
    RnsBasis from(from_m), to(to_m);
    BasisConversion conv(from, to);

    const size_t n = 67; // a tail for every vector width
    Rng rng(l_in * 100 + l_out + bits);
    LimbMatrix in(from.size());
    for (size_t i = 0; i < from.size(); ++i) {
        in[i].resize(n);
        for (auto &x : in[i])
            x = static_cast<u32>(rng.uniform(from.modulus(i)));
    }

    LimbMatrix b, out;
    conv.step1(in, b);
    conv.step2(b, out);
    ASSERT_EQ(out.size(), to.size());

    // The pointer form into target limbs that are not contiguous: every
    // limb at a padded stride of one buffer, in reverse order.
    const size_t stride = n + 5;
    std::vector<u32> buf(to.size() * stride, 0xdeadbeef);
    std::vector<const u32 *> in_ptrs(from.size());
    std::vector<u32 *> out_ptrs(to.size());
    for (size_t i = 0; i < from.size(); ++i)
        in_ptrs[i] = in[i].data();
    for (size_t j = 0; j < to.size(); ++j)
        out_ptrs[j] = buf.data() + (to.size() - 1 - j) * stride;
    conv.apply(in_ptrs.data(), out_ptrs.data(), n);

    for (size_t coef = 0; coef < n; ++coef) {
        // Ground truth: v = sum_i b_i * qHat_i exactly.
        nt::BigUInt v;
        for (size_t i = 0; i < from.size(); ++i)
            v = v + from.qHat(i) * b[i][coef];
        for (size_t j = 0; j < to.size(); ++j) {
            const u64 want = v.modSmall(to.modulus(j));
            EXPECT_EQ(out[j][coef], want)
                << "coef " << coef << " target " << j;
            EXPECT_EQ(out_ptrs[j][coef], want)
                << "pointer form, coef " << coef << " target " << j;
        }
    }
    // The padding between the target limbs is untouched.
    for (size_t j = 0; j < to.size(); ++j)
        for (size_t c = n; c < stride; ++c)
            EXPECT_EQ(buf[j * stride + c], 0xdeadbeefu);
}

TEST_P(BConvTest, AlphaSlackBound)
{
    const auto [l_in, l_out, bits] = GetParam();
    const u64 step = 1 << 12;
    const auto from_m = testPrimes(bits, l_in, step);
    const auto to_m = testPrimes(bits, l_out, step, from_m);
    RnsBasis from(from_m), to(to_m);
    BasisConversion conv(from, to);

    const size_t n = 16;
    Rng rng(l_in * 37 + l_out);
    LimbMatrix in(from.size());
    std::vector<nt::BigUInt> xs(n);
    for (size_t coef = 0; coef < n; ++coef) {
        std::vector<u64> res(from.size());
        for (size_t i = 0; i < from.size(); ++i)
            res[i] = rng.uniform(from.modulus(i));
        xs[coef] = from.compose(res);
        for (size_t i = 0; i < from.size(); ++i) {
            if (in[i].empty())
                in[i].resize(n);
            in[i][coef] = static_cast<u32>(res[i]);
        }
    }

    LimbMatrix out;
    conv.apply(in, out);
    for (size_t coef = 0; coef < n; ++coef) {
        // Output represents x + alpha*Q with 0 <= alpha < L (approximate
        // conversion; Section F2).
        bool matched = false;
        for (size_t alpha = 0; alpha < from.size() && !matched; ++alpha) {
            nt::BigUInt shifted = xs[coef];
            for (size_t a = 0; a < alpha; ++a)
                shifted = shifted + from.bigModulus();
            bool all = true;
            for (size_t j = 0; j < to.size(); ++j) {
                if (out[j][coef] != shifted.modSmall(to.modulus(j))) {
                    all = false;
                    break;
                }
            }
            matched = all;
        }
        EXPECT_TRUE(matched) << "coef " << coef
                             << ": no alpha < L explains the output";
    }
}

// The 30- and 31-bit shapes run L past the Montgomery window of step 2
// (4 and 2 source terms), so the mid-sum reductions are exercised.
INSTANTIATE_TEST_SUITE_P(Shapes, BConvTest,
                         ::testing::Values(std::make_tuple(1, 1, 28u),
                                           std::make_tuple(3, 2, 28u),
                                           std::make_tuple(4, 6, 28u),
                                           std::make_tuple(8, 9, 28u),
                                           std::make_tuple(12, 13, 28u),
                                           std::make_tuple(20, 7, 28u),
                                           std::make_tuple(20, 7, 30u),
                                           std::make_tuple(5, 15, 31u),
                                           std::make_tuple(20, 7, 31u)));

TEST(BConv, TableMatchesBasis)
{
    const auto from_m = testPrimes(28, 3, 1 << 12);
    const auto to_m = testPrimes(28, 2, 1 << 12, from_m);
    RnsBasis from(from_m), to(to_m);
    BasisConversion conv(from, to);
    for (size_t i = 0; i < from.size(); ++i)
        for (size_t j = 0; j < to.size(); ++j)
            EXPECT_EQ(conv.table(i, j), from.qHatMod(i, to.modulus(j)));
}

TEST(BConv, ReduceWindowIsSane)
{
    const auto from_m = testPrimes(28, 3, 1 << 12);
    const auto to_m = testPrimes(28, 2, 1 << 12, from_m);
    BasisConversion conv{RnsBasis(from_m), RnsBasis(to_m)};
    // 28 + 28 bits of product leaves 63-56 = 7 bits of slack.
    EXPECT_EQ(conv.reduceEvery(), 128u);
}

TEST(BConv, IdentityConversionOnSameSizedValues)
{
    // Converting a value x < min(Q1, Q2) where step-1+2 incur alpha == 0
    // should reproduce x's residues; use tiny residues to force alpha == 0
    // ... which is not guaranteed in general, so test x == 0 (always exact).
    const auto from_m = testPrimes(28, 4, 1 << 12);
    const auto to_m = testPrimes(28, 4, 1 << 12, from_m);
    BasisConversion conv{RnsBasis(from_m), RnsBasis(to_m)};
    LimbMatrix in(4, std::vector<u32>(8, 0)), out;
    conv.apply(in, out);
    for (const auto &limb : out)
        for (u32 v : limb)
            EXPECT_EQ(v, 0u);
}

} // namespace
} // namespace cross::rns
