/**
 * @file
 * BFV tests: batching encoder round trips, encrypt/decrypt, homomorphic
 * add / multiply / rotate against exact Z_t arithmetic, and key-switch
 * noise sanity. BFV is exact (no approximation tolerance): every check
 * is an integer equality. The RNS scale-and-round (multiplication
 * scale-down and decryption) is compared bit for bit with the BigUInt
 * oracle in test_refs, including inputs built to sit on its rounding
 * and centring boundaries.
 */
#include <gtest/gtest.h>

#include "bfv/bfv.h"
#include "common/rng.h"
#include "nt/modops.h"
#include "test_refs.h"

namespace cross::bfv {
namespace {

class BfvFixture : public ::testing::Test
{
  protected:
    BfvFixture()
        : ctx(BfvParams::testSet(1 << 10, 4, 16)), encoder(ctx),
          keygen(ctx, 77), evaluator(ctx), rng(78)
    {
        pk = keygen.publicKey();
    }

    std::vector<u64>
    randomSlots(u64 seed)
    {
        Rng r(seed);
        std::vector<u64> v(ctx.degree());
        for (auto &x : v)
            x = r.uniform(ctx.plainModulus());
        return v;
    }

    BfvContext ctx;
    BfvEncoder encoder;
    BfvKeyGenerator keygen;
    BfvEvaluator evaluator;
    BfvPublicKey pk;
    Rng rng;
};

TEST_F(BfvFixture, ContextInvariants)
{
    EXPECT_EQ(ctx.plainModulus() % (2 * ctx.degree()), 1u);
    EXPECT_GT(ctx.bCount(), ctx.qCount()); // B > 2NQ guarantee
    // Delta * t <= Q < (Delta + 1) * t.
    const auto qt = ctx.bigQ();
    u64 rem = 0;
    const auto delta = qt.divmodSmall(ctx.plainModulus(), rem);
    EXPECT_EQ(delta.modSmall(ctx.ring().modulus(0)),
              ctx.deltaModQ(0) % ctx.ring().modulus(0));
}

TEST_F(BfvFixture, EncodeDecodeRoundTrip)
{
    const auto values = randomSlots(1);
    EXPECT_EQ(encoder.decode(encoder.encode(values)), values);
}

TEST_F(BfvFixture, EncodePartialPadsWithZeros)
{
    const std::vector<u64> values = {1, 2, 3};
    const auto decoded = encoder.decode(encoder.encode(values));
    EXPECT_EQ(decoded[0], 1u);
    EXPECT_EQ(decoded[2], 3u);
    for (size_t i = 3; i < decoded.size(); ++i)
        EXPECT_EQ(decoded[i], 0u);
}

TEST_F(BfvFixture, EncryptDecryptExact)
{
    const auto values = randomSlots(2);
    const auto ct = evaluator.encrypt(encoder.encode(values), pk, rng);
    const auto decoded =
        encoder.decode(evaluator.decrypt(ct, keygen.secretKey()));
    EXPECT_EQ(decoded, values);
}

TEST_F(BfvFixture, HomomorphicAdd)
{
    const auto a = randomSlots(3);
    const auto b = randomSlots(4);
    const auto ca = evaluator.encrypt(encoder.encode(a), pk, rng);
    const auto cb = evaluator.encrypt(encoder.encode(b), pk, rng);
    const auto sum = encoder.decode(
        evaluator.decrypt(evaluator.add(ca, cb), keygen.secretKey()));
    const u64 t = ctx.plainModulus();
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(sum[i], (a[i] + b[i]) % t);
}

TEST_F(BfvFixture, HomomorphicMultiplyExact)
{
    const auto rlk = keygen.relinKey();
    const auto a = randomSlots(5);
    const auto b = randomSlots(6);
    const auto ca = evaluator.encrypt(encoder.encode(a), pk, rng);
    const auto cb = evaluator.encrypt(encoder.encode(b), pk, rng);
    const auto prod = encoder.decode(evaluator.decrypt(
        evaluator.multiply(ca, cb, rlk), keygen.secretKey()));
    const u64 t = ctx.plainModulus();
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(prod[i], a[i] * b[i] % t) << "slot " << i;
}

TEST_F(BfvFixture, MultiplyThenAdd)
{
    const auto rlk = keygen.relinKey();
    const auto a = randomSlots(7);
    const auto b = randomSlots(8);
    const auto c = randomSlots(9);
    const auto ca = evaluator.encrypt(encoder.encode(a), pk, rng);
    const auto cb = evaluator.encrypt(encoder.encode(b), pk, rng);
    const auto cc = evaluator.encrypt(encoder.encode(c), pk, rng);
    const auto result = encoder.decode(evaluator.decrypt(
        evaluator.add(evaluator.multiply(ca, cb, rlk), cc),
        keygen.secretKey()));
    const u64 t = ctx.plainModulus();
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(result[i], (a[i] * b[i] + c[i]) % t);
}

TEST_F(BfvFixture, RotationPermutesSlots)
{
    // Galois element 5 acts on the NTT-mod-t slot order exactly as in
    // CKKS: a cyclic rotation within each conjugacy orbit. Verify against
    // the plaintext automorphism rather than a hardcoded pattern.
    const u32 k = 5;
    const auto key = keygen.rotationKey(k);
    const auto values = randomSlots(10);
    const auto ct = evaluator.encrypt(encoder.encode(values), pk, rng);
    const auto rotated = encoder.decode(
        evaluator.decrypt(evaluator.rotate(ct, k, key),
                          keygen.secretKey()));

    // Expected: apply the same automorphism to the plaintext polynomial.
    auto pt = encoder.encode(values);
    poly::RnsPoly tmp(ctx.ring(), 1, false);
    // Plaintext automorphism in coefficient domain modulo t.
    std::vector<u32> expect_coeffs(ctx.degree());
    const u64 two_n = 2ULL * ctx.degree();
    const u32 t = ctx.plainModulus();
    for (u32 j = 0; j < ctx.degree(); ++j) {
        const u64 e = (static_cast<u64>(j) * k) % two_n;
        const u32 v = pt.coeffs[j];
        if (e < ctx.degree())
            expect_coeffs[e] = v;
        else
            expect_coeffs[e - ctx.degree()] =
                static_cast<u32>(nt::negMod(v, t));
    }
    BfvPlaintext expect_pt;
    expect_pt.coeffs = expect_coeffs;
    EXPECT_EQ(rotated, encoder.decode(expect_pt));
}

TEST_F(BfvFixture, KeySwitchPreservesDecryption)
{
    // keySwitch(c, swk_{s->s}) must decrypt to c * s.
    const auto swk = keygen.relinKey(); // targets s^2
    const auto values = randomSlots(11);
    const auto ct = evaluator.encrypt(encoder.encode(values), pk, rng);
    // relinearising c1 * s^2 is exercised inside multiply; here check the
    // degree-2 pipeline end to end via squaring.
    const auto sq = encoder.decode(evaluator.decrypt(
        evaluator.multiply(ct, ct, swk), keygen.secretKey()));
    const u64 t = ctx.plainModulus();
    for (size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(sq[i], values[i] * values[i] % t);
}

TEST_F(BfvFixture, KernelLogCoversExpectedKinds)
{
    ckks::KernelLog log;
    BfvEvaluator ev(ctx, &log);
    const auto rlk = keygen.relinKey();
    const auto ct = ev.encrypt(encoder.encode(randomSlots(12)), pk, rng);
    (void)ev.multiply(ct, ct, rlk);
    bool has_ntt = false, has_bconv = false, has_mul = false;
    for (const auto &c : log.calls()) {
        has_ntt |= c.kind == ckks::KernelKind::Ntt;
        has_bconv |= c.kind == ckks::KernelKind::BConv;
        has_mul |= c.kind == ckks::KernelKind::VecModMul;
    }
    EXPECT_TRUE(has_ntt);
    EXPECT_TRUE(has_bconv);
    EXPECT_TRUE(has_mul);
    // The scale-down is the BConv call from 3 x |Q u B| to 3 x |Q| limbs.
    const size_t full = ctx.qCount() + ctx.bCount();
    size_t scale_downs = 0;
    for (const auto &c : log.calls())
        scale_downs += c.kind == ckks::KernelKind::BConv &&
                       c.limbs == 3 * full && c.limbsOut == 3 * ctx.qCount();
    EXPECT_EQ(scale_downs, 1u);
}

// ---------------------------------------------------------------------
// ScaleRound against the BigUInt oracle.
// ---------------------------------------------------------------------

using Limbs = std::vector<std::vector<u32>>;

/** Run @p sr on limb-major residues; reports the fallback count. */
Limbs
scaleRound(const ScaleRound &sr, const Limbs &in, size_t &fallbacks)
{
    const size_t n = in[0].size();
    Limbs out(sr.outCount(), std::vector<u32>(n));
    std::vector<const u32 *> in_ptr;
    std::vector<u32 *> out_ptr;
    for (const auto &limb : in)
        in_ptr.push_back(limb.data());
    for (auto &limb : out)
        out_ptr.push_back(limb.data());
    fallbacks = sr.apply(in_ptr, out_ptr, n);
    return out;
}

/** Uniform residues over every limb of @p basis. */
Limbs
randomResidues(const rns::RnsBasis &basis, u32 n, u64 seed)
{
    Limbs in;
    for (size_t k = 0; k < basis.size(); ++k)
        in.push_back(testref::randomPoly(n, basis.modulus(k), seed + k));
    return in;
}

/** Limb-major residues of a list of big integers. */
Limbs
residuesOf(const rns::RnsBasis &basis, const std::vector<nt::BigUInt> &xs)
{
    Limbs in(basis.size(), std::vector<u32>(xs.size()));
    for (size_t j = 0; j < xs.size(); ++j) {
        const auto r = basis.decompose(xs[j]);
        for (size_t k = 0; k < basis.size(); ++k)
            in[k][j] = static_cast<u32>(r[k]);
    }
    return in;
}

/**
 * The input whose every y_k = [x_k (M/m_k)^-1]_{m_k} is m_k - 1: the
 * largest products the accumulator can see.
 */
std::vector<u32>
maxYResidues(const rns::RnsBasis &basis)
{
    std::vector<u32> x(basis.size());
    for (size_t k = 0; k < basis.size(); ++k) {
        const u64 m = basis.modulus(k);
        x[k] = static_cast<u32>(nt::negMod(basis.qHatMod(k, m), m));
    }
    return x;
}

/** Both scale-and-rounds of @p ctx against the oracle on @p n randoms. */
void
expectRandomMatchesOracle(const BfvContext &ctx, u32 n, u64 seed)
{
    const u32 t = ctx.plainModulus();
    const size_t l = ctx.qCount();
    const auto &qb = ctx.qbBasis();
    size_t fallbacks = 0;

    Limbs in = randomResidues(qb, n, seed);
    // Coefficient 0: every y_k at its maximum (accumulator bound).
    const auto max_y = maxYResidues(qb);
    for (size_t k = 0; k < qb.size(); ++k)
        in[k][0] = max_y[k];
    EXPECT_EQ(scaleRound(ctx.scaleDown(), in, fallbacks),
              testref::scaleRoundBigUInt(qb, l, t, ctx.qBasis().moduli(),
                                         in));
    EXPECT_EQ(fallbacks, 0u);

    Limbs in_q = randomResidues(ctx.qBasis(), n, seed + 100);
    EXPECT_EQ(scaleRound(ctx.decryptScale(), in_q, fallbacks),
              testref::scaleRoundBigUInt(ctx.qBasis(), l, t, {t}, in_q));
    EXPECT_EQ(fallbacks, 0u);
}

TEST_F(BfvFixture, ScaleRoundMatchesOracleOnRandomResidues)
{
    expectRandomMatchesOracle(ctx, ctx.degree(), 31);
}

TEST(BfvScaleRound, MatchesOracleAtBenchmarkSet)
{
    const BfvContext big(BfvParams::testSet(1 << 13, 8, 17));
    expectRandomMatchesOracle(big, big.degree(), 32);
}

/**
 * Inputs on the two rounding boundaries of @p basis (Q = first l
 * limbs): x = round((2y+1) Q / 2t) + d sits next to a half-integer of
 * t x / Q, and x = floor(M/2) + d next to the centring boundary M/2.
 * Both signs of the centred value are covered.
 */
std::vector<nt::BigUInt>
boundaryInputs(const rns::RnsBasis &basis, size_t l, u64 t, u64 seed)
{
    const nt::BigUInt big_q = basis.subBasis(0, l).bigModulus();
    const nt::BigUInt &big_m = basis.bigModulus();
    Rng rng(seed);
    std::vector<nt::BigUInt> xs;
    for (int i = 0; i < 16; ++i) {
        const u64 y = rng.uniform(t);
        const nt::BigUInt x0 =
            (big_q * (2 * y + 1)).divRound(nt::BigUInt(2 * t));
        for (u64 d = 0; d <= 2; ++d) {
            xs.push_back(x0 + d);
            xs.push_back(x0 - nt::BigUInt(d));
            xs.push_back(big_m - (x0 + d));
        }
    }
    u64 rem = 0;
    const nt::BigUInt half = big_m.divmodSmall(2, rem);
    for (u64 d = 0; d <= 3; ++d) {
        xs.push_back(half - nt::BigUInt(d));
        xs.push_back(half + 1 + d);
    }
    return xs;
}

TEST_F(BfvFixture, ScaleRoundBoundaryInputsForceTheFallback)
{
    const u32 t = ctx.plainModulus();
    const size_t l = ctx.qCount();
    size_t fallbacks = 0;

    const auto &qb = ctx.qbBasis();
    const auto xs = boundaryInputs(qb, l, t, 33);
    const Limbs in = residuesOf(qb, xs);
    EXPECT_EQ(scaleRound(ctx.scaleDown(), in, fallbacks),
              testref::scaleRoundBigUInt(qb, l, t, ctx.qBasis().moduli(),
                                         in));
    EXPECT_EQ(fallbacks, xs.size());

    const auto xs_q = boundaryInputs(ctx.qBasis(), l, t, 34);
    const Limbs in_q = residuesOf(ctx.qBasis(), xs_q);
    EXPECT_EQ(scaleRound(ctx.decryptScale(), in_q, fallbacks),
              testref::scaleRoundBigUInt(ctx.qBasis(), l, t, {t}, in_q));
    EXPECT_EQ(fallbacks, xs_q.size());
}

TEST(BfvScaleRound, ThirtyBitLimbsStayInTheAccumulatorBound)
{
    // logq = 30: Q primes of 30 bits and B primes of 31, the widest
    // products BfvContext accepts. With 24 + 26 limbs an unreduced
    // sum of the max-y coefficient's products would pass 2^64.
    auto p = BfvParams::testSet(1 << 10, 24, 16);
    p.logq = 30;
    const BfvContext wide(p);
    EXPECT_EQ(wide.qbBasis().modulus(wide.qCount()) >> 30, 1u);
    expectRandomMatchesOracle(wide, 256, 35);
}

TEST(BfvScaleRound, MultiplyAtBenchmarkSetDecryptsToProduct)
{
    const BfvContext big(BfvParams::testSet(1 << 13, 8, 17));
    BfvEncoder enc(big);
    BfvKeyGenerator kg(big, 38);
    BfvEvaluator ev(big);
    Rng rng(39);
    const u64 t = big.plainModulus();
    std::vector<u64> a(big.degree()), b(big.degree());
    for (size_t i = 0; i < a.size(); ++i) {
        a[i] = rng.uniform(t);
        b[i] = rng.uniform(t);
    }
    const auto pk = kg.publicKey();
    const auto prod = enc.decode(
        ev.decrypt(ev.multiply(ev.encrypt(enc.encode(a), pk, rng),
                               ev.encrypt(enc.encode(b), pk, rng),
                               kg.relinKey()),
                   kg.secretKey()));
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(prod[i], a[i] * b[i] % t) << "slot " << i;
}

TEST(BfvParams, Validation)
{
    auto make = [](const BfvParams &p) { BfvContext ctx(p); };
    make(BfvParams::testSet()); // sane params construct fine
    EXPECT_THROW(make(BfvParams::testSet(100, 4)),
                 std::invalid_argument); // non power of two
    auto p = BfvParams::testSet();
    p.logt = 30; // t !<< q
    EXPECT_THROW(make(p), std::invalid_argument);
}

} // namespace
} // namespace cross::bfv
