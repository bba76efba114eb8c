/**
 * @file
 * End-to-end CKKS tests: encoder round trips, encrypt/decrypt, the four
 * backbone HE operators against plaintext arithmetic, rotation /
 * conjugation slot semantics, multiplicative depth, and the contract
 * between the functional evaluator's kernel log and the pure schedule
 * enumerator that the TPU cost model replays.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "ckks/bootstrap.h"
#include "ckks/context.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"
#include "ckks/schedule.h"
#include "common/rng.h"
#include "nt/bigint.h"
#include "nt/modops.h"
#include "nt/primes.h"
#include "poly/ring.h"
#include "rns/basis.h"

#include "test_util.h"

namespace cross::ckks {
namespace {

constexpr double kScale = static_cast<double>(1ULL << 26);

std::vector<Complex>
randomSlots(size_t count, u64 seed, double mag = 1.0)
{
    Rng rng(seed);
    std::vector<Complex> v(count);
    for (auto &x : v)
        x = Complex((rng.real() * 2 - 1) * mag, (rng.real() * 2 - 1) * mag);
    return v;
}

double
maxError(const std::vector<Complex> &a, const std::vector<Complex> &b)
{
    double e = 0;
    for (size_t i = 0; i < a.size(); ++i)
        e = std::max(e, std::abs(a[i] - b[i]));
    return e;
}

class CkksFixture : public ::testing::Test
{
  protected:
    CkksFixture()
        : ctx(CkksParams::testSet(1 << 10, 5, 2)), encoder(ctx),
          keygen(ctx, 42), encryptor(ctx, keygen.publicKey(), 43),
          decryptor(ctx, keygen.secretKey()), evaluator(ctx)
    {
    }

    CkksContext ctx;
    CkksEncoder encoder;
    KeyGenerator keygen;
    CkksEncryptor encryptor;
    CkksDecryptor decryptor;
    CkksEvaluator evaluator;
};

// ---------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------
TEST_F(CkksFixture, EncodeDecodeRoundTrip)
{
    const auto values = randomSlots(encoder.slotCount(), 1);
    const auto pt = encoder.encode(values, kScale, ctx.qCount());
    const auto decoded = encoder.decode(pt);
    EXPECT_LT(maxError(values, decoded), 1e-5);
}

TEST_F(CkksFixture, EncodePartialVectorPadsWithZeros)
{
    const auto values = randomSlots(8, 2);
    const auto decoded =
        encoder.decode(encoder.encode(values, kScale, 2));
    for (size_t i = 0; i < 8; ++i)
        EXPECT_LT(std::abs(decoded[i] - values[i]), 1e-5);
    for (size_t i = 8; i < decoded.size(); ++i)
        EXPECT_LT(std::abs(decoded[i]), 1e-5);
}

TEST_F(CkksFixture, EncodeRejectsOverflowingScale)
{
    std::vector<Complex> big(4, Complex(1.0, 0));
    // 2^40 overflows a single 28-bit limb...
    EXPECT_THROW(encoder.encode(big, std::ldexp(1.0, 40), 1),
                 std::invalid_argument);
    // ...but is fine against two limbs (Q/2 ~ 2^55): double rescaling
    // relies on this.
    EXPECT_NO_THROW(encoder.encode(big, std::ldexp(1.0, 40), 2));
    // And the i64 lift bound always applies.
    EXPECT_THROW(encoder.encode(big, std::ldexp(1.0, 71), 5),
                 std::invalid_argument);
}

TEST_F(CkksFixture, EncoderIsLinear)
{
    const auto a = randomSlots(encoder.slotCount(), 3);
    const auto b = randomSlots(encoder.slotCount(), 4);
    auto pa = encoder.encode(a, kScale, 3);
    const auto pb = encoder.encode(b, kScale, 3);
    pa.poly.addInPlace(pb.poly);
    const auto sum = encoder.decode(pa);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(sum[i] - (a[i] + b[i])), 1e-5);
}

// ---------------------------------------------------------------------
// Encrypt / decrypt
// ---------------------------------------------------------------------
TEST_F(CkksFixture, EncryptDecryptRoundTrip)
{
    const auto values = randomSlots(encoder.slotCount(), 5);
    const auto ct =
        encryptor.encrypt(encoder.encode(values, kScale, ctx.qCount()));
    const auto decoded = encoder.decode(decryptor.decrypt(ct));
    // Fresh-encryption noise ~ sigma*N at scale 2^26.
    EXPECT_LT(maxError(values, decoded), 1e-3);
}

TEST_F(CkksFixture, FreshCiphertextHasFullLevel)
{
    const auto ct = encryptor.encrypt(
        encoder.encode(randomSlots(4, 6), kScale, ctx.qCount()));
    EXPECT_EQ(ct.limbs(), ctx.qCount());
    EXPECT_DOUBLE_EQ(ct.scale, kScale);
}

// ---------------------------------------------------------------------
// HE-Add / HE-Sub
// ---------------------------------------------------------------------
TEST_F(CkksFixture, HomomorphicAddSub)
{
    const auto a = randomSlots(encoder.slotCount(), 7, 0.5);
    const auto b = randomSlots(encoder.slotCount(), 8, 0.5);
    const auto ca =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto cb =
        encryptor.encrypt(encoder.encode(b, kScale, ctx.qCount()));

    const auto sum = encoder.decode(decryptor.decrypt(evaluator.add(ca, cb)));
    const auto diff =
        encoder.decode(decryptor.decrypt(evaluator.sub(ca, cb)));
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_LT(std::abs(sum[i] - (a[i] + b[i])), 1e-3);
        EXPECT_LT(std::abs(diff[i] - (a[i] - b[i])), 1e-3);
    }
}

TEST_F(CkksFixture, AddPlain)
{
    const auto a = randomSlots(encoder.slotCount(), 9, 0.5);
    const auto b = randomSlots(encoder.slotCount(), 10, 0.5);
    const auto ca =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto pb = encoder.encode(b, kScale, ctx.qCount());
    const auto sum =
        encoder.decode(decryptor.decrypt(evaluator.addPlain(ca, pb)));
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(sum[i] - (a[i] + b[i])), 1e-3);
}

// ---------------------------------------------------------------------
// HE-Mult + relinearisation + rescale
// ---------------------------------------------------------------------
TEST_F(CkksFixture, HomomorphicMultiply)
{
    const auto rlk = keygen.relinKey();
    const auto a = randomSlots(encoder.slotCount(), 11, 0.8);
    const auto b = randomSlots(encoder.slotCount(), 12, 0.8);
    const auto ca =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto cb =
        encryptor.encrypt(encoder.encode(b, kScale, ctx.qCount()));

    auto prod = evaluator.multiply(ca, cb, rlk);
    EXPECT_DOUBLE_EQ(prod.scale, kScale * kScale);
    prod = evaluator.rescale(prod);
    EXPECT_EQ(prod.limbs(), ctx.qCount() - 1);

    const auto decoded = encoder.decode(decryptor.decrypt(prod));
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(decoded[i] - a[i] * b[i]), 1e-2);
}

TEST_F(CkksFixture, MultiplyPlain)
{
    const auto a = randomSlots(encoder.slotCount(), 13, 0.8);
    const auto w = randomSlots(encoder.slotCount(), 14, 0.8);
    const auto ca =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto pw = encoder.encode(w, kScale, ctx.qCount());
    auto prod = evaluator.rescale(evaluator.multiplyPlain(ca, pw));
    const auto decoded = encoder.decode(decryptor.decrypt(prod));
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(decoded[i] - a[i] * w[i]), 1e-2);
}

TEST_F(CkksFixture, MultiplicativeDepthChain)
{
    const auto rlk = keygen.relinKey();
    const auto a = randomSlots(encoder.slotCount(), 15, 0.9);
    auto ct = encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));

    // Square twice: depth 2 with rescale after each multiply.
    auto sq = evaluator.rescale(evaluator.multiply(ct, ct, rlk));
    auto quad = evaluator.rescale(evaluator.multiply(sq, sq, rlk));
    EXPECT_EQ(quad.limbs(), ctx.qCount() - 2);

    const auto decoded = encoder.decode(decryptor.decrypt(quad));
    for (size_t i = 0; i < a.size(); ++i) {
        const Complex expect = std::pow(a[i], 4);
        EXPECT_LT(std::abs(decoded[i] - expect), 5e-2);
    }
}

TEST_F(CkksFixture, RescaleDividesScale)
{
    const auto a = randomSlots(4, 16, 0.5);
    auto ct = encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    ct.scale = kScale; // fresh
    const auto rlk = keygen.relinKey();
    auto prod = evaluator.multiply(ct, ct, rlk);
    const double before = prod.scale;
    auto rs = evaluator.rescale(prod);
    const double q_l =
        static_cast<double>(ctx.qModulus(ctx.qCount() - 1));
    EXPECT_NEAR(rs.scale, before / q_l, before / q_l * 1e-12);
}

// ---------------------------------------------------------------------
// Rotation / conjugation
// ---------------------------------------------------------------------
TEST_F(CkksFixture, RotationRotatesSlots)
{
    for (i64 steps : {1, 2, 7}) {
        const u32 k = encoder.rotationAutomorphism(steps);
        const auto rot_key = keygen.rotationKey(k);
        const auto a = randomSlots(encoder.slotCount(), 17 + steps, 0.8);
        const auto ct =
            encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
        const auto rotated = evaluator.rotate(ct, k, rot_key);
        const auto decoded = encoder.decode(decryptor.decrypt(rotated));
        const size_t half = encoder.slotCount();
        for (size_t j = 0; j < half; ++j) {
            const Complex expect = a[(j + static_cast<size_t>(steps)) % half];
            EXPECT_LT(std::abs(decoded[j] - expect), 1e-2)
                << "steps=" << steps << " slot=" << j;
        }
    }
}

TEST_F(CkksFixture, ConjugationConjugatesSlots)
{
    const u32 k = encoder.conjugationAutomorphism();
    const auto conj_key = keygen.rotationKey(k);
    const auto a = randomSlots(encoder.slotCount(), 23, 0.8);
    const auto ct =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto decoded =
        encoder.decode(decryptor.decrypt(evaluator.rotate(ct, k, conj_key)));
    for (size_t j = 0; j < a.size(); ++j)
        EXPECT_LT(std::abs(decoded[j] - std::conj(a[j])), 1e-2);
}

TEST_F(CkksFixture, RotationComposition)
{
    // rot(rot(x, 1), 2) == rot(x, 3)
    const u32 k1 = encoder.rotationAutomorphism(1);
    const u32 k2 = encoder.rotationAutomorphism(2);
    const auto key1 = keygen.rotationKey(k1);
    const auto key2 = keygen.rotationKey(k2);
    const auto a = randomSlots(encoder.slotCount(), 24, 0.8);
    const auto ct =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto r12 =
        evaluator.rotate(evaluator.rotate(ct, k1, key1), k2, key2);
    const auto decoded = encoder.decode(decryptor.decrypt(r12));
    const size_t half = encoder.slotCount();
    for (size_t j = 0; j < half; ++j)
        EXPECT_LT(std::abs(decoded[j] - a[(j + 3) % half]), 2e-2);
}

// ---------------------------------------------------------------------
// Key-switch inner product against an independent oracle
// ---------------------------------------------------------------------

/**
 * setInnerProduct on random eval-domain polys over @p slots against a
 * test-side reference (one mulMod and one addMod per term), at 1 and
 * testThreads() pool threads.
 */
void
expectInnerProductMatchesReference(const poly::Ring &ring,
                                   const std::vector<u32> &slots, u64 seed)
{
    Rng rng(seed);
    auto random_eval = [&] {
        poly::RnsPoly p(ring, slots, true);
        for (size_t i = 0; i < p.limbCount(); ++i)
            for (auto &x : p.limb(i))
                x = static_cast<u32>(rng.uniform(p.limbModulus(i)));
        return p;
    };
    for (size_t k : {1u, 2u, 3u, 5u}) {
        std::vector<poly::RnsPoly> a, b;
        for (size_t t = 0; t < k; ++t) {
            a.push_back(random_eval());
            b.push_back(random_eval());
        }
        std::vector<const poly::RnsPoly *> pa, pb;
        for (size_t t = 0; t < k; ++t) {
            pa.push_back(&a[t]);
            pb.push_back(&b[t]);
        }
        poly::RnsPoly want(ring, slots, true);
        for (size_t i = 0; i < want.limbCount(); ++i) {
            const u64 q = want.limbModulus(i);
            for (size_t j = 0; j < ring.degree(); ++j) {
                u64 acc = 0;
                for (size_t t = 0; t < k; ++t)
                    acc = nt::addMod(
                        acc, nt::mulMod(a[t].limb(i)[j], b[t].limb(i)[j], q),
                        q);
                want.limb(i)[j] = static_cast<u32>(acc);
            }
        }
        for (u32 threads : {1u, testutil::testThreads()}) {
            testutil::ThreadGuard guard(threads);
            poly::RnsPoly got(ring, slots, true);
            got.setInnerProduct(pa.data(), pb.data(), k);
            EXPECT_TRUE(got == want) << "k=" << k << " threads=" << threads
                                     << " limbs=" << slots.size();
        }
    }
}

TEST_F(CkksFixture, InnerProductMatchesPerCoefficientReference)
{
    // The key-switch basis shape: a Q prefix below the top level plus
    // the P limbs, so the slot list skips the dropped Q limbs.
    const std::vector<u32> slots = ctx.extendedSlots(ctx.qCount() - 3);
    ASSERT_NE(slots.back(), slots.size() - 1) << "slot list is contiguous";
    expectInnerProductMatchesReference(ctx.ring(), slots, 2026);

    // Fewer limbs than threads at N = 4096, so the pool also splits
    // inside a limb, on 28- to 31-bit moduli (a 31-bit sum is reduced
    // after every second term).
    std::vector<u64> moduli;
    for (u32 bits : {28u, 30u, 31u, 31u}) {
        moduli.push_back(
            nt::generateNttPrimesAvoiding(bits, 1, 2 * 4096, moduli)[0]);
    }
    const poly::Ring wide(4096, moduli);
    expectInnerProductMatchesReference(wide, {0, 2, 3}, 2027);
}

TEST_F(CkksFixture, FusedKeySwitchDecryptsAtEveryThreadCount)
{
    const auto rlk = keygen.relinKey();
    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);
    const auto a = randomSlots(encoder.slotCount(), 41, 0.8);
    const auto b = randomSlots(encoder.slotCount(), 42, 0.8);
    const auto ca =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto cb =
        encryptor.encrypt(encoder.encode(b, kScale, ctx.qCount()));
    const size_t top = ctx.qCount() - 1;
    const auto rlk_pre = evaluator.precomputeKeySwitch(rlk, top);
    const auto rot_pre = evaluator.precomputeKeySwitch(rot_key, top);
    const size_t half = encoder.slotCount();
    for (u32 threads : {1u, testutil::testThreads()}) {
        testutil::ThreadGuard guard(threads);
        const auto prod =
            evaluator.rescale(evaluator.multiply(ca, cb, rlk_pre));
        const auto dp = encoder.decode(decryptor.decrypt(prod));
        const auto dr = encoder.decode(
            decryptor.decrypt(evaluator.rotate(ca, k, rot_pre)));
        for (size_t j = 0; j < half; ++j) {
            EXPECT_LT(std::abs(dp[j] - a[j] * b[j]), 1e-2)
                << "threads=" << threads << " slot=" << j;
            EXPECT_LT(std::abs(dr[j] - a[(j + 1) % half]), 1e-2)
                << "threads=" << threads << " slot=" << j;
        }
    }
}

/**
 * hoistedModUp(c1) against BigUInt CRT, independently of BConv: per
 * digit and coefficient, x is composed from the digit's residues of c1;
 * every limb of the digit's extended polynomial, back in coefficient
 * form, must equal (x + alpha * Q_digit) mod its modulus for one
 * alpha < digit size shared by all of them.
 */
void
expectModUpMatchesCrt(const CkksContext &ctx, const poly::RnsPoly &c1)
{
    const CkksEvaluator ev(ctx);
    const HoistedDecomp dec = ev.hoistedModUp(c1);
    const size_t level = c1.limbCount() - 1;
    ASSERT_EQ(dec.level, level);
    ASSERT_EQ(dec.digits.size(), ctx.activeDigits(level));
    poly::RnsPoly c_coeff = c1;
    c_coeff.toCoeff();

    for (size_t j = 0; j < dec.digits.size(); ++j) {
        const auto [first, last] = ctx.digitRange(j, level);
        std::vector<u64> digit_moduli;
        for (size_t i = first; i < last; ++i)
            digit_moduli.push_back(ctx.qModulus(i));
        const rns::RnsBasis digit(digit_moduli);
        poly::RnsPoly up = dec.digits[j];
        ASSERT_EQ(up.slots(), dec.extSlots);
        up.toCoeff();

        std::vector<u64> res(digit.size());
        for (size_t coef = 0; coef < ctx.degree(); ++coef) {
            for (size_t i = first; i < last; ++i)
                res[i - first] = c_coeff.limb(i)[coef];
            nt::BigUInt shifted = digit.compose(res);
            bool matched = false;
            for (size_t alpha = 0; alpha < digit.size() && !matched;
                 ++alpha) {
                if (alpha > 0)
                    shifted = shifted + digit.bigModulus();
                matched = true;
                for (size_t pos = 0; pos < up.limbCount(); ++pos) {
                    if (up.limb(pos)[coef] !=
                        shifted.modSmall(up.limbModulus(pos))) {
                        matched = false;
                        break;
                    }
                }
            }
            ASSERT_TRUE(matched)
                << "level " << level << " digit " << j << " coef " << coef
                << ": no alpha < digit size explains the ModUp limbs";
        }
    }
}

TEST(ModUpOracle, HoistedModUpMatchesBigUIntCrt)
{
    const CkksContext ctx(CkksParams::paperSet('A'));
    Rng rng(2026);
    // A random level-L polynomial: every digit at full size.
    expectModUpMatchesCrt(
        ctx, poly::RnsPoly::uniform(ctx.ring(), ctx.qCount(), true, rng));

    // A mid-level ciphertext: the top digit is cut short.
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, 7);
    CkksEncryptor encryptor(ctx, keygen.publicKey(), 8);
    const CkksEvaluator ev(ctx);
    const auto ct = ev.reduceToLimbs(
        encryptor.encrypt(encoder.encode(
            randomSlots(encoder.slotCount(), 9), kScale, ctx.qCount())),
        ctx.qCount() - 1);
    const size_t mid = ct.level();
    const auto [top_first, top_last] =
        ctx.digitRange(ctx.activeDigits(mid) - 1, mid);
    ASSERT_LT(top_last - top_first, ctx.params().alpha())
        << "the mid level must leave a short top digit";
    expectModUpMatchesCrt(ctx, ct.c1);
}

// ---------------------------------------------------------------------
// Precomp / rotation safety (regression: silent-corruption guards)
// ---------------------------------------------------------------------
TEST_F(CkksFixture, MismatchedPrecompLevelThrows)
{
    const auto rlk = keygen.relinKey();
    const auto a = randomSlots(encoder.slotCount(), 31, 0.5);
    const auto ct =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));

    // A precomp one level below the operands: accepted silently, it
    // would key-switch with the wrong digit restriction.
    const auto stale =
        evaluator.precomputeKeySwitch(rlk, ct.limbs() - 2);
    EXPECT_THROW(evaluator.multiply(ct, ct, stale),
                 std::invalid_argument);
    EXPECT_THROW(evaluator.relinearize(evaluator.multiplyNoRelin(ct, ct),
                                       stale),
                 std::invalid_argument);

    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);
    const auto rot_stale =
        evaluator.precomputeKeySwitch(rot_key, ct.limbs() - 2);
    EXPECT_THROW(evaluator.rotate(ct, k, rot_stale),
                 std::invalid_argument);

    // The matching level still works.
    const auto fresh =
        evaluator.precomputeKeySwitch(rlk, ct.limbs() - 1);
    EXPECT_NO_THROW(evaluator.multiply(ct, ct, fresh));
}

TEST_F(CkksFixture, RotateRejectsNonUnitAutomorphismIndices)
{
    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);
    const auto a = randomSlots(encoder.slotCount(), 32, 0.5);
    const auto ct =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const u32 two_n = 2 * ctx.degree();

    // Even indices are not ring automorphisms at all.
    EXPECT_THROW(evaluator.rotate(ct, 2, rot_key), std::invalid_argument);
    EXPECT_THROW(evaluator.rotate(ct, 0, rot_key), std::invalid_argument);
    // Indices >= 2N alias a smaller Galois element: previously accepted
    // and silently applied as k mod 2N (with a duplicate cache entry).
    EXPECT_THROW(evaluator.rotate(ct, two_n + k, rot_key),
                 std::invalid_argument);

    const auto pre =
        evaluator.precomputeKeySwitch(rot_key, ct.limbs() - 1);
    EXPECT_THROW(evaluator.rotate(ct, 2, pre), std::invalid_argument);
    EXPECT_THROW(evaluator.rotate(ct, two_n + k, pre),
                 std::invalid_argument);
    EXPECT_NO_THROW(evaluator.rotate(ct, k, pre));
}

// ---------------------------------------------------------------------
// Schedule enumerator == functional kernel log
// ---------------------------------------------------------------------
class ScheduleMatch : public ::testing::TestWithParam<HeOp>
{
};

TEST_P(ScheduleMatch, EnumeratorPredictsEvaluatorKernels)
{
    const HeOp op = GetParam();
    CkksContext ctx(CkksParams::testSet(1 << 9, 5, 2));
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, 99);
    CkksEncryptor enc(ctx, keygen.publicKey(), 100);
    CkksDecryptor dec(ctx, keygen.secretKey());
    KernelLog log;
    CkksEvaluator ev(ctx, &log);

    const auto a = randomSlots(4, 25, 0.5);
    const auto ca = enc.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto cb = enc.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto pt = encoder.encode(a, kScale, ctx.qCount());
    const auto rlk = keygen.relinKey();
    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);

    log.clear();
    switch (op) {
      case HeOp::Add:
        (void)ev.add(ca, cb);
        break;
      case HeOp::Mult:
        (void)ev.multiply(ca, cb, rlk);
        break;
      case HeOp::Rescale:
        (void)ev.rescale(ca);
        break;
      case HeOp::Rotate:
        (void)ev.rotate(ca, k, rot_key);
        break;
      case HeOp::RescaleMulti:
        (void)ev.rescaleMulti(ca);
        break;
      case HeOp::AddPlain:
        (void)ev.addPlain(ca, pt);
        break;
      case HeOp::MultiplyPlain:
        (void)ev.multiplyPlain(ca, pt);
        break;
      case HeOp::RotateAccum:
        // One fan-in branch: rotate the input, fold it back in.
        (void)ev.add(ca, ev.rotate(ca, k, rot_key));
        break;
      case HeOp::HoistedRotations:
        // One hoisted branch: shared ModUp, rotation block, fold.
        (void)ev.add(ca, ev.rotateHoisted(ca, {{k, &rot_key}}).front());
        break;
    }

    const auto predicted =
        enumerateKernels(op, ctx.params(), ctx.qCount() - 1);
    ASSERT_EQ(log.calls().size(), predicted.size()) << heOpName(op);
    for (size_t i = 0; i < predicted.size(); ++i) {
        EXPECT_TRUE(log.calls()[i].sameShape(predicted[i]))
            << heOpName(op) << " kernel " << i << ": got "
            << kernelKindName(log.calls()[i].kind) << "("
            << log.calls()[i].limbs << "->" << log.calls()[i].limbsOut
            << "), want " << kernelKindName(predicted[i].kind) << "("
            << predicted[i].limbs << "->" << predicted[i].limbsOut << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(AllOps, ScheduleMatch,
                         ::testing::Values(HeOp::Add, HeOp::Mult,
                                           HeOp::Rescale, HeOp::Rotate,
                                           HeOp::AddPlain,
                                           HeOp::MultiplyPlain,
                                           HeOp::RotateAccum,
                                           HeOp::HoistedRotations));

// Conformance at *every* level -- not just the top spot-check above --
// including the double-rescale operator (rescaleSplit = 2).
TEST(ScheduleMatchAllLevels, EnumeratorPredictsEvaluatorAtEveryLevel)
{
    auto params = CkksParams::testSet(1 << 9, 6, 2);
    params.rescaleSplit = 2;
    CkksContext ctx(params);
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, 101);
    CkksEncryptor enc(ctx, keygen.publicKey(), 102);
    KernelLog log;
    CkksEvaluator ev(ctx, &log);

    const auto rlk = keygen.relinKey();
    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);
    const auto fresh = enc.encrypt(
        encoder.encode(randomSlots(4, 26, 0.5), kScale, ctx.qCount()));

    for (HeOp op : {HeOp::Add, HeOp::Mult, HeOp::Rescale, HeOp::Rotate,
                    HeOp::RescaleMulti, HeOp::AddPlain,
                    HeOp::MultiplyPlain, HeOp::RotateAccum,
                    HeOp::HoistedRotations}) {
        for (size_t level = 0; level < ctx.qCount(); ++level) {
            const size_t min_level = op == HeOp::Rescale ? 1
                : op == HeOp::RescaleMulti ? params.rescaleSplit
                                           : 0;
            if (level < min_level)
                continue;
            const auto ct = ev.reduceToLimbs(fresh, level + 1);
            const auto pt = encoder.encode(randomSlots(4, 27, 0.5),
                                           kScale, level + 1);
            log.clear();
            switch (op) {
              case HeOp::Add:
                (void)ev.add(ct, ct);
                break;
              case HeOp::Mult:
                (void)ev.multiply(ct, ct, rlk);
                break;
              case HeOp::Rescale:
                (void)ev.rescale(ct);
                break;
              case HeOp::Rotate:
                (void)ev.rotate(ct, k, rot_key);
                break;
              case HeOp::RescaleMulti:
                (void)ev.rescaleMulti(ct);
                break;
              case HeOp::AddPlain:
                (void)ev.addPlain(ct, pt);
                break;
              case HeOp::MultiplyPlain:
                (void)ev.multiplyPlain(ct, pt);
                break;
              case HeOp::RotateAccum:
                (void)ev.add(ct, ev.rotate(ct, k, rot_key));
                break;
              case HeOp::HoistedRotations:
                (void)ev.add(
                    ct, ev.rotateHoisted(ct, {{k, &rot_key}}).front());
                break;
            }

            const auto predicted =
                enumerateKernels(op, ctx.params(), level);
            ASSERT_EQ(log.calls().size(), predicted.size())
                << heOpName(op) << " level " << level;
            for (size_t i = 0; i < predicted.size(); ++i) {
                EXPECT_TRUE(log.calls()[i].sameShape(predicted[i]))
                    << heOpName(op) << " level " << level << " kernel "
                    << i << ": got "
                    << kernelKindName(log.calls()[i].kind) << "("
                    << log.calls()[i].limbs << "->"
                    << log.calls()[i].limbsOut << "), want "
                    << kernelKindName(predicted[i].kind) << "("
                    << predicted[i].limbs << "->"
                    << predicted[i].limbsOut << ")";
            }
        }
    }
}

TEST(ScheduleMatchAllLevels, RescaleMultiIsSplitChainedRescales)
{
    auto p = CkksParams::testSet(1 << 10, 6, 3);
    p.rescaleSplit = 2;
    const auto multi = enumerateKernels(HeOp::RescaleMulti, p, 5);
    auto expect = enumerateKernels(HeOp::Rescale, p, 5);
    const auto second = enumerateKernels(HeOp::Rescale, p, 4);
    expect.insert(expect.end(), second.begin(), second.end());
    ASSERT_EQ(multi.size(), expect.size());
    for (size_t i = 0; i < multi.size(); ++i)
        EXPECT_TRUE(multi[i].sameShape(expect[i])) << i;
    EXPECT_THROW(enumerateKernels(HeOp::RescaleMulti, p, 1),
                 std::invalid_argument);
}

TEST(Schedule, LowerLevelsShrinkKernelCounts)
{
    const auto p = CkksParams::testSet(1 << 10, 6, 3);
    const auto full = enumerateKernels(HeOp::Mult, p, 5);
    const auto low = enumerateKernels(HeOp::Mult, p, 2);
    EXPECT_GT(full.size(), low.size());
}

TEST(Schedule, PipelineEnumeratorChainsStagesWithEvolvingLevel)
{
    const auto p = CkksParams::testSet(1 << 10, 6, 3);
    // Mult at level 5, Rescale 5 -> 4, Rotate at level 4.
    const std::vector<PipelineOp> pipeline = {
        {HeOp::Mult}, {HeOp::Rescale}, {HeOp::Rotate}};
    const auto fused = enumerateKernels(pipeline, p, 5);

    auto expect = enumerateKernels(HeOp::Mult, p, 5);
    const auto rs = enumerateKernels(HeOp::Rescale, p, 5);
    const auto rot = enumerateKernels(HeOp::Rotate, p, 4);
    expect.insert(expect.end(), rs.begin(), rs.end());
    expect.insert(expect.end(), rot.begin(), rot.end());

    ASSERT_EQ(fused.size(), expect.size());
    for (size_t i = 0; i < fused.size(); ++i)
        EXPECT_TRUE(fused[i].sameShape(expect[i])) << i;

    // Draining past the chain throws like the evaluator would.
    const std::vector<PipelineOp> too_deep(6, {HeOp::Rescale});
    EXPECT_THROW(enumerateKernels(too_deep, p, 5), std::invalid_argument);
}

TEST(Schedule, HeOpNextLevelTracksLimbConsumption)
{
    auto p = CkksParams::testSet(1 << 10, 6, 3);
    p.rescaleSplit = 2;
    EXPECT_EQ(heOpNextLevel(HeOp::Add, p, 5), 5u);
    EXPECT_EQ(heOpNextLevel(HeOp::Mult, p, 5), 5u);
    EXPECT_EQ(heOpNextLevel(HeOp::Rotate, p, 5), 5u);
    EXPECT_EQ(heOpNextLevel(HeOp::Rescale, p, 5), 4u);
    EXPECT_EQ(heOpNextLevel(HeOp::RescaleMulti, p, 5), 3u);
    EXPECT_THROW(heOpNextLevel(HeOp::Rescale, p, 0),
                 std::invalid_argument);
    EXPECT_THROW(heOpNextLevel(HeOp::RescaleMulti, p, 1),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Cost model and bootstrapping estimator sanity
// ---------------------------------------------------------------------
TEST(CostModel, OrderingAndPositivity)
{
    const auto p = CkksParams::paperSet('A');
    lowering::Config cfg;
    HeOpCostModel model(tpu::tpuV6e(), cfg, p);
    const size_t lvl = p.limbs - 1;
    const double add = model.opLatencyUs(HeOp::Add, lvl);
    const double mult = model.opLatencyUs(HeOp::Mult, lvl);
    const double rescale = model.opLatencyUs(HeOp::Rescale, lvl);
    const double rotate = model.opLatencyUs(HeOp::Rotate, lvl);
    EXPECT_GT(add, 0);
    EXPECT_GT(mult, add);
    EXPECT_GT(rotate, add);
    EXPECT_GT(mult, rescale);
}

TEST(CostModel, MoreLimbsCostMore)
{
    lowering::Config cfg;
    const auto pd = CkksParams::paperSet('D');
    HeOpCostModel model(tpu::tpuV6e(), cfg, pd);
    EXPECT_GT(model.opLatencyUs(HeOp::Mult, 50),
              model.opLatencyUs(HeOp::Mult, 20));
}

TEST(CostModel, PipelineCostMatchesStageSum)
{
    lowering::Config cfg;
    const auto p = CkksParams::paperSet('B');
    HeOpCostModel model(tpu::tpuV6e(), cfg, p);
    const size_t lvl = p.limbs - 1;

    const std::vector<PipelineOp> pipeline = {
        {HeOp::Mult}, {HeOp::Rescale}, {HeOp::Rotate}};
    auto sum = model.opCost(HeOp::Mult, lvl);
    sum.append(model.opCost(HeOp::Rescale, lvl));
    sum.append(model.opCost(HeOp::Rotate, lvl - 1));
    const auto fused = model.pipelineCost(pipeline, lvl);

    EXPECT_DOUBLE_EQ(fused.computeUs, sum.computeUs);
    EXPECT_DOUBLE_EQ(fused.fixedUs, sum.fixedUs);
    EXPECT_EQ(fused.paramBytes, sum.paramBytes);
    EXPECT_EQ(fused.dataBytes, sum.dataBytes);
    EXPECT_GT(model.pipelineLatencyUs(pipeline, lvl), 0);
    // Batching amortises the fused launch like any single operator.
    EXPECT_LT(model.pipelineLatencyUs(pipeline, lvl, 16),
              model.pipelineLatencyUs(pipeline, lvl, 1));
}

TEST(CostModel, BreakdownSumsToTotalish)
{
    const auto p = CkksParams::paperSet('D');
    lowering::Config cfg;
    HeOpCostModel model(tpu::tpuV6e(), cfg, p);
    const auto bd = model.opBreakdown(HeOp::Mult, p.limbs - 1);
    double sum = 0;
    for (const auto &[cat, us] : bd)
        sum += us;
    EXPECT_GT(sum, 0);
}

TEST(Bootstrap, EstimateIsConsistent)
{
    const auto p = CkksParams::paperSet('D');
    lowering::Config cfg;
    const auto est = estimateBootstrap(tpu::tpuV6e(), cfg, p);
    EXPECT_GT(est.totalUs, 0);
    EXPECT_GT(est.kernelLaunches, est.heOps);
    double sum = 0;
    for (const auto &[k, us] : est.byKernelUs)
        sum += us;
    EXPECT_NEAR(sum, est.totalUs, est.totalUs * 1e-9);
    // Automorphism should be the dominant share (Table IX: 35.6%).
    EXPECT_GT(est.fraction("Automorphism"), 0.15);
}

TEST(Bootstrap, RejectsShortChains)
{
    const auto p = CkksParams::testSet(1 << 10, 4, 2);
    EXPECT_THROW(enumerateBootstrapOps(p, {}), std::invalid_argument);
}

} // namespace
} // namespace cross::ckks
