/**
 * @file
 * Randomized dispatch-conformance suite for the runtime-selected SIMD
 * kernels (nt/modvec.h, the lazy NTT butterflies and in-register
 * small-stride stages in poly/ntt_ct.cc).
 *
 * The contract under test: every dispatch path (scalar / AVX2 /
 * AVX-512) produces BIT-IDENTICAL output for all valid inputs -- the
 * ISA choice is a pure speed choice, never a numerics choice. Each
 * conformance test draws random moduli across the supported bit range
 * (20..31 bits; below 2^30 exercises the lazy Harvey path, 30/31-bit
 * moduli the strict fallback), random lengths that cover both the
 * vector body and the scalar tails, and runs at thread counts 1 and
 * CROSS_TEST_THREADS (default 4) so the suite doubles as a data-race
 * probe under the TSan CI shard.
 *
 * Paths not compiled in or not supported by the host are skipped with
 * a notice (GTEST_SKIP), never silently passed.
 */
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitops.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "nt/barrett.h"
#include "nt/montgomery.h"
#include "nt/modvec.h"
#include "nt/primes.h"
#include "nt/shoup.h"
#include "nt/simd_dispatch.h"
#include "poly/ntt_ct.h"
#include "poly/ntt_kernels.h"
#include "poly/ntt_tables.h"

#include "test_refs.h"
#include "test_util.h"

namespace cross {
namespace {

using testutil::testThreads;
using testutil::ThreadGuard;

/** Scoped dispatch override; restores the CPUID default on exit. */
struct IsaGuard
{
    explicit IsaGuard(nt::SimdIsa isa) { nt::setSimdIsa(isa); }
    ~IsaGuard() { nt::setSimdIsa(nt::bestSimdIsa()); }
};

/** The vector ISAs; each conformance test compares them to Scalar. */
const nt::SimdIsa kVectorIsas[] = {nt::SimdIsa::Avx2,
                                   nt::SimdIsa::Avx512};

/** One random odd prime with exactly @p bits bits (modStep 2). */
u32
randomModulus(u32 bits)
{
    return static_cast<u32>(nt::generateNttPrimes(bits, 1, 2)[0]);
}

std::vector<u32>
randomVec(Rng &rng, size_t n, u64 bound)
{
    std::vector<u32> v(n);
    for (auto &x : v)
        x = static_cast<u32>(rng.uniform(bound));
    return v;
}

// ---------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------
TEST(SimdDispatch, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(nt::simdIsaCompiled(nt::SimdIsa::Scalar));
    EXPECT_TRUE(nt::simdIsaAvailable(nt::SimdIsa::Scalar));
}

TEST(SimdDispatch, NamesRoundTrip)
{
    for (auto isa : {nt::SimdIsa::Scalar, nt::SimdIsa::Avx2,
                     nt::SimdIsa::Avx512})
        EXPECT_EQ(nt::parseSimdIsa(nt::simdIsaName(isa)), isa);
    EXPECT_THROW(nt::parseSimdIsa("neon"), std::invalid_argument);
}

TEST(SimdDispatch, SetRejectsUnavailableIsa)
{
    for (auto isa : kVectorIsas) {
        if (!nt::simdIsaAvailable(isa)) {
            EXPECT_THROW(nt::setSimdIsa(isa), std::invalid_argument);
        }
    }
    // Always-valid transitions keep working afterwards.
    nt::setSimdIsa(nt::SimdIsa::Scalar);
    EXPECT_EQ(nt::activeSimdIsa(), nt::SimdIsa::Scalar);
    nt::setSimdIsa(nt::bestSimdIsa());
}

TEST(SimdDispatch, SetThrowsUnderActiveParallelFor)
{
    ThreadGuard guard(testThreads());
    const auto before = nt::activeSimdIsa();
    // Switching the kernel tables while a parallel kernel may be
    // mid-flight must fail loudly instead of racing.
    EXPECT_THROW(parallelFor(0, 64,
                             [&](size_t) {
                                 nt::setSimdIsa(nt::SimdIsa::Scalar);
                             }),
                 std::logic_error);
    // The dispatch state must survive the failed attempt.
    EXPECT_EQ(nt::activeSimdIsa(), before);
}

// ---------------------------------------------------------------------
// modvec conformance: every op, every available ISA, random shapes
// ---------------------------------------------------------------------

/** Sizes covering the vector body, the scalar tail, and both empty. */
const size_t kSizes[] = {0, 1, 7, 8, 16, 33, 100, 1024, 1031};

struct ModVecCase
{
    u32 q;
    std::vector<u32> a, b, a2q; // a2q: lazy-range inputs < 2q
    std::vector<u64> wide;      // accumulators < 2^63
    nt::ShoupConst c;
    u32 w;
};

ModVecCase
makeCase(Rng &rng, u32 bits, size_t n)
{
    ModVecCase t;
    t.q = randomModulus(bits);
    t.a = randomVec(rng, n, t.q);
    t.b = randomVec(rng, n, t.q);
    t.a2q = randomVec(rng, n, 2ull * t.q);
    t.wide.resize(n);
    for (auto &x : t.wide)
        x = rng.uniform(u64{1} << 62);
    t.c = nt::shoupPrecompute(static_cast<u32>(rng.uniform(t.q)), t.q);
    t.w = static_cast<u32>(rng.uniform(t.q));
    return t;
}

/** All nine modvec results for one case under the active dispatch. */
struct ModVecResults
{
    std::vector<u32> add, sub, neg, shoup, shoup2q, mont, mul, red;
    std::vector<u64> accum, redip;
};

ModVecResults
runModVec(const ModVecCase &t)
{
    const size_t n = t.a.size();
    const nt::Barrett bar(t.q);
    const nt::Montgomery mont(t.q);
    ModVecResults r;
    r.add.resize(n);
    nt::addModVec(r.add.data(), t.a.data(), t.b.data(), n, t.q);
    r.sub.resize(n);
    nt::subModVec(r.sub.data(), t.a.data(), t.b.data(), n, t.q);
    r.neg.resize(n);
    nt::negModVec(r.neg.data(), t.a.data(), n, t.q);
    r.shoup.resize(n);
    nt::mulShoupVec(r.shoup.data(), t.a.data(), t.c, n, t.q);
    r.shoup2q.resize(n);
    nt::mulShoupVec(r.shoup2q.data(), t.a2q.data(), t.c, n, t.q);
    r.mont.resize(n);
    nt::mulMontVec(r.mont.data(), t.a.data(), t.b.data(), n, mont);
    r.mul.resize(n);
    nt::mulModVec(r.mul.data(), t.a.data(), t.b.data(), n, bar);
    r.accum = t.wide;
    nt::accumMulVec(r.accum.data(), t.a.data(), t.w, n);
    r.red.resize(n);
    nt::reduceWideVec(r.red.data(), t.wide.data(), n, bar);
    r.redip = t.wide;
    nt::reduceWideInPlaceVec(r.redip.data(), n, bar);
    return r;
}

void
expectSameResults(const ModVecResults &x, const ModVecResults &y,
                  u32 bits, size_t n, const char *isa)
{
    const std::string where = std::string(" [isa=") + isa +
        " bits=" + std::to_string(bits) + " n=" + std::to_string(n) +
        "]";
    EXPECT_EQ(x.add, y.add) << "addModVec" << where;
    EXPECT_EQ(x.sub, y.sub) << "subModVec" << where;
    EXPECT_EQ(x.neg, y.neg) << "negModVec" << where;
    EXPECT_EQ(x.shoup, y.shoup) << "mulShoupVec" << where;
    EXPECT_EQ(x.shoup2q, y.shoup2q) << "mulShoupVec(2q)" << where;
    EXPECT_EQ(x.mont, y.mont) << "mulMontVec" << where;
    EXPECT_EQ(x.mul, y.mul) << "mulModVec" << where;
    EXPECT_EQ(x.accum, y.accum) << "accumMulVec" << where;
    EXPECT_EQ(x.red, y.red) << "reduceWideVec" << where;
    EXPECT_EQ(x.redip, y.redip) << "reduceWideInPlaceVec" << where;
}

TEST(SimdConformance, ModVecBitIdenticalAcrossIsas)
{
    Rng rng(20260808);
    for (u32 bits : {20u, 24u, 28u, 30u, 31u}) {
        for (size_t n : kSizes) {
            const ModVecCase t = makeCase(rng, bits, n);
            ModVecResults ref;
            {
                IsaGuard g(nt::SimdIsa::Scalar);
                ref = runModVec(t);
            }
            for (auto isa : kVectorIsas) {
                if (!nt::simdIsaAvailable(isa))
                    continue; // skip notice emitted once below
                IsaGuard g(isa);
                expectSameResults(ref, runModVec(t), bits, n,
                                  nt::simdIsaName(isa));
            }
        }
    }
    for (auto isa : kVectorIsas) {
        if (!nt::simdIsaAvailable(isa))
            std::fprintf(stderr,
                         "[simd_test] notice: %s not available on this "
                         "host/binary; conformance limited to scalar\n",
                         nt::simdIsaName(isa));
    }
}

/**
 * nt::dotModVec under the active dispatch, with dst aliasing a copy of
 * a[0] (the RnsPoly in-place form).
 */
std::vector<u32>
runDotMod(const std::vector<std::vector<u32>> &a,
          const std::vector<std::vector<u32>> &b, const nt::Barrett &bar)
{
    const size_t k = a.size();
    std::vector<u32> dst = a[0];
    std::vector<const u32 *> pa(k), pb(k);
    for (size_t t = 0; t < k; ++t) {
        pa[t] = t == 0 ? dst.data() : a[t].data();
        pb[t] = b[t].data();
    }
    nt::dotModVec(dst.data(), pa.data(), pb.data(), k, dst.size(), bar);
    return dst;
}

TEST(SimdConformance, DotModMatchesExactOracle)
{
    Rng rng(20261020);
    for (u32 bits : {28u, 30u, 31u}) {
        const u32 q = randomModulus(bits);
        const nt::Barrett bar(q);
        const size_t window = nt::dotModWindow(q);
        // The window is the largest term count whose worst-case sum
        // stays below 2^63.
        const u128 sq = static_cast<u128>(q - 1) * (q - 1);
        const u128 cap = (u128{1} << 63) - 1;
        ASSERT_LE(window * sq, cap) << "bits=" << bits;
        ASSERT_GT((window + 1) * sq, cap) << "bits=" << bits;
        if (bits == 28) {
            EXPECT_GE(window, 128u);
        } else if (bits == 31) {
            EXPECT_EQ(window, 2u);
        }

        // Every k up to window + 3 on a short odd length; the window
        // edges on a length with a tail for every vector width; and
        // the all-(q-1) worst case at the edges.
        struct Shape
        {
            size_t k, n;
            bool extreme;
        };
        std::vector<Shape> shapes;
        for (size_t k = 1; k <= window + 3; ++k)
            shapes.push_back({k, 37, false});
        for (size_t k : {size_t{1}, size_t{2}, size_t{3}, window,
                         window + 1, window + 3}) {
            shapes.push_back({k, 1031, false});
            shapes.push_back({k, 45, true});
        }
        for (const Shape &sh : shapes) {
            std::vector<std::vector<u32>> a(sh.k), b(sh.k);
            for (size_t t = 0; t < sh.k; ++t) {
                a[t] = sh.extreme ? std::vector<u32>(sh.n, q - 1)
                                  : randomVec(rng, sh.n, q);
                b[t] = sh.extreme ? std::vector<u32>(sh.n, q - 1)
                                  : randomVec(rng, sh.n, q);
            }
            const std::vector<u32> want = testref::dotModExact(a, b, q);
            for (auto isa : {nt::SimdIsa::Scalar, nt::SimdIsa::Avx2,
                             nt::SimdIsa::Avx512}) {
                if (!nt::simdIsaAvailable(isa))
                    continue;
                IsaGuard g(isa);
                EXPECT_EQ(runDotMod(a, b, bar), want)
                    << "dotModVec [isa=" << nt::simdIsaName(isa)
                    << " bits=" << bits << " k=" << sh.k
                    << " n=" << sh.n << (sh.extreme ? " all q-1" : "")
                    << "]";
            }
        }
    }
}

/** nt::dotConstMontVec under the active dispatch into a fresh dst. */
std::vector<u32>
runDotConstMont(const std::vector<std::vector<u32>> &a,
                const std::vector<u32> &w, const nt::Montgomery &mont,
                const nt::Barrett &bar, size_t window)
{
    std::vector<u32> dst(a[0].size());
    std::vector<const u32 *> pa(a.size());
    for (size_t t = 0; t < a.size(); ++t)
        pa[t] = a[t].data();
    nt::dotConstMontVec(dst.data(), pa.data(), w.data(), a.size(),
                        dst.size(), mont, bar, window);
    return dst;
}

TEST(SimdConformance, DotConstMontMatchesExactOracle)
{
    Rng rng(20261022);
    for (u32 bits : {28u, 30u, 31u}) {
        const u32 q = randomModulus(bits);
        const nt::Montgomery mont(q);
        const nt::Barrett bar(q);
        const size_t window = nt::dotConstMontWindow(q);
        // The window is the largest term count whose worst-case sum
        // stays below q * 2^32, Montgomery reduction's input bound.
        const u128 sq = static_cast<u128>(q - 1) * (q - 1);
        const u128 cap = static_cast<u128>(q) << 32;
        ASSERT_LT(window * sq, cap) << "bits=" << bits;
        ASSERT_GE((window + 1) * static_cast<u128>(q - 1),
                  u128{1} << 32) << "bits=" << bits;
        if (bits == 28) {
            EXPECT_EQ(window, 16u);
        } else if (bits == 31) {
            EXPECT_EQ(window, 2u);
        }

        // Every k up to window + 3, on lengths with a tail for every
        // vector width (8 and 16) and without; and the all-(q-1) worst
        // case at the window edges.
        struct Shape
        {
            size_t k, n;
            bool extreme;
        };
        std::vector<Shape> shapes;
        for (size_t k = 1; k <= window + 3; ++k) {
            shapes.push_back({k, 37, false});
            shapes.push_back({k, 64, false});
        }
        for (size_t k : {size_t{1}, size_t{2}, window, window + 1,
                         window + 3, 2 * window + 1}) {
            shapes.push_back({k, 1031, false});
            shapes.push_back({k, 45, true});
        }
        for (const Shape &sh : shapes) {
            std::vector<std::vector<u32>> a(sh.k);
            std::vector<u32> w = sh.extreme ? std::vector<u32>(sh.k, q - 1)
                                            : randomVec(rng, sh.k, q);
            for (size_t t = 0; t < sh.k; ++t) {
                a[t] = sh.extreme ? std::vector<u32>(sh.n, q - 1)
                                  : randomVec(rng, sh.n, q);
            }
            const std::vector<u32> want =
                testref::dotConstMontExact(a, w, q);
            for (auto isa : {nt::SimdIsa::Scalar, nt::SimdIsa::Avx2,
                             nt::SimdIsa::Avx512}) {
                if (!nt::simdIsaAvailable(isa))
                    continue;
                IsaGuard g(isa);
                EXPECT_EQ(runDotConstMont(a, w, mont, bar, window), want)
                    << "dotConstMontVec [isa=" << nt::simdIsaName(isa)
                    << " bits=" << bits << " k=" << sh.k
                    << " n=" << sh.n << (sh.extreme ? " all q-1" : "")
                    << "]";
            }
        }
    }
}

// ---------------------------------------------------------------------
// NTT conformance: lazy + strict paths, single and batched, threaded
// ---------------------------------------------------------------------

/**
 * One NTT direction under the active dispatch over every poly of `in`:
 * per-poly forwardInPlace/inverseInPlace, or the batched
 * forwardInPlaceMany/inverseInPlaceMany.
 */
std::vector<std::vector<u32>>
runNtt(std::vector<std::vector<u32>> polys, const poly::NttTables &tab,
       bool inverse, bool batched)
{
    const size_t count = polys.size();
    if (batched) {
        std::vector<u32 *> ptrs(count);
        std::vector<const poly::NttTables *> tabs(count, &tab);
        for (size_t i = 0; i < count; ++i)
            ptrs[i] = polys[i].data();
        if (inverse)
            poly::inverseInPlaceMany(ptrs.data(), tabs.data(), count);
        else
            poly::forwardInPlaceMany(ptrs.data(), tabs.data(), count);
    } else {
        for (auto &p : polys) {
            if (inverse)
                poly::inverseInPlace(p.data(), tab);
            else
                poly::forwardInPlace(p.data(), tab);
        }
    }
    return polys;
}

/** NTT degrees: below, at and above every path's in-register span (2,
 *  16 and 32 coefficients) and the hebench degrees up to 2^14. */
const u32 kNttDegrees[] = {4u,   8u,    16u,   32u,   64u,
                           256u, 2048u, 4096u, 16384u};

TEST(SimdConformance, NttBitIdenticalAcrossIsasAndThreads)
{
    Rng rng(97);
    // 20..29-bit moduli take the lazy Harvey path (q < 2^30); 30/31-bit
    // ones exercise the strict fallback.
    for (u32 bits : {20u, 28u, 30u, 31u}) {
        for (u32 n : kNttDegrees) {
            const u32 q = static_cast<u32>(
                nt::generateNttPrimes(bits, 1, 2ull * n)[0]);
            const poly::NttTables tab(n, q);
            std::vector<std::vector<u32>> in(3);
            for (auto &v : in)
                v = randomVec(rng, n, q);

            std::vector<std::vector<u32>> fwd_ref, inv_ref;
            {
                IsaGuard g(nt::SimdIsa::Scalar);
                fwd_ref = runNtt(in, tab, false, false);
                inv_ref = runNtt(in, tab, true, false);
                // Roundtrip sanity on the scalar reference itself.
                ASSERT_EQ(runNtt(fwd_ref, tab, true, false), in)
                    << "scalar roundtrip bits=" << bits << " n=" << n;
            }

            for (auto isa : {nt::SimdIsa::Scalar, nt::SimdIsa::Avx2,
                             nt::SimdIsa::Avx512}) {
                if (!nt::simdIsaAvailable(isa))
                    continue;
                IsaGuard g(isa);
                const std::string where = std::string(" isa=") +
                    nt::simdIsaName(isa) + " bits=" + std::to_string(bits) +
                    " n=" + std::to_string(n);
                EXPECT_EQ(runNtt(in, tab, false, false), fwd_ref)
                    << "per-poly forward" << where;
                EXPECT_EQ(runNtt(in, tab, true, false), inv_ref)
                    << "per-poly inverse" << where;
                // One poly under 4 threads splits each transform into
                // 4 coefficient chunks (n >= 2048), 3 polys keep the
                // per-poly split.
                for (u32 threads : {1u, 4u}) {
                    ThreadGuard tg(threads);
                    for (size_t count : {size_t{1}, in.size()}) {
                        const std::vector<std::vector<u32>> sub(
                            in.begin(), in.begin() + count);
                        const std::string at = where + " threads=" +
                            std::to_string(threads) +
                            " polys=" + std::to_string(count);
                        EXPECT_EQ(runNtt(sub, tab, false, true),
                                  std::vector<std::vector<u32>>(
                                      fwd_ref.begin(),
                                      fwd_ref.begin() + count))
                            << "batched forward" << at;
                        EXPECT_EQ(runNtt(sub, tab, true, true),
                                  std::vector<std::vector<u32>>(
                                      inv_ref.begin(),
                                      inv_ref.begin() + count))
                            << "batched inverse" << at;
                    }
                }
            }
        }
    }
}

/**
 * Every lazy stage boundary, not only the transform outputs: the
 * values after the first k forward (resp. inverse) stages match the
 * scalar path bit for bit for every k, including the boundaries
 * inside the in-register small-stride stages.
 */
TEST(SimdConformance, NttStageBoundariesBitIdenticalAcrossIsas)
{
    Rng rng(2026);
    for (u32 bits : {20u, 24u, 28u, 29u}) {
        for (u32 n : kNttDegrees) {
            const u32 q = static_cast<u32>(
                nt::generateNttPrimes(bits, 1, 2ull * n)[0]);
            const poly::NttTables tab(n, q);
            const std::vector<u32> in = randomVec(rng, n, q);
            for (u32 k = 0; k <= ilog2(n); ++k) {
                std::vector<u32> fwd_ref = in, inv_ref = in;
                {
                    IsaGuard g(nt::SimdIsa::Scalar);
                    poly::detail::forwardLazyStages(fwd_ref.data(), tab, k);
                    poly::detail::inverseLazyStages(inv_ref.data(), tab, k);
                }
                for (auto isa : kVectorIsas) {
                    if (!nt::simdIsaAvailable(isa))
                        continue;
                    IsaGuard g(isa);
                    std::vector<u32> fwd = in, inv = in;
                    poly::detail::forwardLazyStages(fwd.data(), tab, k);
                    poly::detail::inverseLazyStages(inv.data(), tab, k);
                    EXPECT_EQ(fwd, fwd_ref)
                        << "forward stages=" << k << " isa="
                        << nt::simdIsaName(isa) << " bits=" << bits
                        << " n=" << n;
                    EXPECT_EQ(inv, inv_ref)
                        << "inverse stages=" << k << " isa="
                        << nt::simdIsaName(isa) << " bits=" << bits
                        << " n=" << n;
                }
            }
        }
    }
}

} // namespace
} // namespace cross
