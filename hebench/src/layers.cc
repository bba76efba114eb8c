/**
 * @file
 * Per-layer kernel probes shared by every traced run. Each probe calls
 * one layer's public entry point from outside the library, times it
 * call by call with steady_clock, reports the median, and checks the
 * output against a reference computed here before reporting anything.
 */
#include <cstdint>

#include "ckks/context.h"
#include "ckks/params.h"
#include "common/rng.h"
#include "harness.h"
#include "nt/modops.h"
#include "nt/modvec.h"
#include "nt/primes.h"
#include "poly/ntt_ct.h"
#include "poly/ring.h"

namespace hebench {

using namespace cross;

namespace {

u64
nttPrime(u32 n)
{
    return nt::generateNttPrimes(28, 1, 2ULL * n)[0];
}

/** One-limb NTT and INTT through RnsPoly::toEval / toCoeff, the path
 *  every HE operator takes. */
void
probeNtt(RunResult &out, u32 n, Rng &rng)
{
    const poly::Ring ring(n, {nttPrime(n)});
    poly::RnsPoly p = poly::RnsPoly::uniform(ring, 1, false, rng);
    const poly::RnsPoly orig = p;

    // Reference: the radix-2 Cooley-Tukey transform of poly/ntt_ct.
    std::vector<u32> ref = orig.limb(0);
    poly::forwardInPlace(ref.data(), ring.tables(0));
    p.toEval();
    require(p.limb(0) == ref, "poly: RnsPoly::toEval differs from the "
                              "radix-2 reference NTT");
    p.toCoeff();
    require(p == orig, "poly: INTT(NTT(a)) != a");

    // Round trips: an RnsPoly is tagged with its domain, so the
    // transforms alternate.
    std::vector<double> fwd, inv;
    for (int r = 0; r < 200; ++r) {
        auto t0 = Clock::now();
        p.toEval();
        auto t1 = Clock::now();
        p.toCoeff();
        auto t2 = Clock::now();
        fwd.push_back(secondsBetween(t0, t1));
        inv.push_back(secondsBetween(t1, t2));
    }
    require(p == orig, "poly: repeated NTT round trips changed a");
    const std::string tag = ".n" + std::to_string(n);
    out.add("poly.ntt_us" + tag, median(fwd) * 1e6, "us");
    out.add("poly.intt_us" + tag, median(inv) * 1e6, "us");
}

/** BConv at the Set C ModUp shape (digit 0 of 15 q-limbs, alpha = 5,
 *  onto the 10 complement q-limbs + 5 p-limbs), checked limb by limb
 *  against the conversion sum evaluated here in 128-bit arithmetic. */
void
probeBconv(RunResult &out, Rng &rng)
{
    const ckks::CkksContext ctx(ckks::CkksParams::paperSet('C'));
    const size_t level = ctx.qCount() - 1;
    const rns::BasisConversion &conv = ctx.modUpConv(0, level);
    const auto &from = conv.from();
    const auto &to = conv.to();
    const size_t n = ctx.degree();

    rns::LimbMatrix in(from.size(), std::vector<u32>(n));
    for (size_t i = 0; i < from.size(); ++i)
        for (auto &x : in[i])
            x = static_cast<u32>(rng.uniform(from.modulus(i)));

    rns::LimbMatrix got;
    conv.apply(in, got);
    require(got.size() == to.size(), "rns: BConv output limb count");
    for (size_t j = 0; j < to.size(); ++j) {
        const u64 p = to.modulus(j);
        for (size_t c = 0; c < n; c += 7) {
            unsigned __int128 acc = 0;
            for (size_t i = 0; i < from.size(); ++i) {
                const u64 q = from.modulus(i);
                u64 qhat_q = 1, qhat_p = 1;
                for (size_t k = 0; k < from.size(); ++k) {
                    if (k == i)
                        continue;
                    qhat_q = nt::mulMod(qhat_q, from.modulus(k) % q, q);
                    qhat_p = nt::mulMod(qhat_p, from.modulus(k) % p, p);
                }
                const u64 inv = nt::powMod(qhat_q, q - 2, q);
                const u64 y = nt::mulMod(in[i][c], inv, q);
                acc += static_cast<unsigned __int128>(y) * qhat_p;
            }
            require(got[j][c] == static_cast<u64>(acc % p),
                    "rns: BConv differs from the conversion sum");
        }
    }

    rns::LimbMatrix scratch;
    const double s = medianSeconds(50, [&] { conv.apply(in, scratch); });
    require(scratch == got, "rns: repeated BConv changed its output");
    out.add("rns.bconv_us", s * 1e6, "us");
}

/** The Montgomery vector multiply RnsPoly::mulPointwiseInPlace runs
 *  for every VecModMul kernel. */
void
probeVecModMul(RunResult &out, Rng &rng)
{
    constexpr size_t kLen = 1 << 14;
    const u32 q = static_cast<u32>(nttPrime(kLen));
    const nt::Montgomery mont(q);
    std::vector<u32> a(kLen), b(kLen), dst(kLen);
    for (size_t i = 0; i < kLen; ++i) {
        a[i] = static_cast<u32>(rng.uniform(q));
        b[i] = static_cast<u32>(rng.uniform(q));
    }
    nt::mulMontVec(dst.data(), a.data(), b.data(), kLen, mont);
    for (size_t i = 0; i < kLen; ++i)
        require(dst[i] == nt::mulMod(a[i], b[i], q),
                "nt: mulMontVec differs from the scalar product mod q");
    const double s = medianSeconds(300, [&] {
        nt::mulMontVec(dst.data(), a.data(), b.data(), kLen, mont);
    });
    out.add("nt.vecmodmul_ns_per_elem", s * 1e9 / kLen, "ns");
}

} // namespace

void
addLayerProbes(RunResult &out, std::uint64_t seed)
{
    Rng rng(seed ^ 0x1a7e5);
    probeNtt(out, 1u << 12, rng);
    probeNtt(out, 1u << 14, rng);
    probeBconv(out, rng);
    probeVecModMul(out, rng);
}

} // namespace hebench
