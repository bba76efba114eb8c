/**
 * @file
 * Host-CPU microbenchmarks (google-benchmark) of the actual modular
 * reduction implementations: the functional counterparts of the Fig. 13
 * ablation. These measure this library's real code on the build machine,
 * complementing the simulated TPU numbers.
 */
#include <algorithm>
#include <stdexcept>
#include <string>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/timer.h"
#include "gbench_main.h"
#include "cross/bat.h"
#include "cross/lazy_reduce.h"
#include "cross/sparse_baseline.h"
#include "nt/barrett.h"
#include "nt/modops.h"
#include "nt/modvec.h"
#include "nt/montgomery.h"
#include "nt/shoup.h"
#include "nt/primes.h"
#include "nt/simd_dispatch.h"
#include "rns/bconv.h"

namespace {

using namespace cross;

constexpr u32 kQ = 268369921; // 28-bit NTT prime
constexpr size_t kN = 4096;

std::vector<u32>
inputs(u64 seed)
{
    Rng rng(seed);
    std::vector<u32> v(kN);
    for (auto &x : v)
        x = static_cast<u32>(rng.uniform(kQ));
    return v;
}

void
BM_MulMod128(benchmark::State &state)
{
    const auto a = inputs(1), b = inputs(2);
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += nt::mulMod(a[i], b[i], kQ);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_MulMod128);

void
BM_Montgomery(benchmark::State &state)
{
    nt::Montgomery mont(kQ);
    const auto a = inputs(3), b = inputs(4);
    std::vector<u32> am(kN);
    for (size_t i = 0; i < kN; ++i)
        am[i] = mont.toMont(a[i]);
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += mont.mulMont(am[i], b[i]);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_Montgomery);

void
BM_MontgomeryPaperAlg1(benchmark::State &state)
{
    nt::Montgomery mont(kQ);
    const auto a = inputs(5), b = inputs(6);
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += mont.reducePaper(static_cast<u64>(a[i]) * b[i]);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_MontgomeryPaperAlg1);

void
BM_Barrett(benchmark::State &state)
{
    nt::Barrett bar(kQ);
    const auto a = inputs(7), b = inputs(8);
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += bar.mul(a[i], b[i]);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_Barrett);

void
BM_Shoup(benchmark::State &state)
{
    const auto a = inputs(9), b = inputs(10);
    std::vector<nt::ShoupConst> pre(kN);
    for (size_t i = 0; i < kN; ++i)
        pre[i] = nt::shoupPrecompute(b[i], kQ);
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += nt::shoupMul(a[i], pre[i], kQ);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_Shoup);

void
BM_BatScalar(benchmark::State &state)
{
    // Pre-known operand compiled to the K x K BAT block (Alg. 2).
    nt::Barrett bar(kQ);
    const auto a = inputs(11), b = inputs(12);
    std::vector<bat::ByteMatrix> blocks(kN);
    const u32 k = bat::chunkCount(kQ);
    for (size_t i = 0; i < kN; ++i)
        blocks[i] = bat::directScalarBat(a[i], kQ, k);
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += bat::batScalarMul(blocks[i], b[i], bar);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_BatScalar);

void
BM_SparseToeplitzScalar(benchmark::State &state)
{
    nt::Barrett bar(kQ);
    const auto a = inputs(13), b = inputs(14);
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += bat::sparseScalarMul(a[i], b[i], bar);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_SparseToeplitzScalar);

void
BM_LazyReduce(benchmark::State &state)
{
    bat::LazyReduceTable tab(kQ);
    Rng rng(15);
    std::vector<u64> psums(kN);
    for (auto &x : psums)
        x = rng.next();
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += tab.reduce(psums[i]);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_LazyReduce);

void
BM_FallbackChunkConv(benchmark::State &state)
{
    const auto a = inputs(16), b = inputs(17);
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += bat::mulViaChunkConvolution(a[i], b[i]);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_FallbackChunkConv);

/**
 * Post-run dispatch sweep over the element-wise vector kernels that the
 * evaluator actually dispatches at runtime (Shoup, Montgomery, Barrett
 * lanes), timed under every available SIMD path on identical inputs.
 * Emits micro_modred/vec_dispatch records keyed {op, isa} plus
 * micro_modred/vec_speedup records keyed {op, isa} whose items_per_sec
 * is the scalar-time / simd-time ratio for that op. Per-op ratios vary
 * with the kernel's arithmetic density, so these names stay unbanded in
 * fidelity_tolerance.json; the banded headline ratio lives in
 * bench_micro_ntt's micro_ntt/avx2_vs_scalar_speedup.
 */
void
dispatchSweep(bench::Reporter &rep)
{
    const nt::Barrett bar(kQ);
    const nt::Montgomery mont(kQ);
    const auto a = inputs(21), b = inputs(22);
    const auto c = nt::shoupPrecompute(b[0], kQ);
    std::vector<u32> bm(kN), dst(kN);
    for (size_t i = 0; i < kN; ++i)
        bm[i] = mont.toMont(b[i]);

    struct Ctx
    {
        const std::vector<u32> &a, &b, &bm;
        std::vector<u32> &dst;
        const nt::ShoupConst &c;
        const nt::Barrett &bar;
        const nt::Montgomery &mont;
    } ctx{a, b, bm, dst, c, bar, mont};
    using OpFn = void (*)(const Ctx &);
    const std::pair<const char *, OpFn> ops[] = {
        {"mul_shoup",
         [](const Ctx &x) {
             nt::mulShoupVec(x.dst.data(), x.a.data(), x.c, kN, kQ);
         }},
        {"mul_mont",
         [](const Ctx &x) {
             nt::mulMontVec(x.dst.data(), x.a.data(), x.bm.data(), kN,
                            x.mont);
         }},
        {"mul_barrett",
         [](const Ctx &x) {
             nt::mulModVec(x.dst.data(), x.a.data(), x.b.data(), kN,
                           x.bar);
         }},
    };

    const nt::SimdIsa prev = nt::activeSimdIsa();
    TablePrinter t("SIMD dispatch sweep: vector modmul kernels, N = 4096");
    t.header({"op", "ISA", "ns/vec", "vs scalar"});
    for (const auto &[op_name, fn] : ops) {
        double scalar_ns = 0.0;
        for (auto isa : {nt::SimdIsa::Scalar, nt::SimdIsa::Avx2,
                         nt::SimdIsa::Avx512}) {
            if (!nt::simdIsaAvailable(isa))
                continue;
            nt::setSimdIsa(isa);
            constexpr int kIters = 2000;
            for (int i = 0; i < kIters / 4; ++i)
                fn(ctx);
            double best_ns = 1e30;
            for (int round = 0; round < 5; ++round) {
                WallTimer w;
                for (int i = 0; i < kIters; ++i) {
                    fn(ctx);
                    benchmark::DoNotOptimize(dst.data());
                }
                best_ns = std::min(best_ns, w.seconds() * 1e9 / kIters);
            }
            const char *isa_name = nt::simdIsaName(isa);
            rep.add("micro_modred/vec_dispatch",
                    {{"op", op_name},
                     {"isa", isa_name},
                     {"n", std::to_string(kN)}},
                    best_ns, kN * 1e9 / best_ns);
            if (isa == nt::SimdIsa::Scalar) {
                scalar_ns = best_ns;
                t.row({op_name, isa_name, fmtF(best_ns, 1), "1.00"});
            } else {
                const double speedup = scalar_ns / best_ns;
                rep.add("micro_modred/vec_speedup",
                        {{"op", op_name}, {"isa", isa_name}}, 0.0,
                        speedup);
                t.row({op_name, isa_name, fmtF(best_ns, 1),
                       fmtX(speedup, 2)});
            }
        }
    }
    nt::setSimdIsa(prev);
    t.print(std::cout);
}

/**
 * The key-switch inner product at the Set C shape (k = 3 digits,
 * N = 2^14, 28-bit q), two ways on identical inputs under every
 * available SIMD path: the fused dotModVec lane, and the chain it
 * replaced (k mulMontVec products, each folded into the sum by
 * addModVec). Both produce the same residues; the check below fails
 * the run if they do not. Emits micro_modred/dot_mod keyed {impl,
 * isa, k, n} and micro_modred/dot_vs_mul_add keyed {isa} whose
 * items_per_sec is the chain-time / fused-time ratio. Unbanded in
 * fidelity_tolerance.json until data from more hosts has accumulated.
 */
void
dotSweep(bench::Reporter &rep)
{
    constexpr size_t kDigits = 3;
    constexpr size_t kDegree = size_t{1} << 14;
    const nt::Barrett bar(kQ);
    const nt::Montgomery mont(kQ);
    Rng rng(31);
    std::vector<std::vector<u32>> a(kDigits), b(kDigits);
    std::vector<const u32 *> pa(kDigits), pb(kDigits);
    for (size_t t = 0; t < kDigits; ++t) {
        a[t].resize(kDegree);
        b[t].resize(kDegree);
        for (size_t j = 0; j < kDegree; ++j) {
            a[t][j] = static_cast<u32>(rng.uniform(kQ));
            b[t][j] = static_cast<u32>(rng.uniform(kQ));
        }
        pa[t] = a[t].data();
        pb[t] = b[t].data();
    }
    std::vector<u32> fused(kDegree), chain(kDegree), tmp(kDegree);
    auto run_fused = [&] {
        nt::dotModVec(fused.data(), pa.data(), pb.data(), kDigits, kDegree,
                      bar);
    };
    auto run_chain = [&] {
        nt::mulMontVec(chain.data(), pa[0], pb[0], kDegree, mont);
        for (size_t t = 1; t < kDigits; ++t) {
            nt::mulMontVec(tmp.data(), pa[t], pb[t], kDegree, mont);
            nt::addModVec(chain.data(), chain.data(), tmp.data(), kDegree,
                          kQ);
        }
    };
    auto best_ns = [](auto &&fn, const std::vector<u32> &out) {
        constexpr int kIters = 200;
        for (int i = 0; i < kIters / 4; ++i)
            fn();
        double best = 1e30;
        for (int round = 0; round < 5; ++round) {
            WallTimer w;
            for (int i = 0; i < kIters; ++i) {
                fn();
                benchmark::DoNotOptimize(out.data());
            }
            best = std::min(best, w.seconds() * 1e9 / kIters);
        }
        return best;
    };

    const nt::SimdIsa prev = nt::activeSimdIsa();
    TablePrinter t("Key-switch inner product: fused dotModVec vs "
                   "mulMontVec + addModVec, k = 3, N = 2^14, 28-bit q");
    t.header({"ISA", "fused us", "mul+add us", "speedup"});
    const std::string k_str = std::to_string(kDigits);
    const std::string n_str = std::to_string(kDegree);
    for (auto isa : {nt::SimdIsa::Scalar, nt::SimdIsa::Avx2,
                     nt::SimdIsa::Avx512}) {
        if (!nt::simdIsaAvailable(isa))
            continue;
        nt::setSimdIsa(isa);
        const double fused_ns = best_ns(run_fused, fused);
        const double chain_ns = best_ns(run_chain, chain);
        if (fused != chain)
            throw std::runtime_error(
                "dotSweep: dotModVec differs from mulMontVec + addModVec");
        const char *isa_name = nt::simdIsaName(isa);
        const double items = static_cast<double>(kDigits * kDegree);
        rep.add("micro_modred/dot_mod",
                {{"impl", "fused"}, {"isa", isa_name}, {"k", k_str},
                 {"n", n_str}},
                fused_ns, items * 1e9 / fused_ns);
        rep.add("micro_modred/dot_mod",
                {{"impl", "mul_add"}, {"isa", isa_name}, {"k", k_str},
                 {"n", n_str}},
                chain_ns, items * 1e9 / chain_ns);
        rep.add("micro_modred/dot_vs_mul_add", {{"isa", isa_name}}, 0.0,
                chain_ns / fused_ns);
        t.row({isa_name, fmtF(fused_ns / 1e3, 1), fmtF(chain_ns / 1e3, 1),
               fmtX(chain_ns / fused_ns, 2)});
    }
    nt::setSimdIsa(prev);
    t.print(std::cout);
}

/**
 * BConv at the Set C ModUp shape (5 -> 15 limbs, N = 2^14, 28-bit
 * moduli) under every available SIMD path: BasisConversion::apply
 * (pointer form, both steps), its step 2 alone (the register-resident
 * dotConstMontVec lane), and the same step-2 work as the u64 chain it
 * replaced (accumMulVec per source limb, reduceWideInPlaceVec every
 * reduceEvery() terms, reduceWideVec at the end). The two step-2 forms
 * must give the same residues; the run fails if they do not. Emits
 * micro_modred/bconv keyed {impl, isa, l_in, l_out, n} and
 * micro_modred/bconv_step2_vs_accum keyed {isa} whose items_per_sec is
 * the accum-time / lane-time ratio. Unbanded in fidelity_tolerance.json.
 */
void
bconvSweep(bench::Reporter &rep)
{
    constexpr size_t kIn = 5, kOut = 15;
    constexpr size_t kDegree = size_t{1} << 14;
    const auto moduli = nt::generateNttPrimes(28, kIn + kOut, 2 * kDegree);
    const rns::RnsBasis from({moduli.begin(), moduli.begin() + kIn});
    const rns::RnsBasis to({moduli.begin() + kIn, moduli.end()});
    const rns::BasisConversion conv(from, to);

    Rng rng(41);
    std::vector<std::vector<u32>> in(kIn), b(kIn), lane(kOut), accum(kOut);
    std::vector<const u32 *> pin(kIn);
    std::vector<u32 *> pb(kIn), plane(kOut);
    for (size_t i = 0; i < kIn; ++i) {
        in[i].resize(kDegree);
        b[i].resize(kDegree);
        for (auto &x : in[i])
            x = static_cast<u32>(rng.uniform(from.modulus(i)));
        pin[i] = in[i].data();
        pb[i] = b[i].data();
    }
    for (size_t j = 0; j < kOut; ++j) {
        lane[j].resize(kDegree);
        accum[j].resize(kDegree);
        plane[j] = lane[j].data();
    }
    conv.step1(pin.data(), pb.data(), kDegree);
    std::vector<u32> table(kIn * kOut);
    for (size_t j = 0; j < kOut; ++j)
        for (size_t i = 0; i < kIn; ++i)
            table[j * kIn + i] = conv.table(i, j);
    std::vector<u64> acc(kDegree);

    auto run_apply = [&] { conv.apply(pin.data(), plane.data(), kDegree); };
    auto run_lane = [&] { conv.step2(pb.data(), plane.data(), kDegree); };
    auto run_accum = [&] {
        for (size_t j = 0; j < kOut; ++j) {
            const nt::Barrett &bar = to.barrett(j);
            std::fill(acc.begin(), acc.end(), 0);
            size_t window = 0;
            for (size_t i = 0; i < kIn; ++i) {
                nt::accumMulVec(acc.data(), pb[i], table[j * kIn + i],
                                kDegree);
                if (++window == conv.reduceEvery()) {
                    nt::reduceWideInPlaceVec(acc.data(), kDegree, bar);
                    window = 0;
                }
            }
            nt::reduceWideVec(accum[j].data(), acc.data(), kDegree, bar);
        }
    };
    auto best_ns = [](auto &&fn, const void *out) {
        constexpr int kIters = 100;
        for (int i = 0; i < kIters / 4; ++i)
            fn();
        double best = 1e30;
        for (int round = 0; round < 5; ++round) {
            WallTimer w;
            for (int i = 0; i < kIters; ++i) {
                fn();
                benchmark::DoNotOptimize(out);
                benchmark::ClobberMemory();
            }
            best = std::min(best, w.seconds() * 1e9 / kIters);
        }
        return best;
    };

    const nt::SimdIsa prev = nt::activeSimdIsa();
    TablePrinter t("BConv, Set C ModUp shape 5 -> 15, N = 2^14, 28-bit "
                   "moduli: apply, and step 2 as lane vs u64 chain");
    t.header({"ISA", "apply us", "step2 lane us", "step2 accum us",
              "lane vs accum"});
    const std::vector<std::pair<std::string, std::string>> shape = {
        {"l_in", std::to_string(kIn)},
        {"l_out", std::to_string(kOut)},
        {"n", std::to_string(kDegree)}};
    for (auto isa : {nt::SimdIsa::Scalar, nt::SimdIsa::Avx2,
                     nt::SimdIsa::Avx512}) {
        if (!nt::simdIsaAvailable(isa))
            continue;
        nt::setSimdIsa(isa);
        const double apply_ns = best_ns(run_apply, lane.data());
        const double lane_ns = best_ns(run_lane, lane.data());
        const double accum_ns = best_ns(run_accum, accum.data());
        if (lane != accum)
            throw std::runtime_error(
                "bconvSweep: the step-2 lane differs from the u64 chain");
        const char *isa_name = nt::simdIsaName(isa);
        const double items = static_cast<double>(kIn * kOut * kDegree);
        for (const auto &[impl, ns] :
             {std::pair<const char *, double>{"apply", apply_ns},
              {"step2_lane", lane_ns},
              {"step2_accum", accum_ns}}) {
            auto params = shape;
            params.insert(params.begin(), {{"impl", impl}, {"isa", isa_name}});
            rep.add("micro_modred/bconv", params, ns, items * 1e9 / ns);
        }
        rep.add("micro_modred/bconv_step2_vs_accum", {{"isa", isa_name}},
                0.0, accum_ns / lane_ns);
        t.row({isa_name, fmtF(apply_ns / 1e3, 1), fmtF(lane_ns / 1e3, 1),
               fmtF(accum_ns / 1e3, 1), fmtX(accum_ns / lane_ns, 2)});
    }
    nt::setSimdIsa(prev);
    t.print(std::cout);
}

/** The post-run sweeps, in order. */
void
postRun(bench::Reporter &rep)
{
    dispatchSweep(rep);
    dotSweep(rep);
    bconvSweep(rep);
}

} // namespace

CROSS_BENCHMARK_MAIN_EXTRA("micro_modred", postRun);
