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
#include "nt/simd_dispatch.h"

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

/** The post-run sweeps, in order. */
void
postRun(bench::Reporter &rep)
{
    dispatchSweep(rep);
    dotSweep(rep);
}

} // namespace

CROSS_BENCHMARK_MAIN_EXTRA("micro_modred", postRun);
