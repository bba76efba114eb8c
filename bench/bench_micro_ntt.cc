/**
 * @file
 * Host-CPU microbenchmarks of the three NTT implementations (radix-2 CT,
 * explicit 4-step, MAT 3-step) and the BConv kernel -- the functional
 * counterparts of Tables VII/X. On a fine-grained CPU the O(N log N)
 * butterfly wins, which is itself a datapoint for the paper's argument:
 * the 3-step trade only pays where a matrix engine exists (Section V-C b
 * reports the CPU behaviour differs from the TPU's).
 */
#include <algorithm>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/timer.h"
#include "gbench_main.h"
#include "nt/primes.h"
#include "nt/simd_dispatch.h"
#include "poly/ntt_3step.h"
#include "poly/ntt_4step.h"
#include "poly/ntt_ct.h"
#include "rns/bconv.h"

namespace {

using namespace cross;

std::vector<u32>
randomPoly(u32 n, u32 q, u64 seed)
{
    Rng rng(seed);
    std::vector<u32> v(n);
    for (auto &x : v)
        x = static_cast<u32>(rng.uniform(q));
    return v;
}

void
BM_NttRadix2(benchmark::State &state)
{
    const u32 n = static_cast<u32>(state.range(0));
    const u32 q =
        static_cast<u32>(nt::generateNttPrimes(28, 1, 2ULL * n)[0]);
    poly::NttTables tab(n, q);
    auto a = randomPoly(n, q, n);
    for (auto _ : state) {
        poly::forwardInPlace(a.data(), tab);
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NttRadix2)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 13);

void
BM_NttFourStepExplicit(benchmark::State &state)
{
    const u32 n = static_cast<u32>(state.range(0));
    const u32 q =
        static_cast<u32>(nt::generateNttPrimes(28, 1, 2ULL * n)[0]);
    poly::NttTables tab(n, q);
    poly::FourStepPlan plan(tab, poly::defaultRowSplit(n));
    const auto a = randomPoly(n, q, n + 1);
    for (auto _ : state) {
        auto out = plan.forward(a);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NttFourStepExplicit)->Arg(1 << 10)->Arg(1 << 12);

void
BM_NttThreeStepMat(benchmark::State &state)
{
    const u32 n = static_cast<u32>(state.range(0));
    const u32 q =
        static_cast<u32>(nt::generateNttPrimes(28, 1, 2ULL * n)[0]);
    poly::NttTables tab(n, q);
    poly::ThreeStepPlan plan(tab, poly::defaultRowSplit(n));
    const auto a = randomPoly(n, q, n + 2);
    for (auto _ : state) {
        auto out = plan.forward(a);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NttThreeStepMat)->Arg(1 << 10)->Arg(1 << 12);

void
BM_BConv(benchmark::State &state)
{
    const u32 l_in = static_cast<u32>(state.range(0));
    const u32 l_out = l_in + 2;
    const u64 step = 1 << 13;
    const auto from_m = nt::generateNttPrimes(28, l_in, step);
    const auto to_m = nt::generateNttPrimesAvoiding(28, l_out, step, from_m);
    rns::RnsBasis from(from_m), to(to_m);
    rns::BasisConversion conv(from, to);
    const u32 n = 1 << 12;
    Rng rng(9);
    rns::LimbMatrix in(l_in), out;
    for (u32 i = 0; i < l_in; ++i) {
        in[i].resize(n);
        for (auto &x : in[i])
            x = static_cast<u32>(rng.uniform(from.modulus(i)));
    }
    for (auto _ : state) {
        conv.apply(in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n * l_in);
}
BENCHMARK(BM_BConv)->Arg(4)->Arg(8)->Arg(12);

/**
 * Post-run dispatch sweep: the radix-2 forward and inverse NTT at
 * N = 2^12 and 2^14, each timed under every available SIMD path
 * (scalar first, then AVX2/AVX-512 where compiled in and
 * CPU-supported), emitting one per-path record plus the trajectory
 * metrics micro_ntt/avx2_vs_scalar_speedup and
 * micro_ntt/avx512_vs_scalar_speedup per (n, direction)
 * (items_per_sec = speedup ratio; bench/fidelity_tolerance.json
 * range-checks both). Unlike the --isa flag, which pins one path for
 * the whole binary, this sweep measures every path in a single run so
 * the ratios come from the same host, the same tables and the same
 * inputs.
 */
void
dispatchSweep(bench::Reporter &rep)
{
    const nt::SimdIsa prev = nt::activeSimdIsa();
    TablePrinter t("SIMD dispatch sweep: radix-2 NTT");
    t.header({"N", "direction", "ISA", "ns/NTT", "vs scalar"});
    for (u32 n : {1u << 12, 1u << 14}) {
        const u32 q =
            static_cast<u32>(nt::generateNttPrimes(28, 1, 2ULL * n)[0]);
        poly::NttTables tab(n, q);
        auto a = randomPoly(n, q, 0x15a);
        for (bool inverse : {false, true}) {
            const char *dir = inverse ? "inverse" : "forward";
            const auto transform = [&] {
                if (inverse)
                    poly::inverseInPlace(a.data(), tab);
                else
                    poly::forwardInPlace(a.data(), tab);
            };
            // 100 transforms' worth of 2^12 coefficients per pass: the
            // four (n, direction) sweeps together cost what one 400-pass
            // sweep did, which bounds the Debug+ASan bench_smoke run.
            const int iters = static_cast<int>((100u << 12) / n);
            std::vector<nt::SimdIsa> isas;
            for (auto isa : {nt::SimdIsa::Scalar, nt::SimdIsa::Avx2,
                             nt::SimdIsa::Avx512}) {
                if (nt::simdIsaAvailable(isa))
                    isas.push_back(isa);
            }
            // Warmup pass per path, then best-of-5 rounds that visit
            // every path back to back: the ratio wants the undisturbed
            // per-path speed, and a burst of host load lands on all
            // paths of a round instead of on one path's rounds.
            std::vector<double> best_ns(isas.size(), 1e30);
            for (int round = -1; round < 5; ++round) {
                for (size_t k = 0; k < isas.size(); ++k) {
                    nt::setSimdIsa(isas[k]);
                    WallTimer w;
                    for (int i = 0; i < iters; ++i) {
                        transform();
                        benchmark::DoNotOptimize(a.data());
                    }
                    if (round >= 0)
                        best_ns[k] = std::min(best_ns[k],
                                              w.seconds() * 1e9 / iters);
                }
            }
            const std::string ns = std::to_string(n);
            for (size_t k = 0; k < isas.size(); ++k) {
                const char *name = nt::simdIsaName(isas[k]);
                rep.add("micro_ntt/ntt_dispatch",
                        {{"isa", name}, {"n", ns}, {"direction", dir}},
                        best_ns[k], 1e9 / best_ns[k]);
                // isas[0] is the scalar path.
                const double speedup = best_ns[0] / best_ns[k];
                if (k > 0) {
                    rep.add(std::string("micro_ntt/") + name +
                                "_vs_scalar_speedup",
                            {{"n", ns}, {"direction", dir}}, 0.0, speedup);
                }
                t.row({ns, dir, name, fmtF(best_ns[k], 1),
                       fmtX(speedup, 2)});
            }
        }
    }
    nt::setSimdIsa(prev);
    t.print(std::cout);
}

} // namespace

CROSS_BENCHMARK_MAIN_EXTRA("micro_ntt", dispatchSweep);
