#include "harness.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <thread>

#include <dirent.h>
#include <sched.h>

#include "nt/simd_dispatch.h"

namespace hebench {

void
fail(const std::string &why)
{
    std::cout.flush();
    std::fprintf(stderr, "hebench: CHECK FAILED: %s\n", why.c_str());
    std::exit(1);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

void
Precision::add(const std::vector<std::complex<double>> &got,
               const std::vector<double> &want)
{
    require(got.size() == want.size(),
            "precision: decoded slot count differs from the reference");
    double worst = 0.0, sum = 0.0;
    for (size_t i = 0; i < got.size(); ++i) {
        const double e = std::abs(got[i] - want[i]);
        worst = std::max(worst, e);
        sum += e;
    }
    require(std::isfinite(worst) && worst > 0.0,
            "precision: slot error is not a positive finite number");
    const double mean_bits =
        -std::log2(sum / static_cast<double>(got.size()));
    const double worst_bits = -std::log2(worst);
    require(mean_bits >= kMinMeanBits && worst_bits >= kMinWorstBits,
            "precision: decrypted slots are " + std::to_string(mean_bits) +
                " bits (mean) / " + std::to_string(worst_bits) +
                " bits (worst slot) from the float64 reference, under the "
                "floor");
    meanBits = std::min(meanBits, mean_bits);
    worstBits = std::min(worstBits, worst_bits);
}

namespace {

/** A data-dependent LCG chain the compiler cannot fold. */
std::uint64_t
spin(std::uint64_t iters)
{
    std::uint64_t x = 1;
    for (std::uint64_t i = 0; i < iters; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        asm volatile("" : "+r"(x));
    }
    return x;
}

double
timeSpin(unsigned threads, std::uint64_t iters)
{
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i)
        pool.emplace_back([iters] { (void)spin(iters); });
    for (auto &t : pool)
        t.join();
    return secondsBetween(t0, Clock::now());
}

/**
 * Fixed-work spin probe: the same busy loop on one thread and then on
 * @p threads threads at once; threads x t1 / tN. About 1 on a host
 * that time-slices one core, @p threads on one that scales.
 */
double
effectiveCores(unsigned threads)
{
    constexpr std::uint64_t kIters = 20'000'000;
    std::vector<double> one, many;
    for (int rep = 0; rep < 3; ++rep) {
        one.push_back(timeSpin(1, kIters));
        many.push_back(timeSpin(threads, kIters));
    }
    return static_cast<double>(threads) * median(one) / median(many);
}

/** Set the affinity of every thread of the process to @p set. */
bool
setAllAffinity(const cpu_set_t &set)
{
    DIR *dir = opendir("/proc/self/task");
    if (!dir)
        return false;
    bool ok = true;
    while (const dirent *e = readdir(dir)) {
        const int tid = std::atoi(e->d_name);
        if (tid > 0)
            ok = sched_setaffinity(tid, sizeof set, &set) == 0 && ok;
    }
    closedir(dir);
    return ok;
}

bool
pinAllTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return setAllAffinity(set);
}

cpu_set_t g_allowed;
bool g_haveAllowed = false;

/** Record the affinity the process started with, once. */
bool
haveAllowed()
{
    if (!g_haveAllowed) {
        CPU_ZERO(&g_allowed);
        g_haveAllowed = sched_getaffinity(0, sizeof g_allowed, &g_allowed) == 0;
    }
    return g_haveAllowed;
}

} // namespace

namespace {

double
refKernelOnce()
{
    constexpr std::uint32_t kQ = 268369921; // 28-bit NTT-friendly prime
    constexpr size_t kN = 1 << 14, kLimbs = 4;
    static const auto tables = [] {
        std::array<std::vector<std::uint32_t>, 2> t; // w, floor(w 2^32 / q)
        for (size_t i = 0; i < kN; ++i) {
            const auto w = static_cast<std::uint32_t>((i * 104729 + 3) % kQ);
            t[0].push_back(w);
            t[1].push_back(static_cast<std::uint32_t>(
                (std::uint64_t{w} << 32) / kQ));
        }
        return t;
    }();
    thread_local std::vector<std::uint32_t> a;
    a.resize(kN * kLimbs);
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<std::uint32_t>(i * 7919 % kQ);

    const auto t0 = Clock::now();
    for (size_t l = 0; l < kLimbs; ++l) {
        std::uint32_t *x = a.data() + l * kN;
        for (size_t len = kN / 2; len >= 1; len /= 2)
            for (size_t s = 0; s < kN; s += 2 * len)
                for (size_t j = 0; j < len; ++j) {
                    const std::uint32_t u = x[s + j], v = x[s + j + len];
                    const std::uint64_t hi =
                        (std::uint64_t{v} * tables[1][len + j]) >> 32;
                    std::uint32_t p = static_cast<std::uint32_t>(
                        std::uint64_t{v} * tables[0][len + j] - hi * kQ);
                    p = p >= kQ ? p - kQ : p;
                    x[s + j] = u + p >= kQ ? u + p - kQ : u + p;
                    x[s + j + len] = u >= p ? u - p : u + kQ - p;
                }
    }
    const double t = secondsBetween(t0, Clock::now());
    asm volatile("" : : "r"(a.data()) : "memory");
    return t;
}

} // namespace

double
refKernelSeconds()
{
    return median({refKernelOnce(), refKernelOnce(), refKernelOnce()});
}

double
Timed::atReference() const
{
    std::vector<double> v(s.size());
    for (size_t i = 0; i < s.size(); ++i)
        v[i] = s[i] * kRefSeconds / ref[i];
    return median(std::move(v));
}

void
unpinAll()
{
    if (haveAllowed())
        (void)setAllAffinity(g_allowed);
}

int
repinToFastestCpu(double *ref_s)
{
    if (!haveAllowed()) {
        if (ref_s)
            *ref_s = refKernelSeconds();
        return -1;
    }
    int best = -1;
    double best_s = 0.0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &g_allowed) || !pinAllTo(cpu))
            continue;
        const double s = refKernelSeconds();
        if (best < 0 || s < best_s) {
            best = cpu;
            best_s = s;
        }
    }
    if (best < 0 || !pinAllTo(best)) {
        if (ref_s)
            *ref_s = refKernelSeconds();
        return -1;
    }
    if (ref_s)
        *ref_s = best_s;
    return best;
}

double
setUpRunContext(const Options &opts, unsigned pool_threads)
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const double cores = effectiveCores(hw);
    const int cpu = repinToFastestCpu();
    std::printf("workload %s  seed %llu  seconds %.0f  trace %d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0);
    std::printf("context: simd %s  pool threads %u  nproc %u  "
                "effective cores %.2f (spin probe)  pinned to cpu %d\n",
                cross::nt::simdIsaName(cross::nt::activeSimdIsa()),
                pool_threads, hw, cores, cpu);
    return cores;
}

} // namespace hebench
