/**
 * @file
 * Shared pieces of the hebench binary: run options, the metric list a
 * run prints, order statistics, the correctness gate, the host-context
 * probe and the per-layer kernel probes every traced run reports.
 */
#pragma once

#include <chrono>
#include <complex>
#include <cstdint>
#include <string>
#include <vector>

#include "ckks/ciphertext.h"

namespace hebench {

using Clock = std::chrono::steady_clock;

/** CKKS encoding scale of every input in both phases. */
constexpr double kScale = static_cast<double>(1ULL << 26);

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Bit-for-bit equality, the form every correctness check uses. */
inline bool
sameCiphertext(const cross::ckks::Ciphertext &a,
               const cross::ckks::Ciphertext &b)
{
    return a.scale == b.scale && a.c0 == b.c0 && a.c1 == b.c1;
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload hands back to main(): the metrics of the selected
 *  mode (end-to-end untraced, per-layer traced) plus the operation
 *  counts. A wrong result never gets here: fail() exits first. */
struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/** Correctness gate: print @p why to stderr and exit 1 without
 *  printing any number. */
[[noreturn]] void fail(const std::string &why);

inline void
require(bool ok, const std::string &what)
{
    if (!ok)
        fail(what);
}

/** Linear-interpolated quantile (0 <= q <= 1) of @p v; 0 when empty. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Median wall seconds of @p reps calls of @p fn. */
template <typename Fn>
double
medianSeconds(int reps, Fn &&fn)
{
    std::vector<double> s;
    s.reserve(reps);
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        fn();
        s.push_back(secondsBetween(t0, Clock::now()));
    }
    return median(std::move(s));
}

/**
 * Precision of decoded CKKS slots against float64 reference values,
 * accumulated over the checked outputs. Per output, the mean slot
 * error gives its average precision and the largest slot error its
 * worst-slot precision; each field keeps the minimum over outputs.
 * @p want is real-valued: every slot's imaginary part is expected 0.
 *
 * An output below either floor fails the run. Bit-identity with the
 * evaluator reference cannot catch a defect the served path and the
 * reference share (a wrong rotation direction, a bad rescale); the
 * float64 reference can. The mean floor sits 3 bits under the
 * precision every seed measured (README.md). The worst slot is
 * heavy-tailed, so its floor only asks that no slot be off by the
 * size of the inputs (1).
 */
struct Precision
{
    static constexpr double kMinMeanBits = 7.0;
    static constexpr double kMinWorstBits = 0.0;

    double meanBits = 1e9;  ///< precision_bits: min of -log2(mean error)
    double worstBits = 1e9; ///< min of -log2(largest slot error)

    void add(const std::vector<std::complex<double>> &got,
             const std::vector<double> &want);
};

/**
 * @name Host speed reference.
 * The host's vCPUs are shared with other tenants, and how fast one
 * runs HE code changes by up to 2.4x over minutes (README.md). Every
 * gated timing is therefore taken between two runs of a fixed
 * reference kernel written here, not in the library, and reported at
 * the reference speed: seconds x kRefSeconds / (mean of the two
 * reference runs). A change to the library moves the timing and not
 * the reference, so it shows in full; a change of host speed moves
 * both and cancels.
 * @{
 */
/** The speed every gated figure is reported at, in reference-kernel
 *  seconds: within the 0.83-1.9 ms the development host gave. */
constexpr double kRefSeconds = 1.5e-3;

/** The reference kernel, four 2^14-point radix-2 NTTs with Shoup
 *  multiplication over a 28-bit prime: the median seconds of 3 runs. */
double refKernelSeconds();

/** Repetition times, each with the reference-kernel seconds measured
 *  around it. */
struct Timed
{
    std::vector<double> s;   ///< wall seconds as measured
    std::vector<double> ref; ///< mean of the reference runs around it

    /** Time one call of @p fn between two reference runs; returns what
     *  @p fn returns. */
    template <typename Fn>
    auto
    time(Fn &&fn)
    {
        const double r0 = refKernelSeconds();
        const auto t0 = Clock::now();
        auto out = fn();
        s.push_back(secondsBetween(t0, Clock::now()));
        ref.push_back(0.5 * (r0 + refKernelSeconds()));
        return out;
    }

    size_t size() const { return s.size(); }

    /** Median repetition at the reference speed. */
    double atReference() const;
};
/** @} */

/**
 * Measure effective cores, then pin the process to the fastest CPU
 * (repinToFastestCpu). Prints the run context (SIMD ISA, threads,
 * effective cores, chosen CPU) and returns the effective-cores figure.
 */
double setUpRunContext(const Options &opts, unsigned pool_threads);

/**
 * Pin every thread of the process, and so every thread it creates
 * afterwards, to the CPU of the originally allowed set on which the
 * reference kernel runs fastest. The host's cores are shared with
 * other tenants and the least loaded one changes within a run, so the
 * workloads call this again at every quiescent point. Returns the
 * CPU, or -1 when affinity is unavailable; @p ref_s, when given,
 * receives the median reference seconds on the CPU pinned to.
 */
int repinToFastestCpu(double *ref_s = nullptr);

/** Undo repinToFastestCpu: let every thread run on any CPU of the
 *  originally allowed set again. */
void unpinAll();

/**
 * The kernel probes of every traced run: poly NTT/INTT at N = 2^12
 * and 2^14, a Set C ModUp BConv and the modvec multiply. Each is
 * checked against a reference before it is reported.
 */
void addLayerProbes(RunResult &out, std::uint64_t seed);

/** @name Workloads. @{ */
RunResult runServe(const Options &opts);
RunResult runServeChurn(const Options &opts);
/** @} */

} // namespace hebench
