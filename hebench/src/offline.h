/**
 * @file
 * The offline phase of every workload: one caller in a closed loop at
 * paper Set C (N = 2^14, L = 15, dnum = 3). There is no queue and no
 * scheduler, so all of its time goes to kernels at paper parameters,
 * and a serving change must not move its numbers.
 */
#pragma once

#include <cstdint>
#include <memory>

#include "harness.h"

namespace hebench {

class OfflinePhase
{
  public:
    /**
     * Set-up, all of it inside the caller's setup_s timing: the Set C
     * context, keygen, input encryption, the bootstrap pipeline build,
     * the BFV context and keys, the CROSS plan compile, and warm-up of
     * every key-switch precomp the timed rounds read.
     */
    explicit OfflinePhase(std::uint64_t seed);
    ~OfflinePhase();

    OfflinePhase(const OfflinePhase &) = delete;
    OfflinePhase &operator=(const OfflinePhase &) = delete;

    /** Compute every reference (before the timed region) and add the
     *  precision of the CKKS ones to @p prec. */
    void prepare(Precision &prec);

    /**
     * Timed rounds until @p seconds are spent. A round runs one
     * 16-item fused batch, one Hoisted bootstrap and one BFV Mult &
     * Relin, each after one repetition of Mult & Relin, Rotate and
     * 3 x CROSS NTT. Every repetition is checked against its
     * reference. With @p trace every other Mult & Relin and Rotate,
     * the bootstrap and the BFV multiply carry a KernelLog, and the
     * key-switch phases and the thread pool are timed after the
     * rounds.
     */
    void run(double seconds, bool trace);

    std::uint64_t attempted() const;
    /** mult_relin_per_s ... cross_ntt_per_s. */
    void addEndToEnd(RunResult &out) const;
    /** Kernel attribution, key-switch phases, hoisting, the CROSS NTT,
     *  the BFV scale-down share, the tracing overhead and the thread
     *  pool. */
    void addPerLayer(RunResult &out) const;

  private:
    struct State;
    std::unique_ptr<State> s_;
};

} // namespace hebench
