/**
 * @file
 * Per-(N, q) negacyclic NTT twiddle tables.
 *
 * psi is a primitive 2N-th root of unity mod q; the negacyclic NTT
 * evaluates a polynomial at the odd powers psi^(2k+1), which is what makes
 * products reduce modulo x^N + 1 instead of x^N - 1. Tables are stored in
 * bit-reversed order with Shoup precomputation, the layout expected by the
 * Cooley-Tukey / Gentleman-Sande in-place kernels in ntt_ct.h.
 */
#pragma once

#include <vector>

#include "common/types.h"
#include "nt/shoup.h"

namespace cross::poly {

/**
 * One twiddle row of Shoup constants as three contiguous u32 arrays
 * (w, low and high halves of wShoup). The SIMD small-stride NTT stages
 * load a register of consecutive entries from each array directly.
 */
struct ShoupTwiddles
{
    std::vector<u32> w;
    std::vector<u32> wShoupLo;
    std::vector<u32> wShoupHi;

    u32 size() const { return static_cast<u32>(w.size()); }

    nt::ShoupConst operator[](u32 i) const
    {
        return {w[i], static_cast<u64>(wShoupHi[i]) << 32 | wShoupLo[i]};
    }
};

/** Twiddle-factor tables for a fixed ring degree N and prime modulus q. */
class NttTables
{
  public:
    /**
     * @param n ring degree (power of two)
     * @param q NTT prime with q == 1 (mod 2n)
     */
    NttTables(u32 n, u32 q);

    u32 degree() const { return n_; }
    u32 modulus() const { return q_; }

    /** The primitive 2N-th root psi used by these tables. */
    u32 psi() const { return psi_; }

    /** psi^bitrev(i), Shoup form; i in [0, N). */
    nt::ShoupConst psiBr(u32 i) const { return psiBr_[i]; }

    /** psi^-bitrev(i), Shoup form. */
    nt::ShoupConst psiInvBr(u32 i) const { return psiInvBr_[i]; }

    /** The whole psi^bitrev row (forward transform twiddles). */
    const ShoupTwiddles &psiBrRow() const { return psiBr_; }

    /** The whole psi^-bitrev row (inverse transform twiddles). */
    const ShoupTwiddles &psiInvBrRow() const { return psiInvBr_; }

    /** N^-1 mod q, Shoup form (final INTT scaling). */
    const nt::ShoupConst &nInv() const { return nInv_; }

    /** Natural-order power psi^e (e in [0, 2N)); used to build matrices. */
    u32 psiPow(u64 e) const;

  private:
    u32 n_;
    u32 q_;
    u32 psi_;
    u32 psiInv_;
    ShoupTwiddles psiBr_;
    ShoupTwiddles psiInvBr_;
    nt::ShoupConst nInv_;
};

} // namespace cross::poly
