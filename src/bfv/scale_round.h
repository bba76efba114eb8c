/**
 * @file
 * Exact RNS scale-and-round by t/Q: BFV's multiplication scale-down and
 * its decryption, defined once.
 *
 * Input: the residues of an integer x over an RNS basis M = Q u B whose
 * first |Q| limbs are Q (B may be empty). Output, for every output
 * modulus o_j:
 *
 *     [ round(t * x_c / Q) ]_{o_j},   x_c = x centred into (-M/2, M/2).
 *
 * BFV multiplication uses B = the extension basis and outputs over Q;
 * decryption uses B = {} and the single output modulus t (there the
 * centring shifts the result by a multiple of t, which vanishes mod t).
 *
 * Method (Halevi-Polyakov-Shoup, CT-RSA 2019, in an all-integer form):
 *
 *   y_k = [x_k * mu_k]_{m_k},  mu_k = [(M/m_k)^-1]_{m_k},
 *   S   = sum_k y_k / m_k,     v = round(S),
 *
 * so x_c = sum_k y_k * M/m_k - v*M. Multiplying by t/Q, every B term
 * y_k * t*B/b_k and v*t*B is an integer; each Q term splits exactly as
 *
 *   y_k * tB/q_k = y_k * floor(tB/q_k) + floor(y_k R_k / q_k) + r_k/q_k,
 *   R_k = [tB]_{q_k},  r_k = [y_k R_k]_{q_k},
 *
 * and round(t x_c / Q) = (the integer terms) + round(F), F = sum r_k/q_k.
 * The integer terms are reduced once per output limb in a u64
 * accumulator with a lazy-reduction window; no big integer is formed.
 *
 * Exactness. v and round(F) are read off the doubles S and F, whose
 * absolute error is below (K^2 + 4K) * 2^-53 <= 2^-32 for K <= 1024
 * terms. Neither can be a half-integer exactly: S = n + 1/2 needs
 * 2x = M, F = n + 1/2 needs 2t x_c = (2n+1) Q, and M and Q are odd. A
 * coefficient whose computed S or F lies within 2^-30 of a half-integer
 * -- so the error could flip the rounding -- is recomputed with BigUInt
 * instead. Every other coefficient rounds as the exact value does, so
 * the output equals the big-integer result for every input.
 */
#pragma once

#include <vector>

#include "common/types.h"
#include "nt/barrett.h"
#include "nt/bigint.h"
#include "nt/shoup.h"
#include "rns/basis.h"

namespace cross::bfv {

/** Precomputed t/Q scale-and-round from basis Q u B to output moduli. */
class ScaleRound
{
  public:
    /**
     * @param in       the input basis M = Q u B
     * @param q_count  |Q|: the first q_count limbs of @p in
     * @param t        the scale numerator (the plaintext modulus), < 2^31
     * @param out      the output moduli, each < 2^31
     */
    ScaleRound(const rns::RnsBasis &in, size_t q_count, u64 t,
               std::vector<u64> out);

    size_t outCount() const { return out_.size(); }

    /**
     * Scale @p n coefficients: in[k][j] is coefficient j modulo input
     * limb k, out[i][j] receives it modulo output modulus i.
     * @return how many coefficients took the BigUInt near-tie fallback
     */
    size_t apply(const std::vector<const u32 *> &in,
                 const std::vector<u32 *> &out, size_t n) const;

  private:
    /** BigUInt evaluation of coefficient j (the near-tie fallback). */
    void applyExact(const std::vector<const u32 *> &in,
                    const std::vector<u32 *> &out, size_t j) const;

    rns::RnsBasis in_;
    size_t qCount_;
    u64 t_;
    nt::BigUInt bigQ_;
    std::vector<u64> out_;
    std::vector<nt::Barrett> outBarrett_;
    std::vector<nt::ShoupConst> mu_;   ///< [(M/m_k)^-1]_{m_k}
    std::vector<double> invM_;         ///< 1/m_k
    std::vector<nt::ShoupConst> rQ_;   ///< R_k = [tB]_{q_k}, k < |Q|
    /** w_[i][k]: [floor(tB/q_k)]_{o_i} if k < |Q|, else [tB/b_k]_{o_i}. */
    std::vector<std::vector<u32>> w_;
    std::vector<u32> negTb_;           ///< [-tB]_{o_i}
    size_t reduceEvery_;
};

} // namespace cross::bfv
