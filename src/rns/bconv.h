/**
 * @file
 * Basis Conversion (BConv), paper Section F2 / Fig. 15b.
 *
 * Converts RNS residues from basis B1 = {q_i} to basis B2 = {p_j}:
 *
 *   Conv(a)_j = ( sum_i [a_i * qHatInv_i]_{q_i} * [Q/q_i]_{p_j} ) mod p_j
 *
 * split into the two steps the paper schedules separately:
 *   Step 1: L x N-VecModMul   (b_i = a_i * qHatInv_i mod q_i)
 *   Step 2: (N, L, L')-MatModMul  (the latency-dominant part that BAT
 *           turns into an INT8 MXU matmul, Table VI)
 *
 * Natively, step 2 is one register-resident multiply-accumulate per
 * target limb (nt::dotConstMontVec): the [Q/q_i]_{p_j} table is kept in
 * Montgomery form, so the L products accumulate in u64 registers and
 * one Montgomery reduction yields the plain residue -- the "many
 * products, one reduction" shape of the paper's MatModMul. The pointer
 * form of apply() reads the source limbs in place and writes each
 * target limb straight into the caller's storage; the LimbMatrix
 * overloads are thin wrappers over it.
 *
 * This is the standard *approximate* conversion: the result represents
 * x + alpha*Q (mod p_j) for some 0 <= alpha < L, which HE schemes absorb
 * into noise. Tests verify exactness of the computed sum against BigUInt.
 */
#pragma once

#include <vector>

#include "nt/shoup.h"
#include "rns/basis.h"

namespace cross::rns {

/** Limb-major data layout: data[i][n] = coefficient n modulo modulus i. */
using LimbMatrix = std::vector<std::vector<u32>>;

/** Precomputed conversion between two RNS bases. */
class BasisConversion
{
  public:
    BasisConversion(const RnsBasis &from, const RnsBasis &to);

    const RnsBasis &from() const { return from_; }
    const RnsBasis &to() const { return to_; }

    /**
     * Both steps, pointer form: in[i] holds @p n residues mod
     * from().modulus(i), out[j] receives @p n residues mod
     * to().modulus(j). The out limbs must not overlap the in limbs.
     */
    void apply(const u32 *const *in, u32 *const *out, size_t n) const;

    /** Step 1, pointer form: out[i] = in[i] * qHatInv_i mod q_i
     *  (out[i] may alias in[i]). */
    void step1(const u32 *const *in, u32 *const *out, size_t n) const;

    /** Step 2, pointer form: out[j] = sum_i b[i] * [Q/q_i]_{p_j} mod p_j;
     *  requires b[i][*] < q_i. */
    void step2(const u32 *const *b, u32 *const *out, size_t n) const;

    /** Step 1 on a LimbMatrix; out gets shape [from.size()][N]. */
    void step1(const LimbMatrix &in, LimbMatrix &out) const;

    /** Step 2 on a LimbMatrix; out gets shape [to.size()][N]. */
    void step2(const LimbMatrix &b, LimbMatrix &out) const;

    /** Both steps on a LimbMatrix; out gets shape [to.size()][N]. */
    void apply(const LimbMatrix &in, LimbMatrix &out) const;

    /** Step-2 parameter matrix entry [Q/q_i]_{p_j}; fed to BAT offline. */
    u32 table(size_t i, size_t j) const;

    /**
     * How many step-2 products a plain u64 accumulator holds before a
     * reduction is needed (the "lazy window" of a wide accumulate-then-
     * reduce mapping); exposed for the simulator. The native step 2 runs
     * on the narrower Montgomery window, nt::dotConstMontWindow.
     */
    size_t reduceEvery() const { return reduceEvery_; }

  private:
    RnsBasis from_;
    RnsBasis to_;
    // tableMont_[j * from.size() + i] = [Q/q_i]_{p_j} * 2^32 mod p_j:
    // one contiguous weight row per target limb.
    std::vector<u32> tableMont_;
    // Shoup precomputation of qHatInv per source limb for step 1.
    std::vector<nt::ShoupConst> qHatInvShoup_;
    size_t reduceEvery_;
    // nt::dotConstMontWindow of the largest source modulus.
    size_t montWindow_;
};

} // namespace cross::rns
