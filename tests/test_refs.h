/**
 * @file
 * Shared reference implementations for the test suites.
 *
 * Ground-truth code that multiple suites compare against lives here --
 * not in the product library -- so the `cross` library ships no
 * test-only code and every suite checks against the *same* reference.
 * Used by poly_test, crossntt_test, bfv_test and the BAT property tests.
 */
#pragma once

#include <vector>

#include "common/types.h"
#include "rns/basis.h"

namespace cross::testref {

/**
 * Reference negacyclic product of two coefficient vectors mod q
 * (schoolbook O(N^2)); ground truth for every NTT-based multiply.
 */
std::vector<u32> negacyclicMulSchoolbook(const std::vector<u32> &a,
                                         const std::vector<u32> &b, u64 q);

/**
 * Reference negacyclic product via Karatsuba (O(N^1.585)); bit-identical
 * to negacyclicMulSchoolbook but fast enough to serve as ground truth at
 * N >= 4096, where schoolbook's 16M+ modmuls per call dominate test time.
 */
std::vector<u32> negacyclicMulKaratsuba(const std::vector<u32> &a,
                                        const std::vector<u32> &b, u64 q);

/**
 * Reference BFV t/Q scale-and-round, one BigUInt per coefficient: for
 * x_j = CRT(in[0][j], in[1][j], ...) over @p basis, centred into
 * (-M/2, M/2), returns out[i][j] = [round(t * x_j / Q)]_{out_moduli[i]}
 * with Q = the product of the first @p q_count moduli. Ground truth for
 * bfv::ScaleRound (multiplication scale-down and decryption).
 */
std::vector<std::vector<u32>>
scaleRoundBigUInt(const rns::RnsBasis &basis, size_t q_count, u64 t,
                  const std::vector<u64> &out_moduli,
                  const std::vector<std::vector<u32>> &in);

/**
 * Exact inner product mod q: per coefficient j, the u128 sum of
 * a[t][j] * b[t][j] over t, then % q. Ground truth for nt::dotModVec
 * and RnsPoly::setInnerProduct.
 */
std::vector<u32> dotModExact(const std::vector<std::vector<u32>> &a,
                             const std::vector<std::vector<u32>> &b, u64 q);

/** Deterministic uniform coefficient vector in [0, q)^n. */
std::vector<u32> randomPoly(u32 n, u64 q, u64 seed);

} // namespace cross::testref
