/**
 * @file
 * Dispatch table for the radix-2 butterfly kernels (internal to poly/).
 *
 * The lazy-reduction NTT (ntt_ct.cc) keeps coefficients in a redundant
 * representation across stages -- [0, 4q) through the Cooley-Tukey
 * forward passes, [0, 2q) through the Gentleman-Sande inverse passes --
 * and only folds back to the canonical [0, q) at transform outputs.
 * That removes the per-butterfly conditional corrections the strict
 * kernels pay, and it is exactly the shape the SIMD variants want: one
 * unsigned-min fold per vector instead of compare/branch per element.
 * Requires q < 2^30 so 4q fits u32; ntt_ct.cc falls back to the strict
 * scalar kernels for wider moduli.
 *
 * The butterfly entries process one block range: x[j] pairs with y[j]
 * (y = x + t in the transform), a constant twiddle per call. Stages
 * whose stride t is below `span` (twice the vector width) have blocks
 * narrower than a vector, so they go to the small-stride entries
 * instead: each loads `span` coefficients into two registers, runs its
 * stages there (re-pairing lanes between stages) and stores once.
 * The scalar one-element helpers below ARE the semantics; the vector
 * kernels must match them bit-for-bit, at the transform outputs and at
 * every stage boundary (enforced by tests/simd_test.cc).
 */
#pragma once

#include <cstddef>

#include "common/types.h"
#include "nt/shoup.h"
#include "poly/ntt_tables.h"

namespace cross::poly::detail {

/**
 * Lazy CT butterfly: x in [0, 4q) folded to [0, 2q), v = y * w lazily
 * in [0, 2q); writes x' = x + v and y' = x - v + 2q, both in [0, 4q).
 */
inline void
fwdButterflyLazyOne(u32 *x, u32 *y, const nt::ShoupConst &c, u32 q,
                    u32 two_q)
{
    u32 u = *x;
    if (u >= two_q)
        u -= two_q;
    const u32 v = nt::shoupMulLazy(*y, c, q);
    *x = u + v;
    *y = u - v + two_q;
}

/**
 * Lazy GS butterfly with the [0, 2q) invariant: x' = x + y folded to
 * [0, 2q); y' = (x - y + 2q) * w lazily in [0, 2q) (the Shoup multiply
 * accepts the full u32 range, so x - y + 2q < 4q needs no pre-fold).
 */
inline void
invButterflyLazyOne(u32 *x, u32 *y, const nt::ShoupConst &c, u32 q,
                    u32 two_q)
{
    const u32 u = *x;
    const u32 v = *y;
    u32 s = u + v;
    if (s >= two_q)
        s -= two_q;
    *x = s;
    *y = nt::shoupMulLazy(u - v + two_q, c, q);
}

/** Canonical fold of one redundant value from [0, 4q) to [0, q). */
inline u32
fold4qOne(u32 v, u32 q, u32 two_q)
{
    if (v >= two_q)
        v -= two_q;
    if (v >= q)
        v -= q;
    return v;
}

/**
 * Twiddle of the butterfly block holding coefficient j at stride t in
 * a degree-n transform: index n/(2t) + j/(2t) of the bit-reversed row
 * (the `m + i` of the textbook loops).
 */
constexpr u32
twiddleIndex(u32 n, u32 j, u32 t)
{
    return (n + j) / (2 * t);
}

/** One dispatch path's butterfly-block kernels. */
struct NttKernels
{
    void (*fwdButterflyLazy)(u32 *x, u32 *y, size_t len, nt::ShoupConst c,
                             u32 q);
    void (*invButterflyLazy)(u32 *x, u32 *y, size_t len, nt::ShoupConst c,
                             u32 q);
    void (*fold4q)(u32 *a, size_t len, u32 q);

    /** Coefficients one small-stride call holds in registers: twice
     *  the vector width in u32 lanes (2 for the one-lane scalar path). */
    u32 span;
    /**
     * The first `stages` (1..log2(span)) of the forward CT stages with
     * stride below span -- strides span/2, span/4, ... -- over a[lo, hi),
     * lazy [0, 4q) in and out. lo and hi are multiples of span and
     * `tw` is the transform's psi^bitrev row.
     */
    void (*fwdSmallStrides)(u32 *a, u32 lo, u32 hi, const ShoupTwiddles &tw,
                            u32 q, u32 stages);
    /** The first `stages` inverse GS stages -- strides 1, 2, 4, ... --
     *  over a[lo, hi), lazy [0, 2q) in and out; `tw` is psi^-bitrev. */
    void (*invSmallStrides)(u32 *a, u32 lo, u32 hi, const ShoupTwiddles &tw,
                            u32 q, u32 stages);
};

const NttKernels &nttKernelsScalar();
#ifdef CROSS_HAVE_AVX2
const NttKernels &nttKernelsAvx2();
#endif
#ifdef CROSS_HAVE_AVX512
const NttKernels &nttKernelsAvx512();
#endif

/** The table for the currently dispatched ISA (nt/simd_dispatch.h). */
const NttKernels &activeNttKernels();

/**
 * The first `stages` lazy forward stages of forwardInPlace under the
 * active dispatch, without the canonical fold: the values at that
 * stage boundary. Requires q < 2^30.
 */
void forwardLazyStages(u32 *a, const NttTables &tab, u32 stages);

/** The first `stages` lazy inverse stages of inverseInPlace, without
 *  the N^-1 scaling. Requires q < 2^30. */
void inverseLazyStages(u32 *a, const NttTables &tab, u32 stages);

} // namespace cross::poly::detail
