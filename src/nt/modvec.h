/**
 * @file
 * Vector lanes for the element-wise modular kernels.
 *
 * Every limb-wise hot loop in poly/ring.cc and rns/bconv.cc bottoms out
 * in one of these array operations. Each has a scalar
 * implementation (a plain loop over the nt/ scalar primitives -- the
 * ground truth) plus AVX2 / AVX-512 variants selected at runtime
 * through nt/simd_dispatch.h. All variants are bit-identical: the
 * vector kernels replicate the scalar arithmetic exactly (same
 * reductions, same lazy windows, same final folds), they just do it
 * 4-16 elements at a time.
 *
 * Aliasing: all operations are element-wise, so dst may alias a or b
 * element-for-element (the in-place forms in RnsPoly rely on this).
 */
#pragma once

#include <cstddef>

#include "common/types.h"
#include "nt/barrett.h"
#include "nt/montgomery.h"
#include "nt/shoup.h"

namespace cross::nt {

/** dst[j] = (a[j] + b[j]) mod q; requires a[j], b[j] < q. */
void addModVec(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q);

/** dst[j] = (a[j] - b[j]) mod q; requires a[j], b[j] < q. */
void subModVec(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q);

/** dst[j] = (-a[j]) mod q; requires a[j] < q. */
void negModVec(u32 *dst, const u32 *a, size_t n, u32 q);

/** dst[j] = shoupMul(a[j], c, q), strict [0, q); a[j] < 2q allowed. */
void mulShoupVec(u32 *dst, const u32 *a, const ShoupConst &c, size_t n,
                 u32 q);

/** dst[j] = mont.mulPlain(a[j], b[j]); requires a[j], b[j] < q. */
void mulMontVec(u32 *dst, const u32 *a, const u32 *b, size_t n,
                const Montgomery &mont);

/**
 * dst[j] = (a[j] * b[j]) mod q via Barrett, canonical [0, q);
 * requires a[j], b[j] < q. Same value as nt::mulMod -- the elementwise
 * twiddle lane of the 3-step/4-step matrix NTTs.
 */
void mulModVec(u32 *dst, const u32 *a, const u32 *b, size_t n,
               const Barrett &bar);

/**
 * acc[j] += a[j] * w (plain u64 accumulate, no reduction). The caller
 * owns the overflow budget -- ScaleRound and ModMatMul reduce every
 * so many additions precisely so this product sum stays < 2^63.
 */
void accumMulVec(u64 *acc, const u32 *a, u32 w, size_t n);

/**
 * How many products (q-1)^2 a u64 sum can hold and still meet
 * reduceWide's z < 2^63: floor((2^63 - 1) / (q-1)^2). For q < 2^31
 * that is >= 2 (128 at 28 bits). A sum that was reduced mid-way holds
 * a value < q, which counts as one of those terms.
 */
inline size_t
dotModWindow(u32 q)
{
    const u64 m = static_cast<u64>(q - 1) * (q - 1);
    return m == 0 ? ~size_t{0}
                  : static_cast<size_t>(((u64{1} << 63) - 1) / m);
}

/**
 * dst[j] = (sum_t a[t][j] * b[t][j]) mod q over t < k, canonical
 * [0, q); requires k >= 1 and a[t][j], b[t][j] < q. The u64 sums stay
 * in registers and are reduced once with bar.reduceWide, plus once per
 * dotModWindow(q) terms when k exceeds the window. The result is the
 * same canonical residue as k mulMont products folded by addMod, so it
 * is bit-identical to that chain. dst may alias any a[t] or b[t]
 * element-for-element.
 */
void dotModVec(u32 *dst, const u32 *const *a, const u32 *const *b,
               size_t k, size_t n, const Barrett &bar);

/**
 * How many products a * w, with a < qa and w < p for any odd p < 2^31,
 * a u64 sum can hold and still meet Montgomery reduction's z < p * 2^32:
 * floor((2^32 - 1) / (qa - 1)), since then the sum is at most
 * (2^32 - 1)(p - 1). That is 16 at 28 bits and 2 at 31. A sum reduced
 * mid-way holds a value < p, which counts as one of those terms.
 */
inline size_t
dotConstMontWindow(u32 qa)
{
    return qa <= 1 ? ~size_t{0}
                   : static_cast<size_t>(0xffffffffULL / (qa - 1));
}

/**
 * dst[j] = (sum_t a[t][j] * wMont[t]) * 2^-32 mod q over t < k,
 * canonical [0, q): the multiply-accumulate by per-term constants of
 * BConv step 2. With each weight stored in Montgomery form
 * (w * 2^32 mod q) the result is the plain residue sum_t a[t][j] * w[t]
 * mod q. Requires k >= 1, wMont[t] < q, a[t][j] < qa and
 * window == dotConstMontWindow(qa) (or smaller, >= 1). The u64 sums stay
 * in registers; past each window they are reduced with bar.reduceWide,
 * and at the end one Montgomery reduction and one fold yield the
 * canonical residue, so every schedule gives the same bits. dst may
 * alias any a[t] element-for-element.
 */
void dotConstMontVec(u32 *dst, const u32 *const *a, const u32 *wMont,
                     size_t k, size_t n, const Montgomery &mont,
                     const Barrett &bar, size_t window);

/** dst[j] = bar.reduceWide(acc[j]); requires acc[j] < 2^63. */
void reduceWideVec(u32 *dst, const u64 *acc, size_t n,
                   const Barrett &bar);

/**
 * acc[j] = bar.reduceWide(acc[j]) in place -- the mid-window reduction
 * of a lazy accumulation chain (BConv step 2, ModMatMul).
 */
void reduceWideInPlaceVec(u64 *acc, size_t n, const Barrett &bar);

} // namespace cross::nt
