/**
 * @file
 * Internal kernel table shared by the per-ISA modvec translation units.
 * Not installed / not part of the public surface -- include modvec.h.
 *
 * The table entries take raw precomputed parameters (q, qInv, r2, m64)
 * instead of the Montgomery/Barrett objects so the vector TUs depend
 * only on arithmetic, and so the scalar reference below can be shared
 * verbatim as the tail loop of every vector kernel (identical formula
 * => identical bits).
 */
#pragma once

#include <cstddef>

#include "common/types.h"
#include "nt/modvec.h"
#include "nt/shoup.h"

namespace cross::nt::detail {

/**
 * Montgomery reduction, wide form, raw parameters: returns
 * z * 2^-32 mod q in the lazy range [0, 2q). Formula is byte-for-byte
 * Montgomery::reduce().
 */
inline u32
montReduceRaw(u64 z, u32 q, u32 qInv)
{
    u32 t = static_cast<u32>(z) * qInv;
    u32 t_final = static_cast<u32>((static_cast<u64>(t) * q) >> 32);
    return static_cast<u32>(z >> 32) + q - t_final;
}

/** mont.mulPlain(a, b) on raw parameters (r2 = 2^64 mod q). */
inline u32
montMulPlainRaw(u32 a, u32 b, u32 q, u32 qInv, u32 r2)
{
    u32 am = montReduceRaw(static_cast<u64>(a) * r2, q, qInv);
    am = am >= q ? am - q : am;
    u32 r = montReduceRaw(static_cast<u64>(am) * b, q, qInv);
    return r >= q ? r - q : r;
}

/** bar.reduceWide(z) on raw parameters (m64 = floor(2^64 / q)). */
inline u32
barrettReduceWideRaw(u64 z, u32 q, u64 m64)
{
    u64 t = static_cast<u64>((static_cast<u128>(z) * m64) >> 64);
    u64 r = z - t * q;
    if (r >= q)
        r -= q;
    if (r >= q)
        r -= q;
    return static_cast<u32>(r);
}

/**
 * The scalar dot-product body, shared as the tail loop of every vector
 * kernel: one u64 sum per coefficient, reduced when the window is full
 * and once at the end.
 */
inline void
dotModTail(u32 *dst, const u32 *const *a, const u32 *const *b, size_t k,
           size_t lo, size_t n, u32 q, u64 m64)
{
    const size_t window = dotModWindow(q);
    for (size_t j = lo; j < n; ++j) {
        u64 acc = 0;
        size_t terms = 0;
        for (size_t t = 0; t < k; ++t) {
            if (terms == window) {
                acc = barrettReduceWideRaw(acc, q, m64);
                terms = 1;
            }
            acc += static_cast<u64>(a[t][j]) * b[t][j];
            ++terms;
        }
        dst[j] = barrettReduceWideRaw(acc, q, m64);
    }
}

/**
 * The scalar dotConstMont body, shared as the tail loop of every vector
 * kernel: u64 sums over blocks of 64 coefficients, Barrett-reduced when
 * the window is full, then one Montgomery reduction and one fold. The
 * term loop runs outside, so each source strip is one contiguous
 * multiply-accumulate the compiler can vectorize.
 */
inline void
dotConstMontTail(u32 *dst, const u32 *const *a, const u32 *w, size_t k,
                 size_t lo, size_t n, size_t window, u32 q, u32 qInv,
                 u64 m64)
{
    constexpr size_t kBlock = 64;
    u64 acc[kBlock];
    for (size_t b = lo; b < n; b += kBlock) {
        const size_t len = n - b < kBlock ? n - b : kBlock;
        for (size_t j = 0; j < len; ++j)
            acc[j] = 0;
        size_t terms = 0;
        for (size_t t = 0; t < k; ++t) {
            if (terms == window) {
                for (size_t j = 0; j < len; ++j)
                    acc[j] = barrettReduceWideRaw(acc[j], q, m64);
                terms = 1;
            }
            const u32 *src = a[t] + b;
            const u64 wt = w[t];
            for (size_t j = 0; j < len; ++j)
                acc[j] += src[j] * wt;
            ++terms;
        }
        for (size_t j = 0; j < len; ++j) {
            const u32 r = montReduceRaw(acc[j], q, qInv);
            dst[b + j] = r >= q ? r - q : r;
        }
    }
}

/** One dispatch path's implementations of the modvec.h operations. */
struct ModVecKernels
{
    void (*addMod)(u32 *, const u32 *, const u32 *, size_t, u32);
    void (*subMod)(u32 *, const u32 *, const u32 *, size_t, u32);
    void (*negMod)(u32 *, const u32 *, size_t, u32);
    void (*mulShoup)(u32 *, const u32 *, ShoupConst, size_t, u32);
    void (*mulMont)(u32 *, const u32 *, const u32 *, size_t, u32 q,
                    u32 qInv, u32 r2);
    void (*mulMod)(u32 *, const u32 *, const u32 *, size_t, u32 q,
                   u64 m64);
    void (*dotMod)(u32 *, const u32 *const *, const u32 *const *,
                   size_t k, size_t n, u32 q, u64 m64);
    void (*dotConstMont)(u32 *, const u32 *const *, const u32 *, size_t k,
                         size_t n, size_t window, u32 q, u32 qInv,
                         u64 m64);
    void (*accumMul)(u64 *, const u32 *, u32, size_t);
    void (*reduceWide)(u32 *, const u64 *, size_t, u32 q, u64 m64);
    void (*reduceWideInPlace)(u64 *, size_t, u32 q, u64 m64);
};

const ModVecKernels &modVecKernelsScalar();
#ifdef CROSS_HAVE_AVX2
const ModVecKernels &modVecKernelsAvx2();
#endif
#ifdef CROSS_HAVE_AVX512
const ModVecKernels &modVecKernelsAvx512();
#endif

} // namespace cross::nt::detail
