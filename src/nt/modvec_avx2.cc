/**
 * AVX2 implementations of the modvec.h kernels. Compiled with -mavx2
 * (see src/nt/CMakeLists.txt); only reached through the dispatch table
 * after a runtime CPUID check. Bit-identical to the scalar kernels in
 * modvec.cc: tails run the very same scalar helpers.
 */
#include "nt/modvec_impl.h"
#include "nt/simd_lanes_avx2.h"

namespace cross::nt::detail {

namespace {

using namespace cross::nt::avx2;

void
addModAvx2(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    const __m256i qV = _mm256_set1_epi32(static_cast<int>(q));
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + j));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + j));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + j),
            fold2qU32(_mm256_add_epi32(va, vb), qV));
    }
    for (; j < n; ++j)
        dst[j] = static_cast<u32>(
            a[j] + b[j] >= q ? a[j] + b[j] - q : a[j] + b[j]);
}

void
subModAvx2(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    const __m256i qV = _mm256_set1_epi32(static_cast<int>(q));
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + j));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + j));
        const __m256i d =
            _mm256_sub_epi32(_mm256_add_epi32(va, qV), vb);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + j),
                            fold2qU32(d, qV));
    }
    for (; j < n; ++j)
        dst[j] = a[j] >= b[j] ? a[j] - b[j] : a[j] + q - b[j];
}

void
negModAvx2(u32 *dst, const u32 *a, size_t n, u32 q)
{
    const __m256i qV = _mm256_set1_epi32(static_cast<int>(q));
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + j));
        // q - a is in [1, q] (a == 0 lands exactly on q); the fold
        // maps q -> 0, matching scalar negMod's zero special-case.
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + j),
                            fold2qU32(_mm256_sub_epi32(qV, va), qV));
    }
    for (; j < n; ++j)
        dst[j] = a[j] == 0 ? 0 : q - a[j];
}

void
mulShoupAvx2(u32 *dst, const u32 *a, ShoupConst c, size_t n, u32 q)
{
    const __m256i qV = _mm256_set1_epi32(static_cast<int>(q));
    const __m256i wV = _mm256_set1_epi64x(c.w);
    const __m256i wsLoV =
        _mm256_set1_epi64x(static_cast<i64>(c.wShoup & 0xffffffffULL));
    const __m256i wsHiV =
        _mm256_set1_epi64x(static_cast<i64>(c.wShoup >> 32));
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + j));
        const __m256i lazy = shoupMulLazy8(x, wV, wsLoV, wsHiV, qV);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + j),
                            fold2qU32(lazy, qV));
    }
    for (; j < n; ++j)
        dst[j] = shoupMul(a[j], c, q);
}

void
mulMontAvx2(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q,
            u32 qInv, u32 r2)
{
    const __m256i qV = _mm256_set1_epi64x(q);
    const __m256i qInvV = _mm256_set1_epi64x(qInv);
    const __m256i r2V = _mm256_set1_epi64x(r2);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + j));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + j));
        const __m256i re = montMulPlainHalf(va, vb, qV, qInvV, r2V);
        const __m256i ro =
            montMulPlainHalf(_mm256_srli_epi64(va, 32),
                             _mm256_srli_epi64(vb, 32), qV, qInvV, r2V);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + j),
                            mergeHalves(re, ro));
    }
    for (; j < n; ++j)
        dst[j] = montMulPlainRaw(a[j], b[j], q, qInv, r2);
}

/**
 * Barrett mulMod stays SCALAR on the AVX2 path: the wide reduction
 * needs a full 64x64->hi64, which AVX2 can only emulate with four
 * mul_epu32 partial products per lane -- measured at 0.78x of the
 * scalar 128-bit multiply on this kernel (bench_micro_modred dispatch
 * sweep), so the "vectorised" version was a pessimisation. AVX-512
 * keeps its vector version (vpmullq makes it 1.6x). Dispatch tables
 * are allowed to mix lane widths per op; conformance tests only
 * require bit-identical outputs.
 */
void
mulModAvx2(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q,
           u64 m64)
{
    for (size_t j = 0; j < n; ++j)
        dst[j] = barrettReduceWideRaw(static_cast<u64>(a[j]) * b[j], q,
                                      m64);
}

/**
 * 8 coefficients per step as even/odd u64 halves; the sums stay in
 * registers across all k terms, on the scalar body's window schedule.
 * Unlike mulMod this lane pays the emulated wide Barrett once per
 * window, not once per product.
 */
void
dotModAvx2(u32 *dst, const u32 *const *a, const u32 *const *b,
           size_t k, size_t n, u32 q, u64 m64)
{
    const size_t window = dotModWindow(q);
    const __m256i qV = _mm256_set1_epi64x(q);
    const __m256i mLo =
        _mm256_set1_epi64x(static_cast<i64>(m64 & 0xffffffffULL));
    const __m256i mHi = _mm256_set1_epi64x(static_cast<i64>(m64 >> 32));
    const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        __m256i se = _mm256_setzero_si256();
        __m256i so = _mm256_setzero_si256();
        size_t terms = 0;
        for (size_t t = 0; t < k; ++t) {
            if (terms == window) {
                se = reduceWide64(se, qV, mLo, mHi, lo32);
                so = reduceWide64(so, qV, mLo, mHi, lo32);
                terms = 1;
            }
            const __m256i va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a[t] + j));
            const __m256i vb = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b[t] + j));
            se = _mm256_add_epi64(se, _mm256_mul_epu32(va, vb));
            so = _mm256_add_epi64(
                so, _mm256_mul_epu32(_mm256_srli_epi64(va, 32),
                                     _mm256_srli_epi64(vb, 32)));
            ++terms;
        }
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + j),
            mergeHalves(reduceWide64(se, qV, mLo, mHi, lo32),
                        reduceWide64(so, qV, mLo, mHi, lo32)));
    }
    dotModTail(dst, a, b, k, j, n, q, m64);
}

/** dotConstMontAvx512 at half the width; see modvec_avx512.cc. */
void
dotConstMontAvx2(u32 *dst, const u32 *const *a, const u32 *w, size_t k,
                 size_t n, size_t window, u32 q, u32 qInv, u64 m64)
{
    const __m256i qV = _mm256_set1_epi64x(q);
    const __m256i q32V = _mm256_set1_epi32(static_cast<int>(q));
    const __m256i qInvV = _mm256_set1_epi64x(qInv);
    const __m256i mLo =
        _mm256_set1_epi64x(static_cast<i64>(m64 & 0xffffffffULL));
    const __m256i mHi = _mm256_set1_epi64x(static_cast<i64>(m64 >> 32));
    const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        __m256i se = _mm256_setzero_si256();
        __m256i so = _mm256_setzero_si256();
        size_t terms = 0;
        for (size_t t = 0; t < k; ++t) {
            if (terms == window) {
                se = reduceWide64(se, qV, mLo, mHi, lo32);
                so = reduceWide64(so, qV, mLo, mHi, lo32);
                terms = 1;
            }
            const __m256i va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a[t] + j));
            const __m256i wv = _mm256_set1_epi64x(w[t]);
            se = _mm256_add_epi64(se, _mm256_mul_epu32(va, wv));
            so = _mm256_add_epi64(
                so, _mm256_mul_epu32(_mm256_srli_epi64(va, 32), wv));
            ++terms;
        }
        const __m256i r = mergeHalves(montReduce64(se, qV, qInvV),
                                      montReduce64(so, qV, qInvV));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + j),
                            fold2qU32(r, q32V));
    }
    dotConstMontTail(dst, a, w, k, j, n, window, q, qInv, m64);
}

void
accumMulAvx2(u64 *acc, const u32 *a, u32 w, size_t n)
{
    const __m256i wV = _mm256_set1_epi64x(w);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i a64 = _mm256_cvtepu32_epi64(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + j)));
        const __m256i cur = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + j));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(acc + j),
            _mm256_add_epi64(cur, _mm256_mul_epu32(a64, wV)));
    }
    for (; j < n; ++j)
        acc[j] += static_cast<u64>(a[j]) * w;
}

void
reduceWideAvx2(u32 *dst, const u64 *acc, size_t n, u32 q, u64 m64)
{
    const __m256i qV = _mm256_set1_epi64x(q);
    const __m256i mLo =
        _mm256_set1_epi64x(static_cast<i64>(m64 & 0xffffffffULL));
    const __m256i mHi = _mm256_set1_epi64x(static_cast<i64>(m64 >> 32));
    const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i r = reduceWide64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(acc + j)),
            qV, mLo, mHi, lo32);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + j),
                         packLo32(r));
    }
    for (; j < n; ++j)
        dst[j] = barrettReduceWideRaw(acc[j], q, m64);
}

void
reduceWideInPlaceAvx2(u64 *acc, size_t n, u32 q, u64 m64)
{
    const __m256i qV = _mm256_set1_epi64x(q);
    const __m256i mLo =
        _mm256_set1_epi64x(static_cast<i64>(m64 & 0xffffffffULL));
    const __m256i mHi = _mm256_set1_epi64x(static_cast<i64>(m64 >> 32));
    const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i z = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + j));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + j),
                            reduceWide64(z, qV, mLo, mHi, lo32));
    }
    for (; j < n; ++j)
        acc[j] = barrettReduceWideRaw(acc[j], q, m64);
}

} // namespace

const ModVecKernels &
modVecKernelsAvx2()
{
    static const ModVecKernels k = {
        addModAvx2,    subModAvx2,  negModAvx2,
        mulShoupAvx2,  mulMontAvx2, mulModAvx2,
        dotModAvx2,    dotConstMontAvx2, accumMulAvx2,
        reduceWideAvx2, reduceWideInPlaceAvx2,
    };
    return k;
}

} // namespace cross::nt::detail
