/**
 * AVX-512 implementations of the modvec.h kernels. Compiled with
 * -mavx512f -mavx512dq -mavx512vl; reached only through the dispatch
 * table after a runtime CPUID check. Bit-identical to the scalar
 * kernels in modvec.cc.
 */
#include "nt/modvec_impl.h"
#include "nt/simd_lanes_avx512.h"

namespace cross::nt::detail {

namespace {

using namespace cross::nt::avx512;

void
addModAvx512(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    const __m512i qV = _mm512_set1_epi32(static_cast<int>(q));
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512i va = _mm512_loadu_si512(a + j);
        const __m512i vb = _mm512_loadu_si512(b + j);
        _mm512_storeu_si512(dst + j,
                            fold2qU32(_mm512_add_epi32(va, vb), qV));
    }
    for (; j < n; ++j)
        dst[j] = static_cast<u32>(
            a[j] + b[j] >= q ? a[j] + b[j] - q : a[j] + b[j]);
}

void
subModAvx512(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    const __m512i qV = _mm512_set1_epi32(static_cast<int>(q));
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512i va = _mm512_loadu_si512(a + j);
        const __m512i vb = _mm512_loadu_si512(b + j);
        const __m512i d =
            _mm512_sub_epi32(_mm512_add_epi32(va, qV), vb);
        _mm512_storeu_si512(dst + j, fold2qU32(d, qV));
    }
    for (; j < n; ++j)
        dst[j] = a[j] >= b[j] ? a[j] - b[j] : a[j] + q - b[j];
}

void
negModAvx512(u32 *dst, const u32 *a, size_t n, u32 q)
{
    const __m512i qV = _mm512_set1_epi32(static_cast<int>(q));
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512i va = _mm512_loadu_si512(a + j);
        _mm512_storeu_si512(dst + j,
                            fold2qU32(_mm512_sub_epi32(qV, va), qV));
    }
    for (; j < n; ++j)
        dst[j] = a[j] == 0 ? 0 : q - a[j];
}

void
mulShoupAvx512(u32 *dst, const u32 *a, ShoupConst c, size_t n, u32 q)
{
    const __m512i qV = _mm512_set1_epi32(static_cast<int>(q));
    const __m512i q64V = _mm512_set1_epi64(q);
    const __m512i wV = _mm512_set1_epi64(c.w);
    const __m512i wsLoV =
        _mm512_set1_epi64(static_cast<i64>(c.wShoup & 0xffffffffULL));
    const __m512i wsHiV =
        _mm512_set1_epi64(static_cast<i64>(c.wShoup >> 32));
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512i x = _mm512_loadu_si512(a + j);
        const __m512i lazy =
            shoupMulLazy16(x, wV, wsLoV, wsHiV, q64V);
        _mm512_storeu_si512(dst + j, fold2qU32(lazy, qV));
    }
    for (; j < n; ++j)
        dst[j] = shoupMul(a[j], c, q);
}

void
mulMontAvx512(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q,
              u32 qInv, u32 r2)
{
    const __m512i qV = _mm512_set1_epi64(q);
    const __m512i qInvV = _mm512_set1_epi64(qInv);
    const __m512i r2V = _mm512_set1_epi64(r2);
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512i va = _mm512_loadu_si512(a + j);
        const __m512i vb = _mm512_loadu_si512(b + j);
        const __m512i re = montMulPlainHalf(va, vb, qV, qInvV, r2V);
        const __m512i ro =
            montMulPlainHalf(_mm512_srli_epi64(va, 32),
                             _mm512_srli_epi64(vb, 32), qV, qInvV,
                             r2V);
        _mm512_storeu_si512(dst + j, mergeHalves(re, ro));
    }
    for (; j < n; ++j)
        dst[j] = montMulPlainRaw(a[j], b[j], q, qInv, r2);
}

/** One even/odd half of mulMod: z = a*b, then the wide Barrett. */
inline __m512i
mulModHalf(__m512i ah, __m512i bh, __m512i qV, __m512i mLo, __m512i mHi,
           __m512i lo32)
{
    return reduceWide64(_mm512_mul_epu32(ah, bh), qV, mLo, mHi, lo32);
}

void
mulModAvx512(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q,
             u64 m64)
{
    const __m512i qV = _mm512_set1_epi64(q);
    const __m512i mLo =
        _mm512_set1_epi64(static_cast<i64>(m64 & 0xffffffffULL));
    const __m512i mHi = _mm512_set1_epi64(static_cast<i64>(m64 >> 32));
    const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512i va = _mm512_loadu_si512(a + j);
        const __m512i vb = _mm512_loadu_si512(b + j);
        const __m512i re = mulModHalf(va, vb, qV, mLo, mHi, lo32);
        const __m512i ro =
            mulModHalf(_mm512_srli_epi64(va, 32),
                       _mm512_srli_epi64(vb, 32), qV, mLo, mHi, lo32);
        _mm512_storeu_si512(dst + j, mergeHalves(re, ro));
    }
    for (; j < n; ++j)
        dst[j] = barrettReduceWideRaw(static_cast<u64>(a[j]) * b[j], q,
                                      m64);
}

/**
 * 16 coefficients per step as even/odd u64 halves: both sums stay in
 * registers across all k terms, with the same window schedule as the
 * scalar body (a reduced sum counts as one term).
 */
void
dotModAvx512(u32 *dst, const u32 *const *a, const u32 *const *b,
             size_t k, size_t n, u32 q, u64 m64)
{
    const size_t window = dotModWindow(q);
    const __m512i qV = _mm512_set1_epi64(q);
    const __m512i mLo =
        _mm512_set1_epi64(static_cast<i64>(m64 & 0xffffffffULL));
    const __m512i mHi = _mm512_set1_epi64(static_cast<i64>(m64 >> 32));
    const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        __m512i se = _mm512_setzero_si512();
        __m512i so = _mm512_setzero_si512();
        size_t terms = 0;
        for (size_t t = 0; t < k; ++t) {
            if (terms == window) {
                se = reduceWide64(se, qV, mLo, mHi, lo32);
                so = reduceWide64(so, qV, mLo, mHi, lo32);
                terms = 1;
            }
            const __m512i va = _mm512_loadu_si512(a[t] + j);
            const __m512i vb = _mm512_loadu_si512(b[t] + j);
            se = _mm512_add_epi64(se, _mm512_mul_epu32(va, vb));
            so = _mm512_add_epi64(
                so, _mm512_mul_epu32(_mm512_srli_epi64(va, 32),
                                     _mm512_srli_epi64(vb, 32)));
            ++terms;
        }
        _mm512_storeu_si512(
            dst + j, mergeHalves(reduceWide64(se, qV, mLo, mHi, lo32),
                                 reduceWide64(so, qV, mLo, mHi, lo32)));
    }
    dotModTail(dst, a, b, k, j, n, q, m64);
}

/**
 * dotModAvx512 with a broadcast weight per term: the even/odd u64
 * sums stay in registers, and the end is one Montgomery reduction per
 * half and one fold of the merged u32 lanes.
 */
void
dotConstMontAvx512(u32 *dst, const u32 *const *a, const u32 *w, size_t k,
                   size_t n, size_t window, u32 q, u32 qInv, u64 m64)
{
    const __m512i qV = _mm512_set1_epi64(q);
    const __m512i q32V = _mm512_set1_epi32(static_cast<int>(q));
    const __m512i qInvV = _mm512_set1_epi64(qInv);
    const __m512i mLo =
        _mm512_set1_epi64(static_cast<i64>(m64 & 0xffffffffULL));
    const __m512i mHi = _mm512_set1_epi64(static_cast<i64>(m64 >> 32));
    const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        __m512i se = _mm512_setzero_si512();
        __m512i so = _mm512_setzero_si512();
        size_t terms = 0;
        for (size_t t = 0; t < k; ++t) {
            if (terms == window) {
                se = reduceWide64(se, qV, mLo, mHi, lo32);
                so = reduceWide64(so, qV, mLo, mHi, lo32);
                terms = 1;
            }
            const __m512i va = _mm512_loadu_si512(a[t] + j);
            const __m512i wv = _mm512_set1_epi64(w[t]);
            se = _mm512_add_epi64(se, _mm512_mul_epu32(va, wv));
            so = _mm512_add_epi64(
                so, _mm512_mul_epu32(_mm512_srli_epi64(va, 32), wv));
            ++terms;
        }
        const __m512i r = mergeHalves(montReduce64(se, qV, qInvV),
                                      montReduce64(so, qV, qInvV));
        _mm512_storeu_si512(dst + j, fold2qU32(r, q32V));
    }
    dotConstMontTail(dst, a, w, k, j, n, window, q, qInv, m64);
}

void
accumMulAvx512(u64 *acc, const u32 *a, u32 w, size_t n)
{
    const __m512i wV = _mm512_set1_epi64(w);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i a64 = _mm512_cvtepu32_epi64(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + j)));
        const __m512i cur = _mm512_loadu_si512(acc + j);
        _mm512_storeu_si512(
            acc + j,
            _mm512_add_epi64(cur, _mm512_mul_epu32(a64, wV)));
    }
    for (; j < n; ++j)
        acc[j] += static_cast<u64>(a[j]) * w;
}

void
reduceWideAvx512(u32 *dst, const u64 *acc, size_t n, u32 q, u64 m64)
{
    const __m512i qV = _mm512_set1_epi64(q);
    const __m512i mLo =
        _mm512_set1_epi64(static_cast<i64>(m64 & 0xffffffffULL));
    const __m512i mHi = _mm512_set1_epi64(static_cast<i64>(m64 >> 32));
    const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i r = reduceWide64(_mm512_loadu_si512(acc + j), qV,
                                       mLo, mHi, lo32);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + j),
                            _mm512_cvtepi64_epi32(r));
    }
    for (; j < n; ++j)
        dst[j] = barrettReduceWideRaw(acc[j], q, m64);
}

void
reduceWideInPlaceAvx512(u64 *acc, size_t n, u32 q, u64 m64)
{
    const __m512i qV = _mm512_set1_epi64(q);
    const __m512i mLo =
        _mm512_set1_epi64(static_cast<i64>(m64 & 0xffffffffULL));
    const __m512i mHi = _mm512_set1_epi64(static_cast<i64>(m64 >> 32));
    const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        _mm512_storeu_si512(acc + j,
                            reduceWide64(_mm512_loadu_si512(acc + j), qV,
                                         mLo, mHi, lo32));
    }
    for (; j < n; ++j)
        acc[j] = barrettReduceWideRaw(acc[j], q, m64);
}

} // namespace

const ModVecKernels &
modVecKernelsAvx512()
{
    static const ModVecKernels k = {
        addModAvx512,   subModAvx512,   negModAvx512,
        mulShoupAvx512, mulMontAvx512,  mulModAvx512,
        dotModAvx512,   dotConstMontAvx512, accumMulAvx512,
        reduceWideAvx512, reduceWideInPlaceAvx512,
    };
    return k;
}

} // namespace cross::nt::detail
