/**
 * AVX2 butterfly-block kernels for the lazy-reduction NTT. Compiled
 * with -mavx2; reached only behind the runtime dispatch. Vector lanes
 * mirror the scalar helpers in ntt_kernels.h bit-for-bit: the
 * conditional folds become unsigned-min selects, the Shoup multiply is
 * the shared shoupMulLazy8 lane (nt/simd_lanes_avx2.h), and every tail
 * shorter than a vector runs the scalar helper itself. The stages with
 * stride below 16 run in registers, 16 coefficients at a time.
 */
#include "nt/simd_lanes_avx2.h"
#include "poly/ntt_kernels.h"

namespace cross::poly::detail {

namespace {

using namespace cross::nt::avx2;

void
fwdButterflyLazyAvx2(u32 *x, u32 *y, size_t len, nt::ShoupConst c, u32 q)
{
    const u32 two_q = 2 * q;
    const __m256i qV = _mm256_set1_epi32(static_cast<int>(q));
    const __m256i twoQV = _mm256_set1_epi32(static_cast<int>(two_q));
    const __m256i wV = _mm256_set1_epi64x(c.w);
    const __m256i wsLoV =
        _mm256_set1_epi64x(static_cast<i64>(c.wShoup & 0xffffffffULL));
    const __m256i wsHiV =
        _mm256_set1_epi64x(static_cast<i64>(c.wShoup >> 32));
    size_t j = 0;
    for (; j + 8 <= len; j += 8) {
        __m256i u = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(x + j));
        u = _mm256_min_epu32(u, _mm256_sub_epi32(u, twoQV));
        const __m256i yv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(y + j));
        const __m256i v = shoupMulLazy8(yv, wV, wsLoV, wsHiV, qV);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(x + j),
                            _mm256_add_epi32(u, v));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(y + j),
            _mm256_sub_epi32(_mm256_add_epi32(u, twoQV), v));
    }
    for (; j < len; ++j)
        fwdButterflyLazyOne(x + j, y + j, c, q, two_q);
}

void
invButterflyLazyAvx2(u32 *x, u32 *y, size_t len, nt::ShoupConst c, u32 q)
{
    const u32 two_q = 2 * q;
    const __m256i qV = _mm256_set1_epi32(static_cast<int>(q));
    const __m256i twoQV = _mm256_set1_epi32(static_cast<int>(two_q));
    const __m256i wV = _mm256_set1_epi64x(c.w);
    const __m256i wsLoV =
        _mm256_set1_epi64x(static_cast<i64>(c.wShoup & 0xffffffffULL));
    const __m256i wsHiV =
        _mm256_set1_epi64x(static_cast<i64>(c.wShoup >> 32));
    size_t j = 0;
    for (; j + 8 <= len; j += 8) {
        const __m256i u = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(x + j));
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(y + j));
        __m256i s = _mm256_add_epi32(u, v);
        s = _mm256_min_epu32(s, _mm256_sub_epi32(s, twoQV));
        const __m256i d =
            _mm256_sub_epi32(_mm256_add_epi32(u, twoQV), v);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(x + j), s);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(y + j),
                            shoupMulLazy8(d, wV, wsLoV, wsHiV, qV));
    }
    for (; j < len; ++j)
        invButterflyLazyOne(x + j, y + j, c, q, two_q);
}

void
fold4qAvx2(u32 *a, size_t len, u32 q)
{
    const u32 two_q = 2 * q;
    const __m256i qV = _mm256_set1_epi32(static_cast<int>(q));
    const __m256i twoQV = _mm256_set1_epi32(static_cast<int>(two_q));
    size_t j = 0;
    for (; j + 8 <= len; j += 8) {
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + j));
        v = _mm256_min_epu32(v, _mm256_sub_epi32(v, twoQV));
        v = _mm256_min_epu32(v, _mm256_sub_epi32(v, qV));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + j), v);
    }
    for (; j < len; ++j)
        a[j] = fold4qOne(a[j], q, two_q);
}

// ---------------------------------------------------------------------
// Small-stride stages (t = 8 ... 1) in registers
// ---------------------------------------------------------------------
//
// 16 coefficients sit in two registers (x, y). In layout t lane l of x
// holds coefficient (l / t) * 2t + l % t and the same lane of y its
// butterfly partner t higher, so a stage of stride t is one vector
// butterfly with a per-lane twiddle. Layout 8 is natural order.

constexpr u32 kLanes = 8;

/** Exchange layouts T and T/2 (each move is its own inverse):
 *  128-bit halves for 8/4, u64 pairs for 4/2, u32 pairs for 2/1. */
template <u32 T>
inline void
swapLayouts(__m256i &x, __m256i &y)
{
    __m256i nx, ny;
    if constexpr (T == 8) {
        nx = _mm256_permute2x128_si256(x, y, 0x20);
        ny = _mm256_permute2x128_si256(x, y, 0x31);
    } else if constexpr (T == 4) {
        nx = _mm256_unpacklo_epi64(x, y);
        ny = _mm256_unpackhi_epi64(x, y);
    } else {
        static_assert(T == 2);
        nx = _mm256_blend_epi32(x, _mm256_slli_epi64(y, 32), 0xAA);
        ny = _mm256_blend_epi32(_mm256_srli_epi64(x, 32), y, 0xAA);
    }
    x = nx;
    y = ny;
}

/** Move a register pair from layout From to layout To; 1 <-> 4 is a
 *  direct u32 interleave / de-interleave. */
template <u32 From, u32 To>
inline void
relayout(__m256i &x, __m256i &y)
{
    if constexpr (From == To) {
        return;
    } else if constexpr (From == 1 && To >= 4) {
        const __m256i nx = _mm256_unpacklo_epi32(x, y);
        y = _mm256_unpackhi_epi32(x, y);
        x = nx;
        relayout<4, To>(x, y);
    } else if constexpr (From == 4 && To == 1) {
        const __m256 fx = _mm256_castsi256_ps(x);
        const __m256 fy = _mm256_castsi256_ps(y);
        x = _mm256_castps_si256(
            _mm256_shuffle_ps(fx, fy, _MM_SHUFFLE(2, 0, 2, 0)));
        y = _mm256_castps_si256(
            _mm256_shuffle_ps(fx, fy, _MM_SHUFFLE(3, 1, 3, 1)));
    } else if constexpr (From > To) {
        swapLayouts<From>(x, y);
        relayout<From / 2, To>(x, y);
    } else {
        swapLayouts<2 * From>(x, y);
        relayout<2 * From, To>(x, y);
    }
}

struct alignas(32) LaneIndex
{
    u32 v[kLanes];
};

constexpr LaneIndex
makeSpread(u32 t)
{
    LaneIndex s{};
    for (u32 l = 0; l < kLanes; ++l)
        s.v[l] = l / t;
    return s;
}

template <u32 T>
constexpr LaneIndex kSpread = makeSpread(T);

/** Lane l gets p[l / T]: the stride-T twiddles of one register. */
template <u32 T>
inline __m256i
twiddleLanes(const u32 *p)
{
    const auto *v = reinterpret_cast<const __m256i *>(p);
    if constexpr (T == kLanes)
        return _mm256_set1_epi32(static_cast<int>(*p));
    else if constexpr (T == 1)
        return _mm256_loadu_si256(v);
    else
        return _mm256_permutevar8x32_epi32(
            _mm256_loadu_si256(v),
            _mm256_load_si256(
                reinterpret_cast<const __m256i *>(kSpread<T>.v)));
}

/** Per-lane Shoup multiply of v by the stride-T twiddles at row[i]. */
template <u32 T>
inline __m256i
twiddleMul(__m256i v, const ShoupTwiddles &row, u32 i, __m256i qV)
{
    return shoupMulLazy8Lanes(v, twiddleLanes<T>(row.w.data() + i),
                              twiddleLanes<T>(row.wShoupLo.data() + i),
                              twiddleLanes<T>(row.wShoupHi.data() + i),
                              qV);
}

/** CT stages T, T/2, ..., Last on the block at coefficient j; enters
 *  in layout T and leaves in layout Last. */
template <u32 T, u32 Last>
inline void
fwdStagesInRegs(__m256i &x, __m256i &y, const ShoupTwiddles &row, u32 j,
                __m256i qV, __m256i twoQV)
{
    const __m256i u = _mm256_min_epu32(x, _mm256_sub_epi32(x, twoQV));
    const __m256i v =
        twiddleMul<T>(y, row, twiddleIndex(row.size(), j, T), qV);
    x = _mm256_add_epi32(u, v);
    y = _mm256_sub_epi32(_mm256_add_epi32(u, twoQV), v);
    if constexpr (T > Last) {
        relayout<T, T / 2>(x, y);
        fwdStagesInRegs<T / 2, Last>(x, y, row, j, qV, twoQV);
    }
}

/** GS stages T, 2T, ..., Last; enters in layout T, leaves in Last. */
template <u32 T, u32 Last>
inline void
invStagesInRegs(__m256i &x, __m256i &y, const ShoupTwiddles &row, u32 j,
                __m256i qV, __m256i twoQV)
{
    __m256i s = _mm256_add_epi32(x, y);
    s = _mm256_min_epu32(s, _mm256_sub_epi32(s, twoQV));
    const __m256i d = _mm256_sub_epi32(_mm256_add_epi32(x, twoQV), y);
    x = s;
    y = twiddleMul<T>(d, row, twiddleIndex(row.size(), j, T), qV);
    if constexpr (T < Last) {
        relayout<T, 2 * T>(x, y);
        invStagesInRegs<2 * T, Last>(x, y, row, j, qV, twoQV);
    }
}

template <u32 Last>
void
fwdSmallStridesTo(u32 *a, u32 lo, u32 hi, const ShoupTwiddles &row, u32 q)
{
    const __m256i qV = _mm256_set1_epi32(static_cast<int>(q));
    const __m256i twoQV = _mm256_set1_epi32(static_cast<int>(2 * q));
    for (u32 j = lo; j < hi; j += 2 * kLanes) {
        auto *px = reinterpret_cast<__m256i *>(a + j);
        auto *py = reinterpret_cast<__m256i *>(a + j + kLanes);
        __m256i x = _mm256_loadu_si256(px);
        __m256i y = _mm256_loadu_si256(py);
        fwdStagesInRegs<kLanes, Last>(x, y, row, j, qV, twoQV);
        relayout<Last, kLanes>(x, y);
        _mm256_storeu_si256(px, x);
        _mm256_storeu_si256(py, y);
    }
}

template <u32 Last>
void
invSmallStridesTo(u32 *a, u32 lo, u32 hi, const ShoupTwiddles &row, u32 q)
{
    const __m256i qV = _mm256_set1_epi32(static_cast<int>(q));
    const __m256i twoQV = _mm256_set1_epi32(static_cast<int>(2 * q));
    for (u32 j = lo; j < hi; j += 2 * kLanes) {
        auto *px = reinterpret_cast<__m256i *>(a + j);
        auto *py = reinterpret_cast<__m256i *>(a + j + kLanes);
        __m256i x = _mm256_loadu_si256(px);
        __m256i y = _mm256_loadu_si256(py);
        relayout<kLanes, 1>(x, y);
        invStagesInRegs<1, Last>(x, y, row, j, qV, twoQV);
        relayout<Last, kLanes>(x, y);
        _mm256_storeu_si256(px, x);
        _mm256_storeu_si256(py, y);
    }
}

void
fwdSmallStridesAvx2(u32 *a, u32 lo, u32 hi, const ShoupTwiddles &row,
                    u32 q, u32 stages)
{
    switch (stages) {
      case 1: return fwdSmallStridesTo<8>(a, lo, hi, row, q);
      case 2: return fwdSmallStridesTo<4>(a, lo, hi, row, q);
      case 3: return fwdSmallStridesTo<2>(a, lo, hi, row, q);
      default: return fwdSmallStridesTo<1>(a, lo, hi, row, q);
    }
}

void
invSmallStridesAvx2(u32 *a, u32 lo, u32 hi, const ShoupTwiddles &row,
                    u32 q, u32 stages)
{
    switch (stages) {
      case 1: return invSmallStridesTo<1>(a, lo, hi, row, q);
      case 2: return invSmallStridesTo<2>(a, lo, hi, row, q);
      case 3: return invSmallStridesTo<4>(a, lo, hi, row, q);
      default: return invSmallStridesTo<8>(a, lo, hi, row, q);
    }
}

} // namespace

const NttKernels &
nttKernelsAvx2()
{
    static const NttKernels k = {
        fwdButterflyLazyAvx2,
        invButterflyLazyAvx2,
        fold4qAvx2,
        2 * kLanes,
        fwdSmallStridesAvx2,
        invSmallStridesAvx2,
    };
    return k;
}

} // namespace cross::poly::detail
