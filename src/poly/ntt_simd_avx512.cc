/**
 * AVX-512 butterfly-block kernels for the lazy-reduction NTT.
 * Compiled with -mavx512f/dq/vl; reached only behind the runtime
 * dispatch. Same structure as the AVX2 TU at twice the width; the
 * small-stride stages re-pair lanes with permutex2var instead of
 * AVX2's fixed unpack/blend sequences.
 */
#include "nt/simd_lanes_avx512.h"
#include "poly/ntt_kernels.h"

namespace cross::poly::detail {

namespace {

using namespace cross::nt::avx512;

void
fwdButterflyLazyAvx512(u32 *x, u32 *y, size_t len, nt::ShoupConst c,
                       u32 q)
{
    const u32 two_q = 2 * q;
    const __m512i q64V = _mm512_set1_epi64(q);
    const __m512i twoQV = _mm512_set1_epi32(static_cast<int>(two_q));
    const __m512i wV = _mm512_set1_epi64(c.w);
    const __m512i wsLoV =
        _mm512_set1_epi64(static_cast<i64>(c.wShoup & 0xffffffffULL));
    const __m512i wsHiV =
        _mm512_set1_epi64(static_cast<i64>(c.wShoup >> 32));
    size_t j = 0;
    for (; j + 16 <= len; j += 16) {
        __m512i u = _mm512_loadu_si512(x + j);
        u = _mm512_min_epu32(u, _mm512_sub_epi32(u, twoQV));
        const __m512i yv = _mm512_loadu_si512(y + j);
        const __m512i v = shoupMulLazy16(yv, wV, wsLoV, wsHiV, q64V);
        _mm512_storeu_si512(x + j, _mm512_add_epi32(u, v));
        _mm512_storeu_si512(
            y + j, _mm512_sub_epi32(_mm512_add_epi32(u, twoQV), v));
    }
    for (; j < len; ++j)
        fwdButterflyLazyOne(x + j, y + j, c, q, two_q);
}

void
invButterflyLazyAvx512(u32 *x, u32 *y, size_t len, nt::ShoupConst c,
                       u32 q)
{
    const u32 two_q = 2 * q;
    const __m512i q64V = _mm512_set1_epi64(q);
    const __m512i twoQV = _mm512_set1_epi32(static_cast<int>(two_q));
    const __m512i wV = _mm512_set1_epi64(c.w);
    const __m512i wsLoV =
        _mm512_set1_epi64(static_cast<i64>(c.wShoup & 0xffffffffULL));
    const __m512i wsHiV =
        _mm512_set1_epi64(static_cast<i64>(c.wShoup >> 32));
    size_t j = 0;
    for (; j + 16 <= len; j += 16) {
        const __m512i u = _mm512_loadu_si512(x + j);
        const __m512i v = _mm512_loadu_si512(y + j);
        __m512i s = _mm512_add_epi32(u, v);
        s = _mm512_min_epu32(s, _mm512_sub_epi32(s, twoQV));
        const __m512i d =
            _mm512_sub_epi32(_mm512_add_epi32(u, twoQV), v);
        _mm512_storeu_si512(x + j, s);
        _mm512_storeu_si512(
            y + j, shoupMulLazy16(d, wV, wsLoV, wsHiV, q64V));
    }
    for (; j < len; ++j)
        invButterflyLazyOne(x + j, y + j, c, q, two_q);
}

void
fold4qAvx512(u32 *a, size_t len, u32 q)
{
    const u32 two_q = 2 * q;
    const __m512i qV = _mm512_set1_epi32(static_cast<int>(q));
    const __m512i twoQV = _mm512_set1_epi32(static_cast<int>(two_q));
    size_t j = 0;
    for (; j + 16 <= len; j += 16) {
        __m512i v = _mm512_loadu_si512(a + j);
        v = _mm512_min_epu32(v, _mm512_sub_epi32(v, twoQV));
        v = _mm512_min_epu32(v, _mm512_sub_epi32(v, qV));
        _mm512_storeu_si512(a + j, v);
    }
    for (; j < len; ++j)
        a[j] = fold4qOne(a[j], q, two_q);
}

// ---------------------------------------------------------------------
// Small-stride stages (t = 16 ... 1) in registers
// ---------------------------------------------------------------------
//
// 32 coefficients sit in two registers (x, y). In layout t lane l of x
// holds coefficient (l / t) * 2t + l % t and the same lane of y its
// butterfly partner t higher, so a stage of stride t is one vector
// butterfly with a per-lane twiddle. Layout 16 is natural order; each
// change of layout is one permutex2var per register.

constexpr u32 kLanes = 16;

/** Coefficient in lane l of register reg (0 = x, 1 = y), layout t. */
constexpr u32
laneCoef(u32 t, u32 reg, u32 l)
{
    return l / t * 2 * t + l % t + reg * t;
}

/** permutex2var source of coefficient c in layout t (+16 = from y). */
constexpr u32
laneSource(u32 t, u32 c)
{
    return c / t % 2 * kLanes + c / (2 * t) * t + c % t;
}

struct alignas(64) LaneIndex
{
    u32 v[kLanes];
};

struct Relayout
{
    LaneIndex x, y;
};

constexpr Relayout
makeRelayout(u32 from, u32 to)
{
    Relayout r{};
    for (u32 l = 0; l < kLanes; ++l) {
        r.x.v[l] = laneSource(from, laneCoef(to, 0, l));
        r.y.v[l] = laneSource(from, laneCoef(to, 1, l));
    }
    return r;
}

template <u32 From, u32 To>
constexpr Relayout kRelayout = makeRelayout(From, To);

/** Move a register pair from layout From to layout To. */
template <u32 From, u32 To>
inline void
relayout(__m512i &x, __m512i &y)
{
    if constexpr (From != To) {
        const __m512i ix = _mm512_load_si512(kRelayout<From, To>.x.v);
        const __m512i iy = _mm512_load_si512(kRelayout<From, To>.y.v);
        const __m512i nx = _mm512_permutex2var_epi32(x, ix, y);
        y = _mm512_permutex2var_epi32(x, iy, y);
        x = nx;
    }
}

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
inline __m512i
twiddleLanes(const u32 *p)
{
    if constexpr (T == kLanes)
        return _mm512_set1_epi32(static_cast<int>(*p));
    else if constexpr (T == 1)
        return _mm512_loadu_si512(p);
    else
        return _mm512_permutexvar_epi32(_mm512_load_si512(kSpread<T>.v),
                                        _mm512_loadu_si512(p));
}

/** Per-lane Shoup multiply of v by the stride-T twiddles at row[i]. */
template <u32 T>
inline __m512i
twiddleMul(__m512i v, const ShoupTwiddles &row, u32 i, __m512i q64V)
{
    return shoupMulLazy16Lanes(v, twiddleLanes<T>(row.w.data() + i),
                               twiddleLanes<T>(row.wShoupLo.data() + i),
                               twiddleLanes<T>(row.wShoupHi.data() + i),
                               q64V);
}

/** CT stages T, T/2, ..., Last on the block at coefficient j; enters
 *  in layout T and leaves in layout Last. */
template <u32 T, u32 Last>
inline void
fwdStagesInRegs(__m512i &x, __m512i &y, const ShoupTwiddles &row, u32 j,
                __m512i q64V, __m512i twoQV)
{
    const __m512i u = _mm512_min_epu32(x, _mm512_sub_epi32(x, twoQV));
    const __m512i v =
        twiddleMul<T>(y, row, twiddleIndex(row.size(), j, T), q64V);
    x = _mm512_add_epi32(u, v);
    y = _mm512_sub_epi32(_mm512_add_epi32(u, twoQV), v);
    if constexpr (T > Last) {
        relayout<T, T / 2>(x, y);
        fwdStagesInRegs<T / 2, Last>(x, y, row, j, q64V, twoQV);
    }
}

/** GS stages T, 2T, ..., Last; enters in layout T, leaves in Last. */
template <u32 T, u32 Last>
inline void
invStagesInRegs(__m512i &x, __m512i &y, const ShoupTwiddles &row, u32 j,
                __m512i q64V, __m512i twoQV)
{
    __m512i s = _mm512_add_epi32(x, y);
    s = _mm512_min_epu32(s, _mm512_sub_epi32(s, twoQV));
    const __m512i d = _mm512_sub_epi32(_mm512_add_epi32(x, twoQV), y);
    x = s;
    y = twiddleMul<T>(d, row, twiddleIndex(row.size(), j, T), q64V);
    if constexpr (T < Last) {
        relayout<T, 2 * T>(x, y);
        invStagesInRegs<2 * T, Last>(x, y, row, j, q64V, twoQV);
    }
}

template <u32 Last>
void
fwdSmallStridesTo(u32 *a, u32 lo, u32 hi, const ShoupTwiddles &row, u32 q)
{
    const __m512i q64V = _mm512_set1_epi64(q);
    const __m512i twoQV = _mm512_set1_epi32(static_cast<int>(2 * q));
    for (u32 j = lo; j < hi; j += 2 * kLanes) {
        __m512i x = _mm512_loadu_si512(a + j);
        __m512i y = _mm512_loadu_si512(a + j + kLanes);
        fwdStagesInRegs<kLanes, Last>(x, y, row, j, q64V, twoQV);
        relayout<Last, kLanes>(x, y);
        _mm512_storeu_si512(a + j, x);
        _mm512_storeu_si512(a + j + kLanes, y);
    }
}

template <u32 Last>
void
invSmallStridesTo(u32 *a, u32 lo, u32 hi, const ShoupTwiddles &row, u32 q)
{
    const __m512i q64V = _mm512_set1_epi64(q);
    const __m512i twoQV = _mm512_set1_epi32(static_cast<int>(2 * q));
    for (u32 j = lo; j < hi; j += 2 * kLanes) {
        __m512i x = _mm512_loadu_si512(a + j);
        __m512i y = _mm512_loadu_si512(a + j + kLanes);
        relayout<kLanes, 1>(x, y);
        invStagesInRegs<1, Last>(x, y, row, j, q64V, twoQV);
        relayout<Last, kLanes>(x, y);
        _mm512_storeu_si512(a + j, x);
        _mm512_storeu_si512(a + j + kLanes, y);
    }
}

void
fwdSmallStridesAvx512(u32 *a, u32 lo, u32 hi, const ShoupTwiddles &row,
                      u32 q, u32 stages)
{
    switch (stages) {
      case 1: return fwdSmallStridesTo<16>(a, lo, hi, row, q);
      case 2: return fwdSmallStridesTo<8>(a, lo, hi, row, q);
      case 3: return fwdSmallStridesTo<4>(a, lo, hi, row, q);
      case 4: return fwdSmallStridesTo<2>(a, lo, hi, row, q);
      default: return fwdSmallStridesTo<1>(a, lo, hi, row, q);
    }
}

void
invSmallStridesAvx512(u32 *a, u32 lo, u32 hi, const ShoupTwiddles &row,
                      u32 q, u32 stages)
{
    switch (stages) {
      case 1: return invSmallStridesTo<1>(a, lo, hi, row, q);
      case 2: return invSmallStridesTo<2>(a, lo, hi, row, q);
      case 3: return invSmallStridesTo<4>(a, lo, hi, row, q);
      case 4: return invSmallStridesTo<8>(a, lo, hi, row, q);
      default: return invSmallStridesTo<16>(a, lo, hi, row, q);
    }
}

} // namespace

const NttKernels &
nttKernelsAvx512()
{
    static const NttKernels k = {
        fwdButterflyLazyAvx512,
        invButterflyLazyAvx512,
        fold4qAvx512,
        2 * kLanes,
        fwdSmallStridesAvx512,
        invSmallStridesAvx512,
    };
    return k;
}

} // namespace cross::poly::detail
