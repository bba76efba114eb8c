#include "poly/ntt_kernels.h"

#include "nt/simd_dispatch.h"

namespace cross::poly::detail {

namespace {

void
fwdButterflyLazyScalar(u32 *x, u32 *y, size_t len, nt::ShoupConst c,
                       u32 q)
{
    const u32 two_q = 2 * q;
    for (size_t j = 0; j < len; ++j)
        fwdButterflyLazyOne(x + j, y + j, c, q, two_q);
}

void
invButterflyLazyScalar(u32 *x, u32 *y, size_t len, nt::ShoupConst c,
                       u32 q)
{
    const u32 two_q = 2 * q;
    for (size_t j = 0; j < len; ++j)
        invButterflyLazyOne(x + j, y + j, c, q, two_q);
}

void
fold4qScalar(u32 *a, size_t len, u32 q)
{
    const u32 two_q = 2 * q;
    for (size_t j = 0; j < len; ++j)
        a[j] = fold4qOne(a[j], q, two_q);
}

// The scalar path has one lane, so span 2: its small-stride entries
// are the plain loop over the t = 1 stage.

void
fwdSmallStridesScalar(u32 *a, u32 lo, u32 hi, const ShoupTwiddles &tw,
                      u32 q, u32 /*stages*/)
{
    const u32 two_q = 2 * q;
    for (u32 j = lo; j < hi; j += 2)
        fwdButterflyLazyOne(a + j, a + j + 1,
                            tw[twiddleIndex(tw.size(), j, 1)], q, two_q);
}

void
invSmallStridesScalar(u32 *a, u32 lo, u32 hi, const ShoupTwiddles &tw,
                      u32 q, u32 /*stages*/)
{
    const u32 two_q = 2 * q;
    for (u32 j = lo; j < hi; j += 2)
        invButterflyLazyOne(a + j, a + j + 1,
                            tw[twiddleIndex(tw.size(), j, 1)], q, two_q);
}

} // namespace

const NttKernels &
nttKernelsScalar()
{
    static const NttKernels k = {
        fwdButterflyLazyScalar,
        invButterflyLazyScalar,
        fold4qScalar,
        2,
        fwdSmallStridesScalar,
        invSmallStridesScalar,
    };
    return k;
}

const NttKernels &
activeNttKernels()
{
    switch (nt::activeSimdIsa()) {
#ifdef CROSS_HAVE_AVX2
    case nt::SimdIsa::Avx2:
        return nttKernelsAvx2();
#endif
#ifdef CROSS_HAVE_AVX512
    case nt::SimdIsa::Avx512:
        return nttKernelsAvx512();
#endif
    default:
        return nttKernelsScalar();
    }
}

} // namespace cross::poly::detail
