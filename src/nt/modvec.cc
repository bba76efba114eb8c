#include "nt/modvec.h"

#include "nt/modops.h"
#include "nt/modvec_impl.h"
#include "nt/simd_dispatch.h"

namespace cross::nt {

namespace detail {

namespace {

void
addModScalar(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    for (size_t j = 0; j < n; ++j)
        dst[j] = static_cast<u32>(addMod(a[j], b[j], q));
}

void
subModScalar(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    for (size_t j = 0; j < n; ++j)
        dst[j] = static_cast<u32>(subMod(a[j], b[j], q));
}

void
negModScalar(u32 *dst, const u32 *a, size_t n, u32 q)
{
    for (size_t j = 0; j < n; ++j)
        dst[j] = static_cast<u32>(negMod(a[j], q));
}

void
mulShoupScalar(u32 *dst, const u32 *a, ShoupConst c, size_t n, u32 q)
{
    for (size_t j = 0; j < n; ++j)
        dst[j] = shoupMul(a[j], c, q);
}

void
mulMontScalar(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q,
              u32 qInv, u32 r2)
{
    for (size_t j = 0; j < n; ++j)
        dst[j] = montMulPlainRaw(a[j], b[j], q, qInv, r2);
}

void
mulModScalar(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q,
             u64 m64)
{
    for (size_t j = 0; j < n; ++j)
        dst[j] = barrettReduceWideRaw(static_cast<u64>(a[j]) * b[j], q,
                                      m64);
}

void
dotModScalar(u32 *dst, const u32 *const *a, const u32 *const *b,
             size_t k, size_t n, u32 q, u64 m64)
{
    dotModTail(dst, a, b, k, 0, n, q, m64);
}

void
dotConstMontScalar(u32 *dst, const u32 *const *a, const u32 *w, size_t k,
                   size_t n, size_t window, u32 q, u32 qInv, u64 m64)
{
    dotConstMontTail(dst, a, w, k, 0, n, window, q, qInv, m64);
}

void
accumMulScalar(u64 *acc, const u32 *a, u32 w, size_t n)
{
    for (size_t j = 0; j < n; ++j)
        acc[j] += static_cast<u64>(a[j]) * w;
}

void
reduceWideScalar(u32 *dst, const u64 *acc, size_t n, u32 q, u64 m64)
{
    for (size_t j = 0; j < n; ++j)
        dst[j] = barrettReduceWideRaw(acc[j], q, m64);
}

void
reduceWideInPlaceScalar(u64 *acc, size_t n, u32 q, u64 m64)
{
    for (size_t j = 0; j < n; ++j)
        acc[j] = barrettReduceWideRaw(acc[j], q, m64);
}

} // namespace

const ModVecKernels &
modVecKernelsScalar()
{
    static const ModVecKernels k = {
        addModScalar,    subModScalar,  negModScalar,
        mulShoupScalar,  mulMontScalar, mulModScalar,
        dotModScalar,    dotConstMontScalar, accumMulScalar,
        reduceWideScalar, reduceWideInPlaceScalar,
    };
    return k;
}

namespace {

/**
 * The dispatch read: one atomic load per array call (the arrays are
 * >= degree-sized, so the switch is noise), and the selected table is
 * consistent for the whole call -- setSimdIsa refuses to run while a
 * parallel kernel is mid-flight (see simd_dispatch.h).
 */
const ModVecKernels &
kernels()
{
    switch (activeSimdIsa()) {
#ifdef CROSS_HAVE_AVX2
    case SimdIsa::Avx2:
        return modVecKernelsAvx2();
#endif
#ifdef CROSS_HAVE_AVX512
    case SimdIsa::Avx512:
        return modVecKernelsAvx512();
#endif
    default:
        return modVecKernelsScalar();
    }
}

} // namespace

} // namespace detail

void
addModVec(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    detail::kernels().addMod(dst, a, b, n, q);
}

void
subModVec(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    detail::kernels().subMod(dst, a, b, n, q);
}

void
negModVec(u32 *dst, const u32 *a, size_t n, u32 q)
{
    detail::kernels().negMod(dst, a, n, q);
}

void
mulShoupVec(u32 *dst, const u32 *a, const ShoupConst &c, size_t n, u32 q)
{
    detail::kernels().mulShoup(dst, a, c, n, q);
}

void
mulMontVec(u32 *dst, const u32 *a, const u32 *b, size_t n,
           const Montgomery &mont)
{
    detail::kernels().mulMont(dst, a, b, n, mont.modulus(), mont.qInv(),
                              static_cast<u32>(mont.rSquared()));
}

void
mulModVec(u32 *dst, const u32 *a, const u32 *b, size_t n,
          const Barrett &bar)
{
    detail::kernels().mulMod(dst, a, b, n, bar.modulus(), bar.m64());
}

void
dotModVec(u32 *dst, const u32 *const *a, const u32 *const *b, size_t k,
          size_t n, const Barrett &bar)
{
    detail::kernels().dotMod(dst, a, b, k, n, bar.modulus(), bar.m64());
}

void
dotConstMontVec(u32 *dst, const u32 *const *a, const u32 *wMont, size_t k,
                size_t n, const Montgomery &mont, const Barrett &bar,
                size_t window)
{
    detail::kernels().dotConstMont(dst, a, wMont, k, n, window,
                                   mont.modulus(), mont.qInv(),
                                   bar.m64());
}

void
accumMulVec(u64 *acc, const u32 *a, u32 w, size_t n)
{
    detail::kernels().accumMul(acc, a, w, n);
}

void
reduceWideVec(u32 *dst, const u64 *acc, size_t n, const Barrett &bar)
{
    detail::kernels().reduceWide(dst, acc, n, bar.modulus(), bar.m64());
}

void
reduceWideInPlaceVec(u64 *acc, size_t n, const Barrett &bar)
{
    detail::kernels().reduceWideInPlace(acc, n, bar.modulus(),
                                        bar.m64());
}

} // namespace cross::nt
