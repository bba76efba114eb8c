#include "poly/ntt_ct.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/check.h"
#include "common/parallel.h"
#include "nt/modops.h"
#include "nt/modvec.h"
#include "poly/ntt_kernels.h"

namespace cross::poly {

namespace {

/**
 * The lazy [0, 4q) representation needs 4q to fit u32. Production
 * parameter sets use ~28-bit primes, so this is the common path; the
 * strict kernels below remain both the wide-modulus fallback and the
 * reference the lazy path must reproduce bit-for-bit.
 */
constexpr u32 kLazyModulusBound = 1u << 30;

constexpr bool
lazyEligible(u32 q)
{
    return q < kLazyModulusBound;
}

#ifndef NDEBUG
/**
 * Debug-mode range checker for the redundant representation: every
 * stage boundary must respect its invariant ([0, 4q) forward, [0, 2q)
 * inverse). Compiled out of release builds.
 */
void
checkLazyRange(const u32 *a, u32 n, u64 bound, const char *what)
{
    for (u32 j = 0; j < n; ++j)
        internalCheck(a[j] < bound, what);
}
#define CROSS_NTT_CHECK_RANGE(a, n, bound, what) \
    checkLazyRange(a, n, bound, what)
#else
#define CROSS_NTT_CHECK_RANGE(a, n, bound, what) ((void)0)
#endif

/** The original strict Cooley-Tukey kernel (values < q throughout). */
void
forwardStrict(u32 *a, const NttTables &tab)
{
    const u32 n = tab.degree();
    const u32 q = tab.modulus();
    u32 t = n;
    for (u32 m = 1; m < n; m <<= 1) {
        t >>= 1;
        for (u32 i = 0; i < m; ++i) {
            const u32 j1 = 2 * i * t;
            const u32 j2 = j1 + t;
            const auto &s = tab.psiBr(m + i);
            for (u32 j = j1; j < j2; ++j) {
                const u32 u = a[j];
                const u32 v = nt::shoupMul(a[j + t], s, q);
                a[j] = static_cast<u32>(nt::addMod(u, v, q));
                a[j + t] = static_cast<u32>(nt::subMod(u, v, q));
            }
        }
    }
}

/** The original strict Gentleman-Sande kernel with N^-1 scaling. */
void
inverseStrict(u32 *a, const NttTables &tab)
{
    const u32 n = tab.degree();
    const u32 q = tab.modulus();
    u32 t = 1;
    for (u32 m = n; m > 1; m >>= 1) {
        u32 j1 = 0;
        const u32 h = m >> 1;
        for (u32 i = 0; i < h; ++i) {
            const u32 j2 = j1 + t;
            const auto &s = tab.psiInvBr(h + i);
            for (u32 j = j1; j < j2; ++j) {
                const u32 u = a[j];
                const u32 v = a[j + t];
                a[j] = static_cast<u32>(nt::addMod(u, v, q));
                a[j + t] =
                    nt::shoupMul(static_cast<u32>(nt::subMod(u, v, q)), s, q);
            }
            j1 += 2 * t;
        }
        t <<= 1;
    }
    const auto &ninv = tab.nInv();
    for (u32 j = 0; j < n; ++j)
        a[j] = nt::shoupMul(a[j], ninv, q);
}

/**
 * `stages` lazy CT stages over a[lo, hi), the first of stride t; every
 * block of those stages lies inside the range. Strides below the
 * kernel span run in the in-register small-stride kernel, unless the
 * whole transform is narrower than the span.
 */
void
forwardStages(u32 *a, const NttTables &tab, const detail::NttKernels &ker,
              u32 lo, u32 hi, u32 t, u32 stages)
{
    const u32 n = tab.degree();
    const u32 q = tab.modulus();
    const bool in_registers = n >= ker.span;
    for (; stages > 0 && !(in_registers && t < ker.span);
         --stages, t >>= 1) {
        for (u32 j1 = lo; j1 < hi; j1 += 2 * t)
            ker.fwdButterflyLazy(a + j1, a + j1 + t, t,
                                 tab.psiBr(detail::twiddleIndex(n, j1, t)),
                                 q);
        CROSS_NTT_CHECK_RANGE(a + lo, hi - lo, 4ULL * q,
                              "NTT forward: lazy [0,4q) invariant");
    }
    if (stages > 0) {
        ker.fwdSmallStrides(a, lo, hi, tab.psiBrRow(), q, stages);
        CROSS_NTT_CHECK_RANGE(a + lo, hi - lo, 4ULL * q,
                              "NTT forward: lazy [0,4q) invariant");
    }
}

/** `stages` lazy GS stages over a[lo, hi), strides 1, 2, 4, ...; the
 *  strides below the kernel span run in registers. */
void
inverseStages(u32 *a, const NttTables &tab, const detail::NttKernels &ker,
              u32 lo, u32 hi, u32 stages)
{
    const u32 n = tab.degree();
    const u32 q = tab.modulus();
    u32 t = 1;
    if (n >= ker.span && stages > 0) {
        const u32 s = std::min(stages, ilog2(ker.span));
        ker.invSmallStrides(a, lo, hi, tab.psiInvBrRow(), q, s);
        CROSS_NTT_CHECK_RANGE(a + lo, hi - lo, 2ULL * q,
                              "NTT inverse: lazy [0,2q) invariant");
        stages -= s;
        t <<= s;
    }
    for (; stages > 0; --stages, t <<= 1) {
        for (u32 j1 = lo; j1 < hi; j1 += 2 * t)
            ker.invButterflyLazy(
                a + j1, a + j1 + t, t,
                tab.psiInvBr(detail::twiddleIndex(n, j1, t)), q);
        CROSS_NTT_CHECK_RANGE(a + lo, hi - lo, 2ULL * q,
                              "NTT inverse: lazy [0,2q) invariant");
    }
}

} // namespace

void
forwardInPlace(u32 *a, const NttTables &tab)
{
    const u32 n = tab.degree();
    const u32 q = tab.modulus();
    if (!lazyEligible(q)) {
        forwardStrict(a, tab);
        return;
    }
    // Lazy Cooley-Tukey: coefficients ride in [0, 4q) across stages,
    // each butterfly folds only its own x input to [0, 2q); the single
    // canonical reduction happens at the output. Identical residues to
    // forwardStrict, so the final fold restores the exact same bits.
    const auto &ker = detail::activeNttKernels();
    forwardStages(a, tab, ker, 0, n, n / 2, ilog2(n));
    ker.fold4q(a, n, q);
    CROSS_NTT_CHECK_RANGE(a, n, q, "NTT forward: canonical output");
}

void
inverseInPlace(u32 *a, const NttTables &tab)
{
    const u32 n = tab.degree();
    const u32 q = tab.modulus();
    if (!lazyEligible(q)) {
        inverseStrict(a, tab);
        return;
    }
    // Lazy Gentleman-Sande: the [0, 2q) invariant holds into and out of
    // every stage; the final N^-1 Shoup multiply accepts the lazy input
    // and emits canonical [0, q) directly.
    inverseStages(a, tab, detail::activeNttKernels(), 0, n, ilog2(n));
    nt::mulShoupVec(a, a, tab.nInv(), n, q);
    CROSS_NTT_CHECK_RANGE(a, n, q, "NTT inverse: canonical output");
}

namespace detail {

void
forwardLazyStages(u32 *a, const NttTables &tab, u32 stages)
{
    internalCheck(lazyEligible(tab.modulus()) &&
                      stages <= ilog2(tab.degree()),
                  "forwardLazyStages: lazy modulus and stage count");
    const u32 n = tab.degree();
    forwardStages(a, tab, activeNttKernels(), 0, n, n / 2, stages);
}

void
inverseLazyStages(u32 *a, const NttTables &tab, u32 stages)
{
    internalCheck(lazyEligible(tab.modulus()) &&
                      stages <= ilog2(tab.degree()),
                  "inverseLazyStages: lazy modulus and stage count");
    inverseStages(a, tab, activeNttKernels(), 0, tab.degree(), stages);
}

} // namespace detail

namespace {

/** Coefficient ranges below this stay on one thread (fork/join would
 *  dominate the butterfly work). */
constexpr u32 kMinChunkLen = 512;

/**
 * Per-polynomial coefficient-split factor: the largest power of two P
 * such that count * P parts still fit the thread budget and each of
 * the P chunks keeps at least kMinChunkLen coefficients.
 */
u32
coeffSplitParts(size_t count, u32 n, u32 threads)
{
    u32 p = 1;
    while (2 * p * count <= threads && n / (2 * p) >= kMinChunkLen)
        p *= 2;
    return p;
}

} // namespace

void
forwardInPlaceMany(u32 *const *polys, const NttTables *const *tabs,
                   size_t count)
{
    if (count == 0)
        return;
    const u32 n = tabs[0]->degree();
    const u32 threads = inParallelRegion() ? 1 : globalThreadCount();
    bool all_lazy = true;
    for (size_t i = 0; i < count; ++i) {
        internalCheck(tabs[i]->degree() == n,
                      "forwardInPlaceMany: degree mismatch");
        all_lazy = all_lazy && lazyEligible(tabs[i]->modulus());
    }
    // The coefficient split rides on the lazy kernels; wide moduli (or
    // enough limbs to keep every thread busy) use the per-poly split.
    const u32 parts =
        all_lazy ? coeffSplitParts(count, n, threads) : 1;
    if (parts <= 1) {
        parallelFor(0, count, [&](size_t i) {
            forwardInPlace(polys[i], *tabs[i]);
        });
        return;
    }
    const auto &ker = detail::activeNttKernels();
    const size_t half = n / 2;
    // Head stages (m < parts): blocks span chunk boundaries, so split
    // each stage's independent butterflies across threads -- one
    // barrier per stage, log2(parts) barriers total. The flat index
    // maps to (poly, block, offset); a range never crosses a poly
    // because blocks tile each poly's half-length exactly.
    u32 t = n;
    for (u32 m = 1; m < parts; m <<= 1) {
        t >>= 1;
        parallelForRange(0, count * half, [&](size_t lo, size_t hi) {
            size_t f = lo;
            while (f < hi) {
                const size_t poly = f / half;
                const size_t rem = f % half;
                const u32 i = static_cast<u32>(rem / t);
                const u32 off = static_cast<u32>(rem % t);
                const u32 len = static_cast<u32>(
                    std::min<size_t>(t - off, hi - f));
                u32 *base = polys[poly] + 2 * i * t;
                ker.fwdButterflyLazy(base + off, base + off + t, len,
                                     tabs[poly]->psiBr(m + i),
                                     tabs[poly]->modulus());
                f += len;
            }
        });
    }
    // Tail stages (m >= parts): block spans divide the chunk length,
    // so every (poly, chunk) pair runs its remaining stages and the
    // canonical fold independently -- no further barriers.
    const u32 chunk_len = n / parts;
    parallelFor(0, count * parts, [&](size_t w) {
        const size_t poly = w / parts;
        const u32 chunk = static_cast<u32>(w % parts);
        u32 *a = polys[poly];
        const NttTables &tab = *tabs[poly];
        const u32 c0 = chunk * chunk_len;
        forwardStages(a, tab, ker, c0, c0 + chunk_len, chunk_len / 2,
                      ilog2(chunk_len));
        ker.fold4q(a + c0, chunk_len, tab.modulus());
    });
}

void
inverseInPlaceMany(u32 *const *polys, const NttTables *const *tabs,
                   size_t count)
{
    if (count == 0)
        return;
    const u32 n = tabs[0]->degree();
    const u32 threads = inParallelRegion() ? 1 : globalThreadCount();
    bool all_lazy = true;
    for (size_t i = 0; i < count; ++i) {
        internalCheck(tabs[i]->degree() == n,
                      "inverseInPlaceMany: degree mismatch");
        all_lazy = all_lazy && lazyEligible(tabs[i]->modulus());
    }
    const u32 parts =
        all_lazy ? coeffSplitParts(count, n, threads) : 1;
    if (parts <= 1) {
        parallelFor(0, count, [&](size_t i) {
            inverseInPlace(polys[i], *tabs[i]);
        });
        return;
    }
    const auto &ker = detail::activeNttKernels();
    const size_t half = n / 2;
    const u32 chunk_len = n / parts;
    // Mirror image of the forward split: the early GS stages have
    // small blocks local to one chunk (m >= 2*parts), the last
    // log2(parts) stages span chunks and go stage-parallel.
    parallelFor(0, count * parts, [&](size_t w) {
        const size_t poly = w / parts;
        const u32 c0 = static_cast<u32>(w % parts) * chunk_len;
        inverseStages(polys[poly], *tabs[poly], ker, c0, c0 + chunk_len,
                      ilog2(chunk_len));
    });
    u32 t = chunk_len;
    for (u32 m = parts; m > 1; m >>= 1) {
        const u32 h = m >> 1;
        parallelForRange(0, count * half, [&](size_t lo, size_t hi) {
            size_t f = lo;
            while (f < hi) {
                const size_t poly = f / half;
                const size_t rem = f % half;
                const u32 i = static_cast<u32>(rem / t);
                const u32 off = static_cast<u32>(rem % t);
                const u32 len = static_cast<u32>(
                    std::min<size_t>(t - off, hi - f));
                u32 *base = polys[poly] + 2 * i * t;
                ker.invButterflyLazy(base + off, base + off + t, len,
                                     tabs[poly]->psiInvBr(h + i),
                                     tabs[poly]->modulus());
                f += len;
            }
        });
        t <<= 1;
    }
    // Final N^-1 scaling, flat across all polys' coefficients.
    parallelForRange(0, count * static_cast<size_t>(n),
                     [&](size_t lo, size_t hi) {
        size_t f = lo;
        while (f < hi) {
            const size_t poly = f / n;
            const u32 off = static_cast<u32>(f % n);
            const u32 len = static_cast<u32>(
                std::min<size_t>(n - off, hi - f));
            nt::mulShoupVec(polys[poly] + off, polys[poly] + off,
                            tabs[poly]->nInv(), len,
                            tabs[poly]->modulus());
            f += len;
        }
    });
}

} // namespace cross::poly
