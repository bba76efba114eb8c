#include "poly/ntt_tables.h"

#include "common/bitops.h"
#include "common/check.h"
#include "nt/modops.h"
#include "nt/roots.h"

namespace cross::poly {

namespace {

void
reserveRow(ShoupTwiddles &row, u32 n)
{
    row.w.reserve(n);
    row.wShoupLo.reserve(n);
    row.wShoupHi.reserve(n);
}

void
appendShoup(ShoupTwiddles &row, u32 w, u32 q)
{
    const nt::ShoupConst c = nt::shoupPrecompute(w, q);
    row.w.push_back(c.w);
    row.wShoupLo.push_back(static_cast<u32>(c.wShoup));
    row.wShoupHi.push_back(static_cast<u32>(c.wShoup >> 32));
}

} // namespace

NttTables::NttTables(u32 n, u32 q) : n_(n), q_(q)
{
    requireThat(isPow2(n), "NttTables: N must be a power of two");
    requireThat((q - 1) % (2ULL * n) == 0,
                "NttTables: need q == 1 (mod 2N) for a 2N-th root");

    psi_ = static_cast<u32>(nt::rootOfUnity(2ULL * n, q));
    psiInv_ = static_cast<u32>(nt::invMod(psi_, q));

    const u32 bits = ilog2(n);
    reserveRow(psiBr_, n);
    reserveRow(psiInvBr_, n);
    for (u32 i = 0; i < n; ++i) {
        const u64 e = bitReverse(i, bits);
        appendShoup(psiBr_, static_cast<u32>(nt::powMod(psi_, e, q)), q);
        appendShoup(psiInvBr_, static_cast<u32>(nt::powMod(psiInv_, e, q)),
                    q);
    }
    nInv_ = nt::shoupPrecompute(static_cast<u32>(nt::invMod(n, q)), q);
}

u32
NttTables::psiPow(u64 e) const
{
    return static_cast<u32>(nt::powMod(psi_, e % (2ULL * n_), q_));
}

} // namespace cross::poly
