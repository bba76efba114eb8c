#include "rns/bconv.h"

#include <algorithm>
#include <memory>

#include "common/bitops.h"
#include "common/check.h"
#include "common/parallel.h"
#include "nt/modvec.h"

namespace cross::rns {

namespace {

/** Coefficient count of @p m, checking it has @p limbs equal rows. */
size_t
limbLength(const LimbMatrix &m, size_t limbs, const char *what)
{
    requireThat(m.size() == limbs, what);
    const size_t n = m.empty() ? 0 : m[0].size();
    for (const auto &row : m)
        requireThat(row.size() == n, "BConv: ragged limbs");
    return n;
}

std::vector<const u32 *>
rowPtrs(const LimbMatrix &m)
{
    std::vector<const u32 *> p(m.size());
    for (size_t i = 0; i < m.size(); ++i)
        p[i] = m[i].data();
    return p;
}

/** Reshape @p m to [limbs][n] and return its row pointers. */
std::vector<u32 *>
resizedRowPtrs(LimbMatrix &m, size_t limbs, size_t n)
{
    m.resize(limbs);
    std::vector<u32 *> p(limbs);
    for (size_t i = 0; i < limbs; ++i) {
        m[i].resize(n);
        p[i] = m[i].data();
    }
    return p;
}

} // namespace

BasisConversion::BasisConversion(const RnsBasis &from, const RnsBasis &to)
    : from_(from), to_(to)
{
    const size_t l = from_.size();
    tableMont_.resize(to_.size() * l);
    for (size_t j = 0; j < to_.size(); ++j) {
        const nt::Montgomery &mont = to_.mont(j);
        for (size_t i = 0; i < l; ++i) {
            tableMont_[j * l + i] = mont.toMont(
                static_cast<u32>(from_.qHatMod(i, to_.modulus(j))));
        }
    }
    qHatInvShoup_.reserve(l);
    for (size_t i = 0; i < l; ++i) {
        qHatInvShoup_.push_back(nt::shoupPrecompute(
            static_cast<u32>(from_.qHatInv(i)),
            static_cast<u32>(from_.modulus(i))));
    }

    // How many b_i * table products fit in a u64 accumulator.
    u32 from_bits = 0, to_bits = 0;
    for (u64 q : from_.moduli())
        from_bits = std::max(from_bits, ilog2(q) + 1);
    for (u64 p : to_.moduli())
        to_bits = std::max(to_bits, ilog2(p) + 1);
    const u32 slack = 63 - (from_bits + to_bits);
    reduceEvery_ = std::max<size_t>(1, size_t{1} << std::min(slack, 20u));

    const u64 q_max = *std::max_element(from_.moduli().begin(),
                                        from_.moduli().end());
    montWindow_ = nt::dotConstMontWindow(static_cast<u32>(q_max));
}

u32
BasisConversion::table(size_t i, size_t j) const
{
    return to_.mont(j).fromMont(tableMont_[j * from_.size() + i]);
}

void
BasisConversion::step1(const u32 *const *in, u32 *const *out,
                       size_t n) const
{
    parallelFor2D(from_.size(), n, [&](size_t i, size_t lo, size_t hi) {
        const u32 q = static_cast<u32>(from_.modulus(i));
        nt::mulShoupVec(out[i] + lo, in[i] + lo, qHatInvShoup_[i],
                        hi - lo, q);
    });
}

void
BasisConversion::step2(const u32 *const *b, u32 *const *out,
                       size_t n) const
{
    // The (N, L, L') MatModMul: independent per (target limb j,
    // coefficient range), each one register-resident multiply-
    // accumulate over the L source limbs straight into out[j].
    const size_t l = from_.size();
    parallelFor2D(to_.size(), n, [&](size_t j, size_t lo, size_t hi) {
        std::vector<const u32 *> src(l);
        for (size_t i = 0; i < l; ++i)
            src[i] = b[i] + lo;
        nt::dotConstMontVec(out[j] + lo, src.data(),
                            tableMont_.data() + j * l, l, hi - lo,
                            to_.mont(j), to_.barrett(j), montWindow_);
    });
}

void
BasisConversion::apply(const u32 *const *in, u32 *const *out,
                       size_t n) const
{
    const size_t l = from_.size();
    const std::unique_ptr<u32[]> buf(new u32[l * n]);
    std::vector<u32 *> b(l);
    for (size_t i = 0; i < l; ++i)
        b[i] = buf.get() + i * n;
    step1(in, b.data(), n);
    step2(b.data(), out, n);
}

void
BasisConversion::step1(const LimbMatrix &in, LimbMatrix &out) const
{
    const size_t n = limbLength(in, from_.size(), "BConv step1: limb count");
    step1(rowPtrs(in).data(), resizedRowPtrs(out, in.size(), n).data(), n);
}

void
BasisConversion::step2(const LimbMatrix &b, LimbMatrix &out) const
{
    const size_t n = limbLength(b, from_.size(), "BConv step2: limb count");
    step2(rowPtrs(b).data(), resizedRowPtrs(out, to_.size(), n).data(), n);
}

void
BasisConversion::apply(const LimbMatrix &in, LimbMatrix &out) const
{
    const size_t n = limbLength(in, from_.size(), "BConv apply: limb count");
    apply(rowPtrs(in).data(), resizedRowPtrs(out, to_.size(), n).data(), n);
}

} // namespace cross::rns
