#include "ckks/bootstrap_pipeline.h"

#include <cmath>

#include "common/check.h"

namespace cross::ckks {

namespace {

/** 5^j mod 2N: the Galois-element orbit slot rotations live on. */
u32
galoisPow5(u32 j, u32 two_n)
{
    u64 g = 1;
    for (u32 i = 0; i < j; ++i)
        g = (g * 5) % two_n;
    return static_cast<u32>(g);
}

CtVec
uniformBatch(const CkksContext &ctx, size_t batch, size_t limbs,
             double scale, Rng &rng)
{
    CtVec v;
    v.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
        Ciphertext ct;
        ct.c0 = poly::RnsPoly::uniform(ctx.ring(), limbs, true, rng);
        ct.c1 = poly::RnsPoly::uniform(ctx.ring(), limbs, true, rng);
        ct.scale = scale;
        v.push_back(std::move(ct));
    }
    return v;
}

} // namespace

std::unique_ptr<BootstrapPipeline>
BootstrapPipeline::build(const CkksContext &ctx, const BootstrapConfig &cfg,
                         KeyGenerator &keygen, size_t batch, double scale,
                         u64 seed, BootstrapKernelMode mode)
{
    requireThat(batch >= 1, "BootstrapPipeline: need at least one item");
    const CkksParams &p = ctx.params();
    std::unique_ptr<BootstrapPipeline> bp(new BootstrapPipeline);
    bp->ops_ = enumerateBootstrapOps(p, cfg);

    // An actual execution consumes one limb per Rescale unconditionally;
    // the enumerator's level guards (which stop decrementing near the
    // chain bottom) must therefore never have bound, or the enumerated
    // levels are not the levels the evaluator would run at.
    {
        size_t limbs = ctx.qCount();
        for (const auto &bop : bp->ops_) {
            requireThat(bop.level == limbs - 1,
                        "BootstrapPipeline: config level guards bound; "
                        "schedule is not executable at these params "
                        "(lengthen the modulus chain)");
            if (bop.op == HeOp::Rescale)
                --limbs;
        }
    }

    Rng rng(seed);
    bp->input_ = uniformBatch(ctx, batch, ctx.qCount(), scale, rng);

    // BSGS rotation pool: 2 * ceil(sqrt(rho)) distinct Galois elements
    // (the walk's group size), reused by every CtS/StC stage -- at a
    // new level each stage, which is exactly the many-(key, level)
    // working set the LRU residency bound is exercised against.
    const u32 slots = p.n / 2;
    const size_t rho = static_cast<size_t>(std::llround(
        std::pow(static_cast<double>(slots), 1.0 / cfg.ctsLevels)));
    const size_t bsgs = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(rho))));
    std::vector<u32> pool;
    for (size_t j = 1; j <= 2 * bsgs; ++j) {
        const u32 k =
            galoisPow5(static_cast<u32>(j), 2 * ctx.degree());
        pool.push_back(k);
        if (bp->rotKeys_.find(k) == bp->rotKeys_.end())
            bp->rotKeys_.emplace(k, keygen.rotationKey(k));
    }
    bp->relinKey_ = keygen.relinKey();

    // Per-level CtS/StC matrix rows (scale 1: the schedule walk keeps
    // the scale ledger simple; real diagonals would carry the CKKS
    // encoding scale and a rescale right after, same shape).
    bp->matRows_.reserve(ctx.qCount());
    for (size_t l = 0; l < ctx.qCount(); ++l) {
        Plaintext row;
        row.poly = poly::RnsPoly::uniform(ctx.ring(), l + 1, true, rng);
        row.scale = 1.0;
        bp->matRows_.push_back(std::move(row));
    }

    // One pipeline stage per enumerated op, with the scale ledger
    // replaying the evaluator's exact floating-point updates.
    size_t limbs = ctx.qCount();
    double cur = scale;
    size_t rot = 0;
    for (const auto &bop : bp->ops_) {
        // bop.level == limbs - 1, asserted above.
        switch (bop.op) {
          case HeOp::Add:
            bp->rhs_.push_back(
                uniformBatch(ctx, batch, limbs, cur, rng));
            bp->pipeline_.add(bp->rhs_.back());
            break;

          case HeOp::AddPlain: {
            Plaintext pt;
            pt.poly = poly::RnsPoly::uniform(ctx.ring(), limbs, true, rng);
            pt.scale = cur;
            bp->plains_.push_back(std::move(pt));
            bp->pipeline_.addPlain(bp->plains_.back());
            break;
          }

          case HeOp::Mult:
            bp->rhs_.push_back(
                uniformBatch(ctx, batch, limbs, 1.0, rng));
            bp->pipeline_.multiply(bp->rhs_.back(), bp->relinKey_);
            cur = cur * 1.0;
            break;

          case HeOp::MultiplyPlain:
            bp->pipeline_.multiplyPlain(bp->matRows_);
            cur = cur * 1.0;
            break;

          case HeOp::Rescale:
            bp->pipeline_.rescale();
            cur = cur / static_cast<double>(ctx.qModulus(limbs - 1));
            --limbs;
            break;

          case HeOp::Rotate: {
            const u32 k = pool[rot++ % pool.size()];
            bp->pipeline_.rotate(k, bp->rotKeys_.at(k));
            break;
          }

          case HeOp::RotateAccum: {
            // One BSGS group: fanin branches drawn from the rotation
            // pool in order, executed hoisted or per-op by mode.
            std::vector<RotateBranch> branches;
            branches.reserve(bop.fanin);
            for (size_t b = 0; b < bop.fanin; ++b) {
                const u32 k = pool[rot++ % pool.size()];
                branches.push_back({k, &bp->rotKeys_.at(k)});
            }
            if (mode == BootstrapKernelMode::Hoisted)
                bp->pipeline_.rotateHoisted(std::move(branches));
            else
                bp->pipeline_.rotateAccum(std::move(branches));
            break;
          }

          case HeOp::RescaleMulti:
          case HeOp::HoistedRotations:
            internalCheck(false,
                          "BootstrapPipeline: op not emitted by the "
                          "bootstrap walk");
            break;
        }
    }
    return bp;
}

CtVec
BootstrapPipeline::run(const BatchEvaluator &batch) const
{
    return batch.run(input_, pipeline_);
}

CtVec
BootstrapPipeline::runSequential(const CkksContext &ctx,
                                 KernelLog *log) const
{
    return runPipelineSequential(ctx, input_, pipeline_, log);
}

} // namespace cross::ckks
