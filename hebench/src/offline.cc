/**
 * @file
 * The offline phase (offline.h). Each throughput is reported from the
 * median repetition at the reference speed (harness.h). Every
 * repetition's output is compared bit for bit with a reference
 * computed before the timed region: the one-shot
 * SwitchKey evaluator paths, the sequential item-by-item loop,
 * BootstrapPipeline::runSequential, the radix-2 NTT, and for BFV the
 * first product, which must decrypt to a * b mod t.
 */
#include "offline.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

#include "bfv/bfv.h"
#include "ckks/batch_evaluator.h"
#include "ckks/bootstrap_pipeline.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "cross/cross_ntt.h"
#include "nt/primes.h"
#include "poly/ntt_ct.h"

namespace hebench {

using namespace cross;
using namespace cross::ckks;

namespace {

constexpr size_t kBatch = 16;
constexpr u32 kCrossN = 1u << 14;
constexpr u32 kCrossRows = 128;
/** CROSS NTTs per short repetition. The CROSS NTT is the cheapest
 *  operation and the one the host's cache contention moves most, so it
 *  gets more samples. */
constexpr int kCrossPerShort = 3;

/** Reduced bootstrap schedule that fits the Set C chain (15 limbs). */
BootstrapConfig
bootConfig()
{
    BootstrapConfig cfg;
    cfg.ctsLevels = 2;
    cfg.stcLevels = 2;
    cfg.evalModDegree = 4;
    cfg.evalModIters = 1;
    cfg.plainMatrices = true;
    return cfg;
}

bool
sameCiphertexts(const CtVec &a, const CtVec &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (!sameCiphertext(a[i], b[i]))
            return false;
    return true;
}

/** Time one call of @p fn into @p samples; @p check runs untimed. */
template <typename Fn, typename Check>
void
timeOnce(Timed &samples, Fn &&fn, Check &&check)
{
    check(samples.time(fn));
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s;
}

/** ckks.kernel_s.*: the seconds @p log attributes to each kernel
 *  family, times @p per. VecModMulConst counts as vecmodmul and
 *  VecModSub as vecmodadd. */
void
addKernelSeconds(RunResult &out, const KernelLog &log, double per)
{
    double ntt = 0, intt = 0, bconv = 0, mul = 0, add = 0, aut = 0;
    for (const auto &c : log.calls()) {
        switch (c.kind) {
          case KernelKind::Ntt: ntt += c.seconds; break;
          case KernelKind::Intt: intt += c.seconds; break;
          case KernelKind::BConv: bconv += c.seconds; break;
          case KernelKind::VecModMul:
          case KernelKind::VecModMulConst: mul += c.seconds; break;
          case KernelKind::VecModAdd:
          case KernelKind::VecModSub: add += c.seconds; break;
          case KernelKind::Automorphism: aut += c.seconds; break;
        }
    }
    out.add("ckks.kernel_s.ntt", ntt * per, "s");
    out.add("ckks.kernel_s.intt", intt * per, "s");
    out.add("ckks.kernel_s.bconv", bconv * per, "s");
    out.add("ckks.kernel_s.vecmodmul", mul * per, "s");
    out.add("ckks.kernel_s.vecmodadd", add * per, "s");
    out.add("ckks.kernel_s.automorphism", aut * per, "s");
}

} // namespace

struct OfflinePhase::State
{
    std::unique_ptr<CkksContext> ctx;
    std::unique_ptr<CkksEncoder> encoder;
    std::unique_ptr<KeyGenerator> keygen;
    SwitchKey relin;
    SwitchKey rot;
    u32 rot1 = 0;
    std::vector<std::vector<double>> vals; ///< slot values of in[i]
    CtVec in;
    CtVec rhs; ///< rhs[i] = in[(i + 1) % kBatch]
    Pipeline pipe;
    std::unique_ptr<BootstrapPipeline> boot;

    std::unique_ptr<bfv::BfvContext> bctx;
    std::unique_ptr<bfv::BfvEncoder> benc;
    std::unique_ptr<bfv::BfvKeyGenerator> bkeygen;
    bfv::BfvSwitchKey brlk;
    std::vector<u64> bva, bvb;
    bfv::BfvCiphertext bca, bcb;

    std::unique_ptr<poly::NttTables> tab;
    std::unique_ptr<CrossNttPlan> plan;
    std::vector<u32> nttIn;

    /** @name References (prepare()). @{ */
    Ciphertext refMult, refRot;
    CtVec refBatch, refBoot;
    bfv::BfvCiphertext refBfv;
    std::vector<u32> refNtt;
    /** @} */

    /** @name Timed rounds (run()). @{ */
    Timed mult, rotate, batch, bootstrap, bfv, crossNtt;
    /** Traced runs: the repetitions through the logged evaluator. */
    Timed multLogged, rotateLogged;
    KernelLog opLog, bootLog, bfvLog;
    double modupMs = 0.0, innerMs = 0.0;
    double parallelMs[2] = {0.0, 0.0}; ///< at 1 and at nproc threads
    /** @} */
};

OfflinePhase::OfflinePhase(std::uint64_t seed) : s_(std::make_unique<State>())
{
    State &s = *s_;
    s.ctx = std::make_unique<CkksContext>(CkksParams::paperSet('C'));
    const CkksContext &ctx = *s.ctx;
    s.encoder = std::make_unique<CkksEncoder>(ctx);
    s.keygen = std::make_unique<KeyGenerator>(ctx, seed ^ 0x0ff1);
    CkksEncryptor enc(ctx, s.keygen->publicKey(), seed ^ 0x0ff2);
    s.relin = s.keygen->relinKey();
    s.rot1 = s.encoder->rotationAutomorphism(1);
    s.rot = s.keygen->rotationKey(s.rot1);

    Rng rng(seed ^ 0x0ff3);
    const size_t slots = s.encoder->slotCount();
    for (size_t i = 0; i < kBatch; ++i) {
        std::vector<double> v(slots);
        for (auto &x : v)
            x = 2.0 * rng.real() - 1.0;
        s.in.push_back(
            enc.encrypt(s.encoder->encodeReal(v, kScale, ctx.qCount())));
        s.vals.push_back(std::move(v));
    }
    for (size_t i = 0; i < kBatch; ++i)
        s.rhs.push_back(s.in[(i + 1) % kBatch]);
    s.pipe.multiply(s.rhs, s.relin).rescale().rotate(s.rot1, s.rot);
    s.boot = BootstrapPipeline::build(ctx, bootConfig(), *s.keygen, 1, kScale,
                                      seed ^ 0x0ff4,
                                      BootstrapKernelMode::Hoisted);

    s.bctx = std::make_unique<bfv::BfvContext>(
        bfv::BfvParams::testSet(1 << 13, 8, 17));
    s.benc = std::make_unique<bfv::BfvEncoder>(*s.bctx);
    s.bkeygen = std::make_unique<bfv::BfvKeyGenerator>(*s.bctx, seed ^ 0x0ff5);
    const auto bpk = s.bkeygen->publicKey();
    s.brlk = s.bkeygen->relinKey();
    const u32 t = s.bctx->plainModulus();
    s.bva.resize(s.bctx->degree());
    s.bvb.resize(s.bctx->degree());
    for (size_t i = 0; i < s.bva.size(); ++i) {
        s.bva[i] = rng.uniform(t);
        s.bvb[i] = rng.uniform(t);
    }
    const bfv::BfvEvaluator bev(*s.bctx);
    s.bca = bev.encrypt(s.benc->encode(s.bva), bpk, rng);
    s.bcb = bev.encrypt(s.benc->encode(s.bvb), bpk, rng);

    s.tab = std::make_unique<poly::NttTables>(
        kCrossN,
        static_cast<u32>(nt::generateNttPrimes(28, 1, 2ULL * kCrossN)[0]));
    s.plan = std::make_unique<CrossNttPlan>(*s.tab, kCrossRows);
    s.nttIn.resize(kCrossN);
    for (auto &x : s.nttIn)
        x = static_cast<u32>(rng.uniform(s.tab->modulus()));

    // Warm-up: every (key, level) precomp the timed rounds read.
    const CkksEvaluator ev(ctx);
    const size_t top = ctx.qCount() - 1;
    (void)ev.precomputeKeySwitchCached(s.relin, top);
    (void)ev.precomputeKeySwitchCached(s.rot, top);
    (void)ev.precomputeKeySwitchCached(s.rot, top - 1);
    const auto &stages = s.boot->pipeline().stages();
    const auto &ops = s.boot->ops();
    for (size_t i = 0; i < stages.size(); ++i) {
        if (stages[i].key)
            (void)ev.precomputeKeySwitchCached(*stages[i].key, ops[i].level);
        for (const auto &b : stages[i].branches)
            (void)ev.precomputeKeySwitchCached(*b.key, ops[i].level);
    }
}

OfflinePhase::~OfflinePhase() = default;

void
OfflinePhase::prepare(Precision &prec)
{
    State &s = *s_;
    const CkksContext &ctx = *s.ctx;
    const CkksEvaluator ev(ctx);
    s.refMult = ev.multiply(s.in[0], s.in[1], s.relin);
    s.refRot = ev.rotate(s.in[0], s.rot1, s.rot);
    for (size_t i = 0; i < kBatch; ++i)
        s.refBatch.push_back(
            ev.rotate(ev.rescale(ev.multiply(s.in[i], s.rhs[i], s.relin)),
                      s.rot1, s.rot));
    s.refBoot = s.boot->runSequential(ctx, nullptr);

    const bfv::BfvEvaluator bev(*s.bctx);
    s.refBfv = bev.multiply(s.bca, s.bcb, s.brlk);
    const u32 t = s.bctx->plainModulus();
    const auto dec =
        s.benc->decode(bev.decrypt(s.refBfv, s.bkeygen->secretKey()));
    for (size_t i = 0; i < dec.size(); ++i)
        require(dec[i] == s.bva[i] * s.bvb[i] % t,
                "offline: BFV Dec(a * b) != a * b mod t");

    s.refNtt = s.nttIn;
    poly::forwardInPlace(s.refNtt.data(), *s.tab);

    // Precision of the CKKS references against float64 slot values.
    CkksDecryptor decryptor(ctx, s.keygen->secretKey());
    const size_t slots = s.encoder->slotCount();
    auto check = [&](const Ciphertext &ct, auto &&want_at) {
        std::vector<double> want(slots);
        for (size_t j = 0; j < slots; ++j)
            want[j] = want_at(j);
        prec.add(s.encoder->decode(decryptor.decrypt(ct)), want);
    };
    check(s.refMult, [&](size_t j) { return s.vals[0][j] * s.vals[1][j]; });
    check(s.refRot, [&](size_t j) { return s.vals[0][(j + 1) % slots]; });
    for (size_t i = 0; i < kBatch; ++i)
        check(s.refBatch[i], [&](size_t j) {
            const size_t k = (j + 1) % slots;
            return s.vals[i][k] * s.vals[(i + 1) % kBatch][k];
        });
}

void
OfflinePhase::run(double seconds, bool trace)
{
    State &s = *s_;
    const CkksContext &ctx = *s.ctx;
    const CkksEvaluator plain(ctx);
    const CkksEvaluator logged(ctx, &s.opLog);
    const BatchEvaluator batch(ctx);
    const BatchEvaluator boot_batch(ctx, trace ? &s.bootLog : nullptr);
    const bfv::BfvEvaluator bev(*s.bctx, trace ? &s.bfvLog : nullptr);
    const size_t top = ctx.qCount() - 1;
    const KeySwitchPrecomp &relin_pre =
        plain.precomputeKeySwitchCached(s.relin, top);
    const KeySwitchPrecomp &rot_pre =
        plain.precomputeKeySwitchCached(s.rot, top);

    // A traced run alternates Mult & Relin and Rotate repetitions
    // between the logged and the plain evaluator: the logged ones feed
    // the kernel attribution, and the gap between the two is the
    // tracing overhead.
    int short_reps = 0;
    auto run_short = [&] {
        const bool log = trace && short_reps++ % 2 == 1;
        const CkksEvaluator &ev = log ? logged : plain;
        timeOnce(
            log ? s.multLogged : s.mult,
            [&] { return ev.multiply(s.in[0], s.in[1], relin_pre); },
            [&](const Ciphertext &c) {
                require(sameCiphertext(c, s.refMult),
                        "offline: Mult & Relin differs from the SwitchKey "
                        "reference");
            });
        timeOnce(
            log ? s.rotateLogged : s.rotate,
            [&] { return ev.rotate(s.in[0], s.rot1, rot_pre); },
            [&](const Ciphertext &c) {
                require(sameCiphertext(c, s.refRot),
                        "offline: Rotate differs from the SwitchKey "
                        "reference");
            });
        for (int r = 0; r < kCrossPerShort; ++r)
            timeOnce(
                s.crossNtt, [&] { return s.plan->forward(s.nttIn); },
                [&](const std::vector<u32> &c) {
                    require(c == s.refNtt, "offline: CROSS NTT differs from "
                                           "the radix-2 reference");
                });
    };
    const std::function<void()> run_long[3] = {
        [&] {
            timeOnce(
                s.batch, [&] { return batch.run(s.in, s.pipe); },
                [&](const CtVec &c) {
                    require(sameCiphertexts(c, s.refBatch),
                            "offline: fused batch differs from the "
                            "sequential loop");
                });
        },
        [&] {
            timeOnce(
                s.bootstrap, [&] { return s.boot->run(boot_batch); },
                [&](const CtVec &c) {
                    require(sameCiphertexts(c, s.refBoot),
                            "offline: fused bootstrap differs from "
                            "runSequential");
                });
        },
        [&] {
            timeOnce(
                s.bfv, [&] { return bev.multiply(s.bca, s.bcb, s.brlk); },
                [&](const bfv::BfvCiphertext &c) {
                    require(c.c0 == s.refBfv.c0 && c.c1 == s.refBfv.c1,
                            "offline: BFV Mult & Relin differs from the "
                            "reference");
                });
        },
    };

    // Rounds of every operation until the time is spent, so each
    // operation samples the whole phase rather than one stretch of it;
    // within a round the short operations run between the long ones.
    // The fastest CPU changes from second to second, so it is chosen
    // again before every block.
    const auto start = Clock::now();
    do {
        for (const auto &long_op : run_long) {
            repinToFastestCpu();
            run_short();
            repinToFastestCpu();
            long_op();
        }
    } while (secondsBetween(start, Clock::now()) < seconds);
    std::printf("offline: %zu rounds in %.1f s  (Set C Mult & Relin %.1f ms, "
                "bootstrap %.0f ms; at the reference speed %.1f ms, "
                "%.0f ms)\n",
                s.batch.size(), secondsBetween(start, Clock::now()),
                median(s.mult.s) * 1e3, median(s.bootstrap.s) * 1e3,
                s.mult.atReference() * 1e3,
                s.bootstrap.atReference() * 1e3);
    if (!trace)
        return;

    // Key-switch phases of one Set C rotation at the top level.
    HoistedDecomp dec;
    s.modupMs = medianSeconds(15, [&] {
                    dec = plain.hoistedModUp(s.in[0].c1);
                }) * 1e3;
    Ciphertext rotated;
    s.innerMs = medianSeconds(15, [&] {
                    rotated = plain.applyHoistedRotation(s.in[0], dec,
                                                         s.rot1, rot_pre);
                }) * 1e3;
    require(sameCiphertext(rotated, s.refRot),
            "offline: hoisted rotation differs from the reference");

    // common.parallel: the same Mult & Relin on the pool at one thread
    // and at nproc threads, interleaved. Every other measurement runs
    // at one pool thread on one pinned CPU, so the pool and the 2-D
    // tiling are timed here only, with the pinning lifted.
    const u32 threads_before = globalThreadCount();
    const u32 hw = std::max(1u, std::thread::hardware_concurrency());
    unpinAll();
    std::vector<double> t1, tn;
    for (int r = 0; r < 5; ++r) {
        for (const u32 n : {1u, hw}) {
            setGlobalThreadCount(n);
            const auto t0 = Clock::now();
            const Ciphertext c = plain.multiply(s.in[0], s.in[1], relin_pre);
            (n == 1 ? t1 : tn).push_back(secondsBetween(t0, Clock::now()));
            require(sameCiphertext(c, s.refMult),
                    "offline: Mult & Relin at " + std::to_string(n) +
                        " threads differs from the reference");
        }
    }
    setGlobalThreadCount(threads_before);
    repinToFastestCpu();
    s.parallelMs[0] = median(t1) * 1e3;
    s.parallelMs[1] = median(tn) * 1e3;
    std::printf("parallel: Set C Mult & Relin %.1f ms at 1 thread, %.1f ms "
                "at %u threads\n",
                s.parallelMs[0], s.parallelMs[1], hw);
}

std::uint64_t
OfflinePhase::attempted() const
{
    const State &s = *s_;
    return s.mult.size() + s.multLogged.size() + s.rotate.size() +
           s.rotateLogged.size() + s.batch.size() * kBatch +
           s.bootstrap.size() + s.bfv.size() + s.crossNtt.size();
}

void
OfflinePhase::addEndToEnd(RunResult &out) const
{
    const State &s = *s_;
    out.add("mult_relin_per_s", 1.0 / s.mult.atReference(), "1/s");
    out.add("rotate_per_s", 1.0 / s.rotate.atReference(), "1/s");
    out.add("batch_items_per_s", kBatch / s.batch.atReference(), "1/s");
    out.add("bootstrap_per_s", 1.0 / s.bootstrap.atReference(), "1/s");
    out.add("bfv_mult_per_s", 1.0 / s.bfv.atReference(), "1/s");
    out.add("cross_ntt_per_s", 1.0 / s.crossNtt.atReference(), "1/s");
}

void
OfflinePhase::addPerLayer(RunResult &out) const
{
    const State &s = *s_;
    // Kernel seconds per HE op over the logged Mult & Relin and Rotate
    // repetitions.
    addKernelSeconds(out, s.opLog,
                     1.0 / static_cast<double>(s.multLogged.size() +
                                               s.rotateLogged.size()));
    out.add("ckks.kernel_coverage",
            s.opLog.totalSeconds() /
                (sum(s.multLogged.s) + sum(s.rotateLogged.s)),
            "ratio");
    out.add("ckks.keyswitch.modup_ms", s.modupMs, "ms");
    out.add("ckks.keyswitch.inner_ms", s.innerMs, "ms");
    out.add("ckks.hoisted_saves",
            static_cast<double>(s.bootLog.hoistedModUpSaves()) /
                static_cast<double>(s.bootstrap.size()),
            "count");
    out.add("cross.ntt_us", s.crossNtt.atReference() * 1e6, "us");

    // The BigUInt t/Q scale-down is logged as the BConv call from
    // 3 x |Q u B| limbs to 3 x |Q| limbs.
    const u32 scaled_limbs = static_cast<u32>(3 * s.bctx->qCount());
    double scale_down = 0.0;
    for (const auto &c : s.bfvLog.calls())
        if (c.kind == KernelKind::BConv && c.limbsOut == scaled_limbs)
            scale_down += c.seconds;
    out.add("bfv.scale_down_frac", scale_down / sum(s.bfv.s), "ratio");
    out.add("trace.overhead_frac",
            (s.multLogged.atReference() + s.rotateLogged.atReference()) /
                    (s.mult.atReference() + s.rotate.atReference()) -
                1.0,
            "ratio");
    out.add("common.parallel.mult_relin_ms.t1", s.parallelMs[0], "ms");
    out.add("common.parallel.mult_relin_ms.nproc", s.parallelMs[1], "ms");
    out.add("common.parallel.speedup", s.parallelMs[0] / s.parallelMs[1],
            "ratio");
}

} // namespace hebench
