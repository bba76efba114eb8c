/**
 * @file
 * Tests for the parallel execution layer: the work-stealing-free
 * thread pool, parallelFor, bit-exactness of the parallelised limb
 * loops versus single-threaded execution, and the BatchEvaluator's
 * conformance contract -- batched parallel results and the merged
 * KernelLog must be bit-identical to a sequential run.
 *
 * Thread count comes from CROSS_TEST_THREADS (default 4) so the TSan
 * CI job can run this suite with real concurrency: every assertion
 * here doubles as a data-race probe under -fsanitize=thread.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "ckks/batch_evaluator.h"
#include "ckks/context.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"
#include "ckks/schedule.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "nt/primes.h"
#include "poly/ring.h"
#include "rns/bconv.h"

#include "test_util.h"

namespace cross {
namespace {

using testutil::testThreads;
using testutil::ThreadGuard;

// ---------------------------------------------------------------------
// ThreadPool / parallelFor
// ---------------------------------------------------------------------
TEST(ThreadPool, RunsEveryPartExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(4);
    for (auto &h : hits)
        h = 0;
    pool.run(4, [&](u32 p) { ++hits[p]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(3);
    EXPECT_THROW(pool.run(3,
                          [&](u32 p) {
                              if (p == 2)
                                  throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
    // The pool must survive a failed job.
    std::atomic<int> count{0};
    pool.run(3, [&](u32) { ++count; });
    EXPECT_EQ(count.load(), 3);
}

TEST(ParallelFor, CoversRangeExactlyOnce)
{
    ThreadGuard guard(testThreads());
    std::vector<std::atomic<int>> hits(1000);
    for (auto &h : hits)
        h = 0;
    parallelFor(0, hits.size(), [&](size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ChunksAreContiguousAndDisjoint)
{
    ThreadGuard guard(testThreads());
    std::vector<int> owner(257, -1);
    std::atomic<int> next_chunk{0};
    parallelForRange(0, owner.size(), [&](size_t lo, size_t hi) {
        const int id = next_chunk++;
        for (size_t i = lo; i < hi; ++i) {
            EXPECT_EQ(owner[i], -1);
            owner[i] = id;
        }
    });
    for (int o : owner)
        EXPECT_NE(o, -1);
}

TEST(ParallelFor, NestedCallsExecuteInline)
{
    ThreadGuard guard(testThreads());
    std::atomic<u64> total{0};
    parallelFor(0, 8, [&](size_t) {
        EXPECT_TRUE(globalThreadCount() == 1 || inParallelRegion());
        // Nested parallelFor must not deadlock or double-run.
        u64 local = 0;
        parallelFor(0, 10, [&](size_t j) { local += j; });
        total += local;
    });
    EXPECT_EQ(total.load(), 8u * 45u);
}

TEST(ParallelFor, EmptyAndSingleRanges)
{
    ThreadGuard guard(testThreads());
    int hits = 0;
    parallelFor(5, 5, [&](size_t) { ++hits; });
    EXPECT_EQ(hits, 0);
    parallelFor(7, 8, [&](size_t i) {
        EXPECT_EQ(i, 7u);
        ++hits;
    });
    EXPECT_EQ(hits, 1);
}

// ---------------------------------------------------------------------
// parallelFor2D
// ---------------------------------------------------------------------

/** Mark every (row, inner) cell visited by the tiles; expect each once. */
void
expectFullTiling(size_t rows, size_t inner)
{
    std::vector<std::atomic<int>> hits(rows * inner);
    for (auto &h : hits)
        h = 0;
    parallelFor2D(rows, inner, [&](size_t r, size_t lo, size_t hi) {
        ASSERT_LT(r, rows);
        ASSERT_LE(lo, hi);
        ASSERT_LE(hi, inner);
        for (size_t j = lo; j < hi; ++j)
            ++hits[r * inner + j];
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor2D, TilesCoverEveryCellExactlyOnce)
{
    ThreadGuard guard(testThreads());
    // Fewer rows than threads (the case the 2-D split exists for),
    // more rows than threads, and a degenerate single row.
    expectFullTiling(2, 4096);
    expectFullTiling(testThreads() * 2 + 1, 100);
    expectFullTiling(1, 5000);
}

TEST(ParallelFor2D, EmptyDimensionsRunNothing)
{
    ThreadGuard guard(testThreads());
    int hits = 0;
    parallelFor2D(0, 128, [&](size_t, size_t, size_t) { ++hits; });
    parallelFor2D(3, 0, [&](size_t, size_t lo, size_t hi) {
        EXPECT_EQ(lo, hi);
        ++hits;
    });
    EXPECT_EQ(hits, 0);
}

TEST(ParallelFor2D, RespectsMinInnerChunk)
{
    ThreadGuard guard(testThreads());
    // With inner below minInnerChunk the split must stay row-wise:
    // every row arrives as one whole [0, inner) range.
    std::vector<int> whole(4, 0);
    parallelFor2D(
        4, 64,
        [&](size_t r, size_t lo, size_t hi) {
            EXPECT_EQ(lo, 0u);
            EXPECT_EQ(hi, 64u);
            ++whole[r];
        },
        1024);
    for (int c : whole)
        EXPECT_EQ(c, 1);
}

TEST(ParallelFor2D, MatchesSerialResult)
{
    const size_t rows = 3, inner = 2048;
    std::vector<u32> serial(rows * inner), par(rows * inner);
    for (size_t i = 0; i < serial.size(); ++i)
        serial[i] = static_cast<u32>(i * 2654435761u);
    par = serial;
    auto bump = [](std::vector<u32> &v, size_t r, size_t lo, size_t hi,
                   size_t inner_n) {
        for (size_t j = lo; j < hi; ++j)
            v[r * inner_n + j] += static_cast<u32>(r + 1);
    };
    for (size_t r = 0; r < rows; ++r)
        bump(serial, r, 0, inner, inner);
    ThreadGuard guard(testThreads());
    parallelFor2D(rows, inner, [&](size_t r, size_t lo, size_t hi) {
        bump(par, r, lo, hi, inner);
    });
    EXPECT_EQ(par, serial);
}

TEST(GlobalThreadCount, RoundTrips)
{
    setGlobalThreadCount(3);
    EXPECT_EQ(globalThreadCount(), 3u);
    setGlobalThreadCount(0); // clamped
    EXPECT_EQ(globalThreadCount(), 1u);
    setGlobalThreadCount(1);
}

TEST(GlobalThreadCount, RejectsResizeInsideParallelRegion)
{
    // Resizing from inside a parallelFor body would destroy the pool
    // the body is running on; it must throw instead of corrupting it.
    const u32 threads = std::max(2u, testThreads());
    setGlobalThreadCount(threads);
    const size_t range = static_cast<size_t>(threads) * 4;
    std::atomic<size_t> throws{0};
    parallelFor(0, range, [&](size_t) {
        try {
            setGlobalThreadCount(2);
        } catch (const std::logic_error &) {
            ++throws;
        }
    });
    EXPECT_EQ(throws.load(), range);
    // The pool survived and still works at the original size.
    EXPECT_EQ(globalThreadCount(), threads);
    std::atomic<size_t> hits{0};
    parallelFor(0, range, [&](size_t) { ++hits; });
    EXPECT_EQ(hits.load(), range);
    setGlobalThreadCount(1);
}

TEST(GlobalThreadCount, RejectsResizeWhileJobActiveOnAnotherThread)
{
    const u32 threads = std::max(2u, testThreads());
    setGlobalThreadCount(threads);

    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    std::atomic<int> caught{0};

    std::thread resizer([&] {
        while (!started.load())
            std::this_thread::yield();
        try {
            setGlobalThreadCount(2);
        } catch (const std::logic_error &) {
            ++caught;
        }
        release.store(true);
    });

    parallelFor(0, 2, [&](size_t i) {
        if (i == 0) {
            started.store(true);
            while (!release.load())
                std::this_thread::yield();
        }
    });
    resizer.join();
    EXPECT_EQ(caught.load(), 1);
    setGlobalThreadCount(1);
}

// ---------------------------------------------------------------------
// Parallel limb loops are bit-identical to threads=1
// ---------------------------------------------------------------------
TEST(ParallelExactness, RnsPolyOpsMatchSingleThread)
{
    poly::Ring ring(256, nt::generateNttPrimes(28, 6, 512));

    auto run_all = [&](u32 threads) {
        setGlobalThreadCount(threads);
        Rng rng(42);
        auto a = poly::RnsPoly::uniform(ring, 6, false, rng);
        auto b = poly::RnsPoly::uniform(ring, 6, false, rng);
        a.toEval();
        b.toEval();
        auto m = a;
        m.mulPointwiseInPlace(b);
        m.addInPlace(b);
        m.subInPlace(a);
        m = m.automorphism(5);
        m.mulConstantInPlace(7);
        m.toCoeff();
        m = m.automorphism(5);
        m.negateInPlace();
        return m;
    };

    const auto seq = run_all(1);
    const auto par = run_all(testThreads());
    setGlobalThreadCount(1);
    EXPECT_TRUE(seq == par);
}

TEST(ParallelExactness, BConvMatchesSingleThread)
{
    const auto q = nt::generateNttPrimes(28, 5, 2048);
    const auto p = nt::generateNttPrimesAvoiding(29, 3, 2048, q);
    rns::BasisConversion conv{rns::RnsBasis(q), rns::RnsBasis(p)};

    // Long enough (3 x 4096 coefficients) that parallelFor2D splits the
    // conversion into tiles.
    const size_t n = 4096;
    rns::LimbMatrix in(q.size());
    Rng rng(7);
    for (size_t i = 0; i < in.size(); ++i) {
        in[i].resize(n);
        for (auto &x : in[i])
            x = static_cast<u32>(rng.uniform(q[i]));
    }

    setGlobalThreadCount(1);
    rns::LimbMatrix seq;
    conv.apply(in, seq);

    // The pointer form at 1 and testThreads() threads, reading the
    // source limbs in place and writing one contiguous target buffer.
    std::vector<const u32 *> in_ptrs(in.size());
    for (size_t i = 0; i < in.size(); ++i)
        in_ptrs[i] = in[i].data();
    const auto run_ptr = [&] {
        std::vector<u32> buf(p.size() * n);
        std::vector<u32 *> out_ptrs(p.size());
        for (size_t j = 0; j < p.size(); ++j)
            out_ptrs[j] = buf.data() + j * n;
        conv.apply(in_ptrs.data(), out_ptrs.data(), n);
        rns::LimbMatrix m(p.size());
        for (size_t j = 0; j < p.size(); ++j)
            m[j].assign(out_ptrs[j], out_ptrs[j] + n);
        return m;
    };
    EXPECT_EQ(run_ptr(), seq);
    {
        ThreadGuard guard(testThreads());
        rns::LimbMatrix par;
        conv.apply(in, par);
        EXPECT_EQ(par, seq);
        EXPECT_EQ(run_ptr(), seq);
    }
}

// ---------------------------------------------------------------------
// BatchEvaluator conformance
// ---------------------------------------------------------------------
class BatchConformance : public ::testing::Test
{
  protected:
    static constexpr double kScale = 1 << 26;

    BatchConformance()
        : ctx(ckks::CkksParams::testSet(1 << 9, 5, 2)), encoder(ctx),
          keygen(ctx, 42), encryptor(ctx, keygen.publicKey(), 43)
    {
    }

    ~BatchConformance() override { setGlobalThreadCount(1); }

    std::vector<ckks::Ciphertext>
    encryptBatch(size_t count, u64 seed)
    {
        Rng rng(seed);
        std::vector<ckks::Ciphertext> cts;
        for (size_t i = 0; i < count; ++i) {
            std::vector<ckks::Complex> v(encoder.slotCount());
            for (auto &x : v)
                x = ckks::Complex(rng.real() * 2 - 1, rng.real() * 2 - 1);
            cts.push_back(encryptor.encrypt(
                encoder.encode(v, kScale, ctx.qCount())));
        }
        return cts;
    }

    static void
    expectEqual(const std::vector<ckks::Ciphertext> &a,
                const std::vector<ckks::Ciphertext> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_TRUE(a[i].c0 == b[i].c0) << "item " << i;
            EXPECT_TRUE(a[i].c1 == b[i].c1) << "item " << i;
            EXPECT_DOUBLE_EQ(a[i].scale, b[i].scale) << "item " << i;
        }
    }

    static void
    expectSameLog(const ckks::KernelLog &got, const ckks::KernelLog &want)
    {
        ASSERT_EQ(got.calls().size(), want.calls().size());
        for (size_t i = 0; i < got.calls().size(); ++i) {
            EXPECT_TRUE(got.calls()[i].sameShape(want.calls()[i]))
                << "call " << i;
        }
    }

    ckks::CkksContext ctx;
    ckks::CkksEncoder encoder;
    ckks::KeyGenerator keygen;
    ckks::CkksEncryptor encryptor;
};

TEST_F(BatchConformance, MultiplyMatchesSequentialBitExactly)
{
    const auto rlk = keygen.relinKey();
    const auto a = encryptBatch(6, 1);
    const auto b = encryptBatch(6, 2);

    // Sequential reference: threads=1, plain evaluator loop.
    setGlobalThreadCount(1);
    ckks::KernelLog seq_log;
    ckks::CkksEvaluator seq_ev(ctx, &seq_log);
    std::vector<ckks::Ciphertext> seq;
    for (size_t i = 0; i < a.size(); ++i)
        seq.push_back(seq_ev.multiply(a[i], b[i], rlk));

    // Parallel batched run: a one-stage pipeline.
    ckks::Pipeline mult;
    mult.multiply(b, rlk);
    ThreadGuard guard(testThreads());
    ckks::KernelLog par_log;
    ckks::BatchEvaluator batch(ctx, &par_log);
    const auto par = batch.run(a, mult);

    expectEqual(par, seq);
    expectSameLog(par_log, seq_log);
}

TEST_F(BatchConformance, AddRescaleRotateMatchSequential)
{
    const auto a = encryptBatch(5, 3);
    const auto b = encryptBatch(5, 4);
    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);

    setGlobalThreadCount(1);
    ckks::KernelLog seq_log;
    ckks::CkksEvaluator seq_ev(ctx, &seq_log);
    std::vector<ckks::Ciphertext> seq_add, seq_rs, seq_rot;
    for (size_t i = 0; i < a.size(); ++i)
        seq_add.push_back(seq_ev.add(a[i], b[i]));
    for (size_t i = 0; i < a.size(); ++i)
        seq_rs.push_back(seq_ev.rescale(a[i]));
    for (size_t i = 0; i < a.size(); ++i)
        seq_rot.push_back(seq_ev.rotate(a[i], k, rot_key));

    ckks::Pipeline add, rescale, rotate;
    add.add(b);
    rescale.rescale();
    rotate.rotate(k, rot_key);
    ThreadGuard guard(testThreads());
    ckks::KernelLog par_log;
    ckks::BatchEvaluator batch(ctx, &par_log);
    const auto par_add = batch.run(a, add);
    const auto par_rs = batch.run(a, rescale);
    const auto par_rot = batch.run(a, rotate);

    expectEqual(par_add, seq_add);
    expectEqual(par_rs, seq_rs);
    expectEqual(par_rot, seq_rot);
    expectSameLog(par_log, seq_log);
}

TEST_F(BatchConformance, MixedLevelsShareOnePrecompPerLevel)
{
    const auto rlk = keygen.relinKey();
    auto a = encryptBatch(4, 5);
    auto b = encryptBatch(4, 6);
    // Drop two items one level down: the batch spans two levels.
    setGlobalThreadCount(1);
    ckks::CkksEvaluator ev(ctx);
    for (size_t i = 0; i < 2; ++i) {
        a[i] = ev.rescale(a[i]);
        b[i] = ev.rescale(b[i]);
    }

    std::vector<ckks::Ciphertext> seq;
    for (size_t i = 0; i < a.size(); ++i)
        seq.push_back(ev.multiply(a[i], b[i], rlk));

    ckks::Pipeline mult;
    mult.multiply(b, rlk);
    ThreadGuard guard(testThreads());
    ckks::BatchEvaluator batch(ctx);
    expectEqual(batch.run(a, mult), seq);
}

TEST_F(BatchConformance, PrecomputedKeySwitchEqualsDirect)
{
    const auto rlk = keygen.relinKey();
    const auto a = encryptBatch(1, 7)[0];
    setGlobalThreadCount(1);
    ckks::CkksEvaluator ev(ctx);
    const auto direct = ev.multiply(a, a, rlk);
    const auto pre =
        ev.precomputeKeySwitch(rlk, a.limbs() - 1);
    const auto via_pre = ev.multiply(a, a, pre);
    EXPECT_TRUE(direct.c0 == via_pre.c0);
    EXPECT_TRUE(direct.c1 == via_pre.c1);
}

TEST_F(BatchConformance, EmptyBatchIsANoOp)
{
    const std::vector<ckks::Ciphertext> none;
    ckks::Pipeline rescale, add;
    rescale.rescale();
    add.add(none);
    ThreadGuard guard(testThreads());
    ckks::KernelLog log;
    ckks::BatchEvaluator batch(ctx, &log);
    EXPECT_TRUE(batch.run(none, rescale).empty());
    EXPECT_TRUE(batch.run(none, add).empty());
    EXPECT_TRUE(log.calls().empty());
}

} // namespace
} // namespace cross
