/**
 * @file
 * Tests for batch-level operator fusion and key-switch key residency:
 * BatchEvaluator::run(Pipeline) must be bit-identical (results and
 * merged KernelLog) to looping CkksEvaluator item-by-item through the
 * stages at any thread count, while building each (key, level)
 * KeySwitchPrecomp exactly once per context -- asserted via the
 * KeySwitchCache hit/miss counters. Also covers mixed-level batches
 * picking the per-item level precomp, the pipeline schedule
 * enumerator, id-keyed cache identity and invalidation, precomps that
 * stay valid in a holder's hands after the cache drops them, and
 * concurrent cache access from independent application threads.
 *
 * Thread count comes from CROSS_TEST_THREADS (default 4) so the TSan
 * CI job (ctest -L fusion) exercises the residency cache's concurrent
 * reads with real concurrency.
 */
#include <gtest/gtest.h>

#include <cstdlib>
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

#include "test_util.h"

namespace cross::ckks {
namespace {

using testutil::testThreads;

class FusionFixture : public ::testing::Test
{
  protected:
    static constexpr double kScale = 1 << 26;

    explicit FusionFixture(
        const CkksParams &params = CkksParams::testSet(1 << 9, 5, 2))
        : ctx(params), encoder(ctx), keygen(ctx, 0xf5),
          encryptor(ctx, keygen.publicKey(), 0xf6)
    {
    }

    ~FusionFixture() override { setGlobalThreadCount(1); }

    CtVec
    encryptBatch(size_t count, u64 seed)
    {
        Rng rng(seed);
        CtVec cts;
        for (size_t i = 0; i < count; ++i) {
            std::vector<Complex> v(encoder.slotCount());
            for (auto &x : v)
                x = Complex(rng.real() * 2 - 1, rng.real() * 2 - 1);
            cts.push_back(encryptor.encrypt(
                encoder.encode(v, kScale, ctx.qCount())));
        }
        return cts;
    }

    static void
    expectEqual(const CtVec &a, const CtVec &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_TRUE(a[i].c0 == b[i].c0) << "item " << i;
            EXPECT_TRUE(a[i].c1 == b[i].c1) << "item " << i;
            EXPECT_DOUBLE_EQ(a[i].scale, b[i].scale) << "item " << i;
        }
    }

    static void
    expectSameLog(const KernelLog &got, const KernelLog &want)
    {
        ASSERT_EQ(got.calls().size(), want.calls().size());
        for (size_t i = 0; i < got.calls().size(); ++i) {
            EXPECT_TRUE(got.calls()[i].sameShape(want.calls()[i]))
                << "call " << i << ": got "
                << kernelKindName(got.calls()[i].kind) << "("
                << got.calls()[i].limbs << "->"
                << got.calls()[i].limbsOut << "), want "
                << kernelKindName(want.calls()[i].kind) << "("
                << want.calls()[i].limbs << "->"
                << want.calls()[i].limbsOut << ")";
        }
    }

    /** Sequential reference: item-by-item, stage-by-stage, threads=1,
     *  using the one-shot SwitchKey paths (no cache involvement). */
    CtVec
    sequentialPipeline(const CtVec &input, const CtVec &b,
                       const SwitchKey &rlk, u32 k,
                       const SwitchKey &rot_key, KernelLog *log)
    {
        setGlobalThreadCount(1);
        CkksEvaluator ev(ctx, log);
        CtVec out;
        out.reserve(input.size());
        for (size_t i = 0; i < input.size(); ++i) {
            Ciphertext cur = ev.multiply(input[i], b[i], rlk);
            cur = ev.rescale(cur);
            cur = ev.rotate(cur, k, rot_key);
            out.push_back(cur);
        }
        return out;
    }

    CkksContext ctx;
    CkksEncoder encoder;
    KeyGenerator keygen;
    CkksEncryptor encryptor;
};

// ---------------------------------------------------------------------
// Fused pipeline conformance (the acceptance criterion)
// ---------------------------------------------------------------------
TEST_F(FusionFixture, PipelineMatchesSequentialBitExactlyAtAnyThreadCount)
{
    const auto rlk = keygen.relinKey();
    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);
    const auto a = encryptBatch(8, 1);
    const auto b = encryptBatch(8, 2);

    KernelLog seq_log;
    const auto seq = sequentialPipeline(a, b, rlk, k, rot_key, &seq_log);

    Pipeline p;
    p.multiply(b, rlk).rescale().rotate(k, rot_key);

    auto &cache = ctx.keySwitchCache();
    cache.clear();
    cache.resetStats();

    for (u32 threads : {1u, testThreads()}) {
        setGlobalThreadCount(threads);
        KernelLog par_log;
        BatchEvaluator batch(ctx, &par_log);
        const auto fused = batch.run(a, p);
        expectEqual(fused, seq);
        expectSameLog(par_log, seq_log);
    }
    setGlobalThreadCount(1);

    // Key-switch key residency: the pipeline needs (rlk, top level) and
    // (rot_key, top level - 1); each was built exactly once for the
    // whole test -- the second thread-count run was served entirely
    // from resident entries, one lookup per (key, level) per run,
    // whatever the batch size.
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST_F(FusionFixture, PipelineLogMatchesScheduleEnumerator)
{
    const auto rlk = keygen.relinKey();
    const u32 k = encoder.rotationAutomorphism(2);
    const auto rot_key = keygen.rotationKey(k);
    const size_t count = 3;
    const auto a = encryptBatch(count, 3);
    const auto b = encryptBatch(count, 4);

    Pipeline p;
    p.add(b).multiply(b, rlk).rescale().rotate(k, rot_key);

    setGlobalThreadCount(1);
    KernelLog log;
    BatchEvaluator batch(ctx, &log);
    (void)batch.run(a, p);

    // The merged log is `count` copies of the per-item pipeline
    // schedule, starting at the top level.
    const auto predicted =
        enumerateKernels(p.pipelineOps(), ctx.params(), ctx.qCount() - 1);
    ASSERT_EQ(log.calls().size(), count * predicted.size());
    for (size_t i = 0; i < count; ++i) {
        for (size_t j = 0; j < predicted.size(); ++j) {
            EXPECT_TRUE(log.calls()[i * predicted.size() + j].sameShape(
                predicted[j]))
                << "item " << i << " kernel " << j;
        }
    }
}

TEST_F(FusionFixture, MixedLevelPipelinePicksPerItemPrecomp)
{
    const auto rlk = keygen.relinKey();
    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);
    auto a = encryptBatch(6, 5);
    auto b = encryptBatch(6, 6);
    setGlobalThreadCount(1);
    CkksEvaluator ev(ctx);
    // Three items one level down: the pipeline spans two start levels.
    for (size_t i = 0; i < 3; ++i) {
        a[i] = ev.rescale(a[i]);
        b[i] = ev.rescale(b[i]);
    }

    const auto seq = sequentialPipeline(a, b, rlk, k, rot_key, nullptr);

    Pipeline p;
    p.multiply(b, rlk).rescale().rotate(k, rot_key);

    auto &cache = ctx.keySwitchCache();
    cache.clear();
    cache.resetStats();
    for (u32 threads : {1u, 4u}) {
        setGlobalThreadCount(threads);
        BatchEvaluator batch(ctx);
        expectEqual(batch.run(a, p), seq);
    }
    setGlobalThreadCount(1);
    // Two start levels x two keys = four distinct precomps, once each.
    EXPECT_EQ(cache.misses(), 4u);
}

// ---------------------------------------------------------------------
// Mixed-level batches through one-stage pipelines
// ---------------------------------------------------------------------
TEST_F(FusionFixture, MixedLevelBatchMultiplyMatchesSequential)
{
    const auto rlk = keygen.relinKey();
    auto a = encryptBatch(5, 7);
    auto b = encryptBatch(5, 8);
    setGlobalThreadCount(1);
    CkksEvaluator ev(ctx);
    a[1] = ev.rescale(a[1]);
    b[1] = ev.rescale(b[1]);
    a[3] = ev.rescale(ev.rescale(a[3]));
    b[3] = ev.rescale(ev.rescale(b[3]));

    CtVec seq;
    for (size_t i = 0; i < a.size(); ++i)
        seq.push_back(ev.multiply(a[i], b[i], rlk));

    Pipeline mult;
    mult.multiply(b, rlk);
    for (u32 threads : {1u, 4u}) {
        setGlobalThreadCount(threads);
        BatchEvaluator batch(ctx);
        expectEqual(batch.run(a, mult), seq);
    }
    setGlobalThreadCount(1);
}

TEST_F(FusionFixture, MixedLevelBatchRotateMatchesSequential)
{
    const u32 k = encoder.rotationAutomorphism(3);
    const auto rot_key = keygen.rotationKey(k);
    auto a = encryptBatch(5, 9);
    setGlobalThreadCount(1);
    CkksEvaluator ev(ctx);
    a[0] = ev.rescale(a[0]);
    a[2] = ev.rescale(ev.rescale(a[2]));

    CtVec seq;
    for (size_t i = 0; i < a.size(); ++i)
        seq.push_back(ev.rotate(a[i], k, rot_key));

    Pipeline rot;
    rot.rotate(k, rot_key);
    for (u32 threads : {1u, 4u}) {
        setGlobalThreadCount(threads);
        BatchEvaluator batch(ctx);
        expectEqual(batch.run(a, rot), seq);
    }
    setGlobalThreadCount(1);
}

// ---------------------------------------------------------------------
// Residency cache behaviour
// ---------------------------------------------------------------------
TEST_F(FusionFixture, CacheSharedAcrossBatchesAndEvaluators)
{
    const auto rlk = keygen.relinKey();
    const auto a = encryptBatch(3, 10);
    const auto b = encryptBatch(3, 11);

    auto &cache = ctx.keySwitchCache();
    cache.clear();
    cache.resetStats();

    Pipeline mult;
    mult.multiply(b, rlk);
    setGlobalThreadCount(1);
    BatchEvaluator batch1(ctx);
    BatchEvaluator batch2(ctx);
    const auto r1 = batch1.run(a, mult);
    const auto r2 = batch2.run(a, mult);
    expectEqual(r1, r2);
    // One level, one key: a single build serves both evaluators, one
    // lookup per run.
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(FusionFixture, CacheInvalidateRebuildsIdentically)
{
    const auto rlk = keygen.relinKey();
    const auto a = encryptBatch(2, 12);
    const auto b = encryptBatch(2, 13);

    auto &cache = ctx.keySwitchCache();
    cache.clear();
    cache.resetStats();

    Pipeline mult;
    mult.multiply(b, rlk);
    setGlobalThreadCount(1);
    BatchEvaluator batch(ctx);
    const auto before = batch.run(a, mult);
    EXPECT_EQ(cache.misses(), 1u);

    cache.invalidate(rlk.id());
    EXPECT_EQ(cache.size(), 0u);
    const auto after = batch.run(a, mult);
    EXPECT_EQ(cache.misses(), 2u); // rebuilt once
    expectEqual(before, after);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

TEST_F(FusionFixture, ReassignedKeyVariableIsServedTheNewKey)
{
    // Entries are keyed by the key's id, not its address: assigning a
    // different key to the same SwitchKey object must be served the
    // new key's operands, never the resident entry the old one built.
    const u32 k1 = encoder.rotationAutomorphism(1);
    const u32 k2 = encoder.rotationAutomorphism(2);
    const auto a = encryptBatch(3, 19);

    auto &cache = ctx.keySwitchCache();
    cache.clear();
    cache.resetStats();
    setGlobalThreadCount(1);
    const CkksEvaluator ev(ctx);
    const BatchEvaluator batch(ctx);

    SwitchKey key = keygen.rotationKey(k1);
    const u64 old_id = key.id();
    Pipeline rot1, rot2; // both stages point at the same key object
    rot1.rotate(k1, key);
    rot2.rotate(k2, key);
    (void)batch.run(a, rot1);     // (old id, top level) resident
    key = keygen.rotationKey(k2); // same object, different key
    EXPECT_NE(key.id(), old_id);

    CtVec want;
    for (const auto &ct : a)
        want.push_back(ev.rotate(ct, k2, key));
    expectEqual(batch.run(a, rot2), want);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST_F(FusionFixture, MovedFromKeyFailsBeforeTheCacheLookup)
{
    // A moved-from key keeps its id but not its digits. The digit
    // coverage check runs before the lookup, so the resident entry its
    // id still names cannot hide the empty key.
    auto rlk = keygen.relinKey();
    const auto a = encryptBatch(2, 35);
    const auto b = encryptBatch(2, 36);

    auto &cache = ctx.keySwitchCache();
    cache.clear();
    cache.resetStats();
    setGlobalThreadCount(1);
    const BatchEvaluator batch(ctx);
    Pipeline with_rlk;
    with_rlk.multiply(b, rlk);
    const auto want = batch.run(a, with_rlk); // (rlk, top) resident
    EXPECT_EQ(cache.misses(), 1u);

    const SwitchKey taken = std::move(rlk);
    const SwitchKey empty;
    Pipeline with_empty, with_taken;
    with_empty.multiply(b, empty);
    with_taken.multiply(b, taken);
    const u64 hits = cache.hits(); // 0: one lookup for both items
    EXPECT_THROW(batch.run(a, with_rlk), std::invalid_argument);
    EXPECT_THROW(batch.run(a, with_empty), std::invalid_argument);
    EXPECT_EQ(cache.hits(), hits); // neither reached the cache

    // The moved-to key carries the id and is still served from cache:
    // one lookup for the run, whatever the batch size.
    expectEqual(batch.run(a, with_taken), want);
    EXPECT_EQ(cache.hits(), hits + 1);
    EXPECT_EQ(cache.misses(), 1u);
}

// ---------------------------------------------------------------------
// LRU byte budget (the Fig. 11b VMEM-residency roll-off, functionally)
// ---------------------------------------------------------------------

/** Synthetic precomp of a known paramBytes (no key material). */
KeySwitchPrecomp
syntheticPrecomp(size_t level, size_t bytes)
{
    KeySwitchPrecomp pre;
    pre.level = level;
    pre.extSlots.resize(bytes / sizeof(u32));
    return pre;
}

TEST_F(FusionFixture, CacheLruEvictsOldestAndAccountsBytes)
{
    KeySwitchCache cache;
    cache.setByteBudget(900); // room for two 400-byte precomps
    const u64 a = 1, b = 2, c = 3; // three distinct key ids

    (void)cache.get(a, 0, [] { return syntheticPrecomp(1, 400); });
    (void)cache.get(b, 0, [] { return syntheticPrecomp(2, 400); });
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.residentBytes(), 800u);
    EXPECT_EQ(cache.evictions(), 0u);

    // Touch a: b becomes the LRU victim when c lands.
    EXPECT_EQ(cache.get(a, 0, [] { return syntheticPrecomp(9, 400); })->level,
              1u);
    EXPECT_EQ(cache.hits(), 1u);

    (void)cache.get(c, 0, [] { return syntheticPrecomp(3, 400); });
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_LE(cache.residentBytes(), 900u);

    // a survived (resident hit); b was evicted and must rebuild.
    EXPECT_EQ(cache.get(a, 0, [] { return syntheticPrecomp(9, 400); })->level,
              1u);
    const u64 misses_before = cache.misses();
    EXPECT_EQ(cache.get(b, 0, [] { return syntheticPrecomp(5, 400); })->level,
              5u);
    EXPECT_EQ(cache.misses(), misses_before + 1); // re-build after evict
    EXPECT_EQ(cache.evictions(), 2u); // c was the LRU this time
}

TEST_F(FusionFixture, CacheBudgetShrinkAndOversizeEntryBehave)
{
    KeySwitchCache cache;
    const u64 a = 1, b = 2, c = 3;
    (void)cache.get(a, 0, [] { return syntheticPrecomp(1, 400); });
    (void)cache.get(b, 0, [] { return syntheticPrecomp(2, 400); });
    (void)cache.get(c, 0, [] { return syntheticPrecomp(3, 400); });
    EXPECT_EQ(cache.residentBytes(), 1200u);

    // Shrinking the budget evicts immediately, oldest first.
    cache.setByteBudget(500);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.evictions(), 2u);
    EXPECT_LE(cache.residentBytes(), 500u);
    // The survivor is the most recently used: c.
    EXPECT_EQ(cache.get(c, 0, [] { return syntheticPrecomp(9, 400); })->level,
              3u);

    // A single entry larger than the whole budget is still served
    // (never evicted while it is the only entry)...
    const u64 big = 4;
    auto served = cache.get(big, 0, [] { return syntheticPrecomp(7, 4000); });
    EXPECT_EQ(served->level, 7u);
    EXPECT_EQ(cache.size(), 1u);
    // ...and rolls out as soon as the next entry lands.
    (void)cache.get(a, 0, [] { return syntheticPrecomp(1, 400); });
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_LE(cache.residentBytes(), 500u);

    // The evicted precomp lives on in its holder's hands, counted as
    // retired until the handle goes.
    EXPECT_EQ(served->level, 7u);
    EXPECT_EQ(cache.retiredBytes(), served->paramBytes());
    served.reset();
    EXPECT_EQ(cache.retiredBytes(), 0u);
}

TEST_F(FusionFixture, BoundedCacheKeepsBatchResultsBitIdentical)
{
    const auto rlk = keygen.relinKey();
    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);
    const auto a = encryptBatch(4, 21);
    const auto b = encryptBatch(4, 22);

    Pipeline p;
    p.multiply(b, rlk).rescale().rotate(k, rot_key);

    auto &cache = ctx.keySwitchCache();
    cache.clear();
    cache.resetStats();
    setGlobalThreadCount(1);
    BatchEvaluator batch(ctx);
    const auto unbounded = batch.run(a, p);
    const size_t working_set = cache.residentBytes();
    ASSERT_GT(working_set, 0u);

    // A budget holding only one of the two precomps forces the other
    // to rebuild every run -- bit-identically.
    cache.clear();
    cache.resetStats();
    cache.setByteBudget(working_set / 2);
    for (u32 threads : {1u, testThreads()}) {
        setGlobalThreadCount(threads);
        const auto bounded = batch.run(a, p);
        expectEqual(bounded, unbounded);
        EXPECT_LE(cache.residentBytes(), working_set / 2);
    }
    setGlobalThreadCount(1);
    EXPECT_GT(cache.evictions(), 0u);
    cache.setByteBudget(0);
}

TEST_F(FusionFixture, ConcurrentApplicationThreadsShareCacheSafely)
{
    // Two independent application threads hammer the same context's
    // residency cache (and the serialised global pool) concurrently;
    // under TSan this probes the cache lock and the read-only sharing
    // of resident precomps.
    const auto rlk = keygen.relinKey();
    const auto a = encryptBatch(4, 14);
    const auto b = encryptBatch(4, 15);

    setGlobalThreadCount(1);
    CkksEvaluator ev(ctx);
    CtVec seq;
    for (size_t i = 0; i < a.size(); ++i)
        seq.push_back(ev.multiply(a[i], b[i], rlk));

    Pipeline mult;
    mult.multiply(b, rlk);
    setGlobalThreadCount(testThreads());
    std::vector<CtVec> results(2);
    std::vector<std::thread> workers;
    for (size_t w = 0; w < results.size(); ++w) {
        workers.emplace_back([&, w] {
            BatchEvaluator batch(ctx);
            results[w] = batch.run(a, mult);
        });
    }
    for (auto &t : workers)
        t.join();
    setGlobalThreadCount(1);

    for (const auto &r : results)
        expectEqual(r, seq);
}

// ---------------------------------------------------------------------
// Pipeline plumbing edges
// ---------------------------------------------------------------------
TEST_F(FusionFixture, EmptyPipelineAndEmptyBatchAreNoOps)
{
    const auto a = encryptBatch(2, 16);
    setGlobalThreadCount(1);
    KernelLog log;
    BatchEvaluator batch(ctx, &log);

    const Pipeline empty;
    const auto same = batch.run(a, empty);
    expectEqual(same, a);
    EXPECT_TRUE(log.calls().empty());

    const auto rlk = keygen.relinKey();
    const CtVec empty_rhs;
    Pipeline p;
    p.multiply(empty_rhs, rlk).rescale();
    EXPECT_TRUE(batch.run({}, p).empty());
    EXPECT_TRUE(log.calls().empty());
}

TEST_F(FusionFixture, PipelineRejectsBadShapes)
{
    const auto rlk = keygen.relinKey();
    const auto a = encryptBatch(3, 17);
    const auto short_rhs = encryptBatch(2, 18);
    setGlobalThreadCount(1);
    BatchEvaluator batch(ctx);

    Pipeline size_mismatch;
    size_mismatch.multiply(short_rhs, rlk);
    EXPECT_THROW(batch.run(a, size_mismatch), std::invalid_argument);

    // Draining the whole modulus chain: 5 limbs support 4 rescales.
    Pipeline too_deep;
    for (int i = 0; i < 5; ++i)
        too_deep.rescale();
    EXPECT_THROW(batch.run(a, too_deep), std::invalid_argument);

    const auto rot_key = keygen.rotationKey(3);
    Pipeline bad_idx;
    bad_idx.rotate(4, rot_key); // even: not a ring automorphism
    EXPECT_THROW(batch.run(a, bad_idx), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Ownership: precomps outlive the cache's reference, never the holder's
// ---------------------------------------------------------------------
TEST_F(FusionFixture, HeldPrecompSurvivesEvictionInvalidateAndClear)
{
    const auto rlk = keygen.relinKey();
    const auto rot_key = keygen.rotationKey(encoder.rotationAutomorphism(1));
    const auto a = encryptBatch(2, 33);
    const auto b = encryptBatch(2, 34);
    const size_t level = ctx.qCount() - 1;

    setGlobalThreadCount(1);
    const CkksEvaluator ev(ctx);
    CtVec want;
    for (size_t i = 0; i < a.size(); ++i)
        want.push_back(ev.multiply(a[i], b[i], rlk));
    const auto expectServes = [&](const KeySwitchPrecomp &pre) {
        CtVec got;
        for (size_t i = 0; i < a.size(); ++i)
            got.push_back(ev.multiply(a[i], b[i], pre));
        expectEqual(got, want);
    };

    auto &cache = ctx.keySwitchCache();
    cache.setByteBudget(0);
    cache.clear();
    cache.resetStats();
    auto evicted = ev.precomputeKeySwitchShared(rlk, level);
    const size_t bytes = evicted->paramBytes();
    EXPECT_EQ(cache.retiredBytes(), 0u); // resident, not retired

    // Eviction: a one-precomp budget, and the rotation key lands.
    cache.setByteBudget(bytes);
    (void)ev.precomputeKeySwitchShared(rot_key, level);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.retiredBytes(), bytes);
    cache.setByteBudget(0);

    // invalidate() drops a freshly rebuilt entry by id...
    auto invalidated = ev.precomputeKeySwitchShared(rlk, level);
    cache.invalidate(rlk.id());
    EXPECT_EQ(cache.retiredBytes(), 2 * bytes);

    // ...and clear() drops every entry.
    auto cleared = ev.precomputeKeySwitchShared(rlk, level);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.residentBytes(), 0u);
    EXPECT_EQ(cache.retiredBytes(), 3 * bytes);
    EXPECT_EQ(cache.misses(), 4u);

    // Every handle still reads its precomp, bit-identically.
    expectServes(*evicted);
    expectServes(*invalidated);
    expectServes(*cleared);

    evicted.reset();
    invalidated.reset();
    EXPECT_EQ(cache.retiredBytes(), bytes);
    cleared.reset();
    EXPECT_EQ(cache.retiredBytes(), 0u);
}

TEST_F(FusionFixture, ThrowingRunsLeaveNoPrecompHeld)
{
    const u32 k1 = encoder.rotationAutomorphism(1);
    const u32 k2 = encoder.rotationAutomorphism(2);
    const auto key1 = keygen.rotationKey(k1);
    const auto key2 = keygen.rotationKey(k2);
    const auto a = encryptBatch(4, 31);

    Pipeline p1, p2;
    p1.rotate(k1, key1);
    p2.rotate(k2, key2);
    // Prefetches both keys' precomps (the second evicts the first
    // under a one-precomp budget), then fails its prevalidation walk
    // by draining the modulus chain.
    Pipeline bad;
    bad.rotate(k1, key1).rotate(k2, key2);
    for (int i = 0; i < 5; ++i)
        bad.rescale();
    // Holds item 0's rotation precomp, then cannot rescale item 1.
    Pipeline rotate_rescale;
    rotate_rescale.rotate(k1, key1).rescale();

    setGlobalThreadCount(1);
    CkksEvaluator ev(ctx);
    CtVec want1;
    for (const auto &ct : a)
        want1.push_back(ev.rotate(ct, k1, key1));
    CtVec drained = a;
    for (int i = 0; i < 4; ++i)
        drained[1] = ev.rescale(drained[1]); // down to 1 limb

    auto &cache = ctx.keySwitchCache();
    for (u32 threads : {1u, 4u}) {
        setGlobalThreadCount(threads);
        BatchEvaluator batch(ctx);
        cache.setByteBudget(0);
        cache.clear();
        cache.resetStats();
        expectEqual(batch.run(a, p1), want1);
        // Budget sized to one precomp: serving key2 evicts key1's.
        cache.setByteBudget(cache.residentBytes());
        (void)batch.run(a, p2);
        EXPECT_GT(cache.evictions(), 0u);

        // A prevalidation failure holding a precomp the cache evicted
        // meanwhile...
        EXPECT_THROW(batch.run(a, bad), std::invalid_argument);
        // ...and a rescale on a drained chain (item 1 has one limb
        // left) after another item's precomp was fetched: unwinding
        // either must release every handle.
        EXPECT_THROW(batch.run(drained, rotate_rescale),
                     std::invalid_argument);
        EXPECT_EQ(cache.retiredBytes(), 0u);
        EXPECT_LE(cache.residentBytes(), cache.byteBudget());
        // The engine still runs bit-identically after the failures.
        expectEqual(batch.run(a, p1), want1);
    }
    setGlobalThreadCount(1);
    cache.setByteBudget(0);
    cache.clear();
}

TEST_F(FusionFixture, RotateAccumValidatesBranchKeysBeforeAnyWork)
{
    const u32 k1 = encoder.rotationAutomorphism(1);
    const u32 k2 = encoder.rotationAutomorphism(2);
    const auto key1 = keygen.rotationKey(k1);
    const auto a = encryptBatch(2, 32);
    setGlobalThreadCount(1);
    BatchEvaluator batch(ctx);

    // A null branch key is rejected at the builder.
    Pipeline null_key;
    EXPECT_THROW(null_key.rotateAccum({{k1, &key1}, {k2, nullptr}}),
                 std::invalid_argument);

    // A wrong-level branch key -- digits that cannot cover the items'
    // level -- fails the prevalidation walk before any precomp is
    // prefetched or parallel work starts.
    const auto full = keygen.rotationKey(k2);
    const SwitchKey bad({full.digits().front()});
    Pipeline wrong_level;
    wrong_level.rotateAccum({{k1, &key1}, {k2, &bad}});
    auto &cache = ctx.keySwitchCache();
    cache.clear();
    cache.resetStats();
    EXPECT_THROW(batch.run(a, wrong_level), std::invalid_argument);
    EXPECT_EQ(cache.misses(), 0u); // fail-fast: nothing was prefetched

    // The same wrong-level key through the single-rotate stage.
    Pipeline rot;
    rot.rotate(k2, bad);
    EXPECT_THROW(batch.run(a, rot), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Every stage kind: batched executor vs the sequential reference
// ---------------------------------------------------------------------

/** Six limbs with double rescaling (rescaleSplit = 2), so one pipeline
 *  has room for a Rescale and a RescaleMulti. */
CkksParams
doubleRescaleParams()
{
    auto params = CkksParams::testSet(1 << 9, 6, 2);
    params.rescaleSplit = 2;
    return params;
}

class FusionAllStages : public FusionFixture
{
  protected:
    FusionAllStages() : FusionFixture(doubleRescaleParams()) {}
};

TEST_F(FusionAllStages, EveryStageKindMatchesSequentialReference)
{
    const auto rlk = keygen.relinKey();
    const u32 k1 = encoder.rotationAutomorphism(1);
    const u32 k2 = encoder.rotationAutomorphism(2);
    const auto key1 = keygen.rotationKey(k1);
    const auto key2 = keygen.rotationKey(k2);
    const size_t count = 3;
    const auto a = encryptBatch(count, 41);
    const auto b = encryptBatch(count, 42);
    const size_t top = ctx.qCount() - 1;

    // Scale after Mult + Rescale, replaying the evaluator's updates:
    // every addPlain operand meets the item at exactly this scale.
    const double rescaled =
        kScale * kScale / static_cast<double>(ctx.qModulus(top));
    const std::vector<double> ones(encoder.slotCount(), 1.0);
    const Plaintext add_pt = encoder.encodeReal(ones, rescaled, top);
    // Per-level rows: scale-1 multiplicands (uniform ring elements, as
    // the bootstrap's matrix rows) and addends at the running scale.
    Rng rng(45);
    std::vector<Plaintext> mul_rows, add_rows;
    for (size_t l = 0; l <= top; ++l) {
        Plaintext row;
        row.poly = poly::RnsPoly::uniform(ctx.ring(), l + 1, true, rng);
        row.scale = 1.0;
        mul_rows.push_back(std::move(row));
        add_rows.push_back(encoder.encodeReal(ones, rescaled, l + 1));
    }

    Pipeline p;
    p.add(b)
        .multiply(b, rlk)
        .rescale()
        .addPlain(add_pt)
        .multiplyPlain(mul_rows)
        .rotate(k1, key1)
        .rotateAccum({{k1, &key1}, {k2, &key2}})
        .rotateHoisted({{k1, &key1}, {k2, &key2}})
        .addPlain(add_rows)
        .rescaleMulti();

    setGlobalThreadCount(1);
    KernelLog seq_log;
    const auto seq = runPipelineSequential(ctx, a, p, &seq_log);
    ASSERT_EQ(seq.size(), count);
    EXPECT_EQ(seq.front().limbs(), ctx.qCount() - 1 - 2);

    for (u32 threads : {1u, 4u}) {
        setGlobalThreadCount(threads);
        KernelLog log;
        BatchEvaluator batch(ctx, &log);
        expectEqual(batch.run(a, p), seq);
        expectSameLog(log, seq_log);
        EXPECT_EQ(log.hoistedModUpSaves(), seq_log.hoistedModUpSaves());
    }
    setGlobalThreadCount(1);
    EXPECT_EQ(seq_log.hoistedModUpSaves(), count); // one per 2-way fan-in

    // The merged log is `count` copies of the priced schedule.
    const auto predicted = enumerateKernels(p.pipelineOps(), ctx.params(), top);
    ASSERT_EQ(seq_log.calls().size(), count * predicted.size());
    for (size_t i = 0; i < count; ++i) {
        for (size_t j = 0; j < predicted.size(); ++j) {
            EXPECT_TRUE(seq_log.calls()[i * predicted.size() + j].sameShape(
                predicted[j]))
                << "item " << i << " kernel " << j;
        }
    }
}

TEST_F(FusionFixture, SequentialReferenceRejectsShortOperandBatch)
{
    const auto a = encryptBatch(3, 43);
    const auto short_rhs = encryptBatch(2, 44);
    Pipeline p;
    p.add(short_rhs);
    EXPECT_THROW(runPipelineSequential(ctx, a, p), std::invalid_argument);
}

} // namespace
} // namespace cross::ckks
