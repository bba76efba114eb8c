/**
 * @file
 * The two workloads, `serve` and `serve-churn`. A run is an open-loop
 * serving phase at paper Set A (N = 2^12, L = 4, dnum = 3) followed by
 * the closed-loop offline phase at Set C (offline.h).
 *
 * One generator thread submits on an absolute, seeded Poisson schedule
 * at fixed request rates, so faster code faces the same offered load,
 * and between those rate points in bursts that fill the queue, for
 * capacity_rps.
 * One collector thread stamps each completion as soon as it observes
 * the future ready, whatever order the scheduler completes requests
 * in, and every latency is measured from the request's due time, so a
 * generator stall counts against the requests it delayed. With the
 * engine's dispatcher that is three threads, all pinned to one CPU.
 *
 * Requests go either through a fused Pipeline (MultiplyPlain ->
 * Rescale -> Rotate) or through a compiled dense layer
 * y = (W x + b)^2 (workloads::denseSquareLayerGraph, dim 8); every
 * other request carries a deadline. Each result is compared bit for
 * bit with a sequential CkksEvaluator reference computed before the
 * timed region, and the references are decrypted against float64 slot
 * values for precision_bits.
 */
#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include <pthread.h>
#include <sched.h>

#include "ckks/batch_evaluator.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/graph/compiler.h"
#include "ckks/keys.h"
#include "ckks/schedule.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "cross/lowering.h"
#include "harness.h"
#include "offline.h"
#include "serving/serving.h"
#include "tpu/device_config.h"
#include "workloads/ml_workloads.h"

namespace hebench {

using namespace cross;
using namespace cross::ckks;

namespace {

constexpr size_t kDim = 8;       ///< dense layer dimension
constexpr size_t kReplicate = 2; ///< copies of x packed for rotations
constexpr unsigned kPoolThreads = 1;
constexpr int kSetupReps = 3;
/** Share of --seconds given to the serving phase; the offline phase
 *  gets the rest. */
constexpr double kServingShare = 0.35;
constexpr size_t kMaxBatch = 16;

/**
 * @name Traffic constants.
 * Derived in README.md ("Where the serving constants come from") from
 * figures measured at the seed commit on the development host, which
 * the traced run prints again in its `calibration` line. They are
 * fixed, so that faster code faces the same traffic and admission.
 * @{
 */
/** Sequential service time of one request of each model. */
constexpr double kSeedPipeMs = 2.0;
constexpr double kSeedDenseMs = 11.7;
/** Share of requests that go to the dense-layer model: each submit
 *  path (Pipeline, CompiledGraph) gets half of the service time. */
constexpr double kDenseShare = kSeedPipeMs / (kSeedPipeMs + kSeedDenseMs);
/** Mean sequential service time of one request of the mix. */
constexpr double kSeedMeanMs =
    (1.0 - kDenseShare) * kSeedPipeMs + kDenseShare * kSeedDenseMs;
/** Latency limit of ok_frac.high and serving.goodput_rps.over: about
 *  four times the p99 latency at `low`. */
constexpr double kLimitMs = 200.0;
/** Deadline of every other request: the client gives up at the limit,
 *  so shedding removes only requests that would miss it anyway. */
constexpr double kDeadlineMs = kLimitMs;
/** A request admitted behind a full queue still finishes within the
 *  limit at half the sequential service rate: the margin for the
 *  shared host's slow stretches. */
constexpr size_t kQueueDepth =
    static_cast<size_t>(kLimitMs / (2.0 * kSeedMeanMs));
/** Offered requests per second at low, high and over, the same for
 *  both workloads: about 30%, 50% and 200% of the 320 req/s the
 *  `serve` engine completed at saturation. */
constexpr double kRps[3] = {95.0, 160.0, 640.0};
/** Requests per capacity burst: as many as the queue holds, so none
 *  is refused, and of them the dense-layer share. */
constexpr size_t kBurst = kQueueDepth;
constexpr size_t kBurstDense =
    static_cast<size_t>(kBurst * kDenseShare + 0.5);
/** @} */

enum Model : int
{
    kPipe = 0,
    kDense = 1,
};

/** The three open-loop rate points, then the closed-loop capacity
 *  bursts. */
enum Point : int
{
    kLow = 0,
    kHigh = 1,
    kOver = 2,
    kCap = 3,
};

constexpr const char *kPointName[4] = {"low", "high", "over", "cap"};
/** Share of the serving phase each point gets. */
constexpr double kPointShare[4] = {0.25, 0.25, 0.15, 0.35};

/** A serving workload: who owns keys, and the key-cache budget. */
struct ServeSpec
{
    const char *name;
    size_t tenants;
    /** Each tenant has its own KeyGenerator, keys and models. */
    bool keysPerTenant;
    /** Distinct encrypted inputs per (key set, model). */
    size_t poolPerModel;
    /** KeySwitchCache budget as a share of the union of the tenants'
     *  key working sets; 0 leaves the cache unbounded. */
    double cacheBudgetShare;
};

const ServeSpec kServe = {"serve", 3, false, 16, 0.0};
const ServeSpec kChurn = {"serve-churn", 6, true, 6, 0.5};

u32
weightOf(size_t tenant)
{
    static constexpr u32 kCycle[3] = {4, 2, 1};
    return kCycle[tenant % 3];
}

std::vector<double>
uniformReals(Rng &rng, size_t n, double lo, double hi)
{
    std::vector<double> v(n);
    for (auto &x : v)
        x = lo + (hi - lo) * rng.real();
    return v;
}

/** Keys, models, inputs and references of one key owner. Pipelines
 *  and compiled graphs point into this object, so it never moves. */
struct KeySet
{
    std::unique_ptr<KeyGenerator> keygen;
    std::unique_ptr<CkksEncryptor> encryptor;
    SwitchKey relin;
    std::map<u32, SwitchKey> rotKeys; ///< steps 1..kDim-1
    u32 rot1 = 0;

    std::vector<double> pipeConst;
    Plaintext pipePt;
    Pipeline pipe;

    std::vector<std::vector<double>> w;
    std::vector<double> bias;
    std::unique_ptr<graph::CompiledGraph> dense;
    double compileMs = 0.0;

    std::vector<std::vector<double>> inVals[2];
    std::vector<Ciphertext> in[2];
    std::vector<Ciphertext> ref[2];
};

struct ServeSetup
{
    std::unique_ptr<CkksContext> ctx;
    std::unique_ptr<CkksEncoder> encoder;
    std::unique_ptr<HeOpCostModel> cost;
    std::vector<std::unique_ptr<KeySet>> keys;
    size_t unionWorkingSetBytes = 0;

    const KeySet &keysOf(size_t tenant) const
    {
        return *keys[keys.size() == 1 ? 0 : tenant];
    }
};

/** Everything the timed region relies on: context, keygen, input
 *  encryption, graph compile and KeySwitchCache warm-up. */
std::unique_ptr<ServeSetup>
buildSetup(const ServeSpec &spec, std::uint64_t seed)
{
    auto s = std::make_unique<ServeSetup>();
    s->ctx = std::make_unique<CkksContext>(CkksParams::paperSet('A'));
    const CkksContext &ctx = *s->ctx;
    s->encoder = std::make_unique<CkksEncoder>(ctx);
    s->cost = std::make_unique<HeOpCostModel>(
        tpu::tpuV6e(), lowering::Config{}, ctx.params());
    const CkksEncoder &encoder = *s->encoder;
    const size_t slots = encoder.slotCount();
    const size_t nsets = spec.keysPerTenant ? spec.tenants : 1;

    for (size_t k = 0; k < nsets; ++k) {
        auto ks = std::make_unique<KeySet>();
        const std::uint64_t kseed = seed * 1000003ULL + 17 * k + 1;
        Rng rng(kseed);
        ks->keygen = std::make_unique<KeyGenerator>(ctx, kseed ^ 0x6b657973);
        ks->encryptor = std::make_unique<CkksEncryptor>(
            ctx, ks->keygen->publicKey(), kseed ^ 0x656e63);
        ks->relin = ks->keygen->relinKey();
        for (size_t d = 1; d < kDim; ++d) {
            const u32 g = encoder.rotationAutomorphism(static_cast<i64>(d));
            ks->rotKeys.emplace(g, ks->keygen->rotationKey(g));
        }
        ks->rot1 = encoder.rotationAutomorphism(1);

        ks->pipeConst = uniformReals(rng, slots, -1.0, 1.0);
        ks->pipePt = encoder.encodeReal(ks->pipeConst, kScale, ctx.qCount());
        ks->pipe.multiplyPlain(ks->pipePt).rescale().rotate(
            ks->rot1, ks->rotKeys.at(ks->rot1));

        for (size_t i = 0; i < kDim; ++i)
            ks->w.push_back(uniformReals(rng, kDim, -0.25, 0.25));
        ks->bias = uniformReals(rng, kDim, -0.25, 0.25);
        graph::CompileOptions copts;
        copts.lowering.baseScale = kScale;
        copts.relinKey = &ks->relin;
        copts.rotationKeys = &ks->rotKeys;
        copts.device = &tpu::tpuV6e();
        const auto c0 = Clock::now();
        ks->dense = graph::compileGraph(
            ctx, workloads::denseSquareLayerGraph(ks->w, ks->bias, kReplicate),
            copts);
        ks->compileMs = secondsBetween(c0, Clock::now()) * 1e3;

        for (size_t i = 0; i < spec.poolPerModel; ++i) {
            auto v = uniformReals(rng, slots, -1.0, 1.0);
            ks->in[kPipe].push_back(ks->encryptor->encrypt(
                encoder.encodeReal(v, kScale, ctx.qCount())));
            ks->inVals[kPipe].push_back(std::move(v));

            const auto x = uniformReals(rng, kDim, -1.0, 1.0);
            std::vector<double> packed;
            for (size_t r = 0; r < kReplicate; ++r)
                packed.insert(packed.end(), x.begin(), x.end());
            ks->in[kDense].push_back(ks->encryptor->encrypt(
                encoder.encodeReal(packed, kScale, ctx.qCount())));
            ks->inVals[kDense].push_back(x);
        }
        s->keys.push_back(std::move(ks));
    }

    // Key working set of one key set: the dense layer's planned
    // precomps plus the pipeline's rotation at its post-rescale level.
    const CkksEvaluator ev(ctx);
    for (const auto &ks : s->keys) {
        s->unionWorkingSetBytes +=
            ks->dense->keyPlan().totalBytes +
            ev.precomputeKeySwitch(ks->rotKeys.at(ks->rot1), ctx.qCount() - 2)
                .paramBytes();
    }
    if (spec.cacheBudgetShare > 0)
        ctx.keySwitchCache().setByteBudget(static_cast<size_t>(
            spec.cacheBudgetShare *
            static_cast<double>(s->unionWorkingSetBytes)));

    // Warm-up: one request of each model per key set through the same
    // BatchEvaluator entry points the engine uses.
    const BatchEvaluator batch(ctx);
    for (const auto &ks : s->keys) {
        (void)batch.run({ks->in[kPipe][0]}, ks->pipe);
        (void)ks->dense->run(batch, {{ks->in[kDense][0]}});
    }
    return s;
}

/** Sequential CkksEvaluator form of the dense layer: the diagonal
 *  method written out, with the same keys and operand encodings the
 *  compiler uses (one-shot SwitchKey paths, no residency cache). */
Ciphertext
denseReference(const CkksContext &ctx, const CkksEncoder &encoder,
               const KeySet &ks, const Ciphertext &ct)
{
    const CkksEvaluator ev(ctx);
    Ciphertext acc;
    for (size_t d = 0; d < kDim; ++d) {
        std::vector<double> diag(kDim * kReplicate, 0.0);
        for (size_t i = 0; i < kDim; ++i)
            diag[i] = ks.w[i][(i + d) % kDim];
        const auto pt = encoder.encodeReal(diag, kScale, ctx.qCount());
        Ciphertext term;
        if (d == 0) {
            term = ev.multiplyPlain(ct, pt);
        } else {
            const u32 g = encoder.rotationAutomorphism(static_cast<i64>(d));
            term = ev.multiplyPlain(ev.rotate(ct, g, ks.rotKeys.at(g)), pt);
        }
        acc = d == 0 ? term : ev.add(acc, term);
    }
    acc = ev.rescale(acc);
    std::vector<double> bias_packed;
    for (size_t r = 0; r < kReplicate; ++r)
        bias_packed.insert(bias_packed.end(), ks.bias.begin(), ks.bias.end());
    acc = ev.addPlain(acc, encoder.encodeReal(bias_packed, acc.scale,
                                              acc.limbs()));
    return ev.rescale(ev.multiply(acc, acc, ks.relin));
}

/** Cost-model microseconds of one request of each model, as deadline
 *  admission prices it: the pipeline at the input level, the compiled
 *  graph at its chosen schedule. */
std::array<double, 2>
modelUs(const ServeSetup &s)
{
    const KeySet &ks = *s.keys[0];
    const graph::CompiledGraph &dense = *ks.dense;
    return {s.cost->pipelineLatencyUs(ks.pipe.pipelineOps(),
                                      s.ctx->qCount() - 1, 1),
            dense.schedule() == graph::ScheduleKind::PerOp ? dense.perOpCostUs()
            : dense.schedule() == graph::ScheduleKind::Hoisted
                ? dense.hoistedCostUs()
                : dense.fusedCostUs()};
}

/** Wall-clock microseconds per cost-model microsecond for deadline
 *  admission: the seed commit's sequential time of the mix over the
 *  cost model's estimate of it. It does not follow the speed of the
 *  code under test. */
double
costScale(const ServeSetup &s)
{
    const auto m = modelUs(s);
    return kSeedMeanMs * 1e3 /
           ((1.0 - kDenseShare) * m[kPipe] + kDenseShare * m[kDense]);
}

void
computeReferences(ServeSetup &s)
{
    const CkksContext &ctx = *s.ctx;
    const CkksEvaluator ev(ctx);
    for (auto &ks : s.keys) {
        for (const auto &ct : ks->in[kPipe])
            ks->ref[kPipe].push_back(
                ev.rotate(ev.rescale(ev.multiplyPlain(ct, ks->pipePt)),
                          ks->rot1, ks->rotKeys.at(ks->rot1)));
        for (const auto &ct : ks->in[kDense])
            ks->ref[kDense].push_back(
                denseReference(ctx, *s.encoder, *ks, ct));
    }
}

/** Precision of every reference output (bit-identical to every served
 *  result), decrypted against float64 slot values computed here. */
Precision
referencePrecision(const ServeSetup &s)
{
    const CkksContext &ctx = *s.ctx;
    const size_t slots = s.encoder->slotCount();
    Precision prec;
    for (const auto &ks : s.keys) {
        CkksDecryptor dec(ctx, ks->keygen->secretKey());
        for (size_t i = 0; i < ks->ref[kPipe].size(); ++i) {
            const auto &v = ks->inVals[kPipe][i];
            std::vector<double> want(slots);
            for (size_t j = 0; j < slots; ++j)
                want[j] = v[(j + 1) % slots] * ks->pipeConst[(j + 1) % slots];
            prec.add(s.encoder->decode(dec.decrypt(ks->ref[kPipe][i])), want);
        }
        for (size_t i = 0; i < ks->ref[kDense].size(); ++i) {
            const auto &x = ks->inVals[kDense][i];
            std::vector<double> want(slots, 0.0);
            for (size_t r = 0; r < kDim; ++r) {
                double y = ks->bias[r];
                for (size_t c = 0; c < kDim; ++c)
                    y += ks->w[r][c] * x[c];
                want[r] = y * y;
                want[kDim + r] = ks->bias[r] * ks->bias[r];
            }
            prec.add(s.encoder->decode(dec.decrypt(ks->ref[kDense][i])), want);
        }
    }
    return prec;
}

struct Arrival
{
    double dueS;
    u32 tenant;
    Model model;
    u32 idx;
    bool deadline;
};

/** A request of @p model from a tenant drawn in proportion to weight,
 *  on a random input of its pool. */
Arrival
drawArrival(const ServeSpec &spec, double due_s, Model model, Rng &rng)
{
    u32 weight_sum = 0;
    for (size_t t = 0; t < spec.tenants; ++t)
        weight_sum += weightOf(t);
    Arrival a;
    a.dueS = due_s;
    u32 pick = static_cast<u32>(rng.uniform(weight_sum));
    a.tenant = 0;
    while (pick >= weightOf(a.tenant))
        pick -= weightOf(a.tenant++);
    a.model = model;
    a.idx = static_cast<u32>(rng.uniform(spec.poolPerModel));
    a.deadline = false;
    return a;
}

/** Seeded Poisson schedule over [0, duration): models by kDenseShare,
 *  every other request carries a deadline. */
std::vector<Arrival>
makeSchedule(const ServeSpec &spec, double rps, double duration, Rng &rng)
{
    std::vector<Arrival> out;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.real()) / rps;
        if (t >= duration)
            break;
        const Model model = rng.real() < kDenseShare ? kDense : kPipe;
        Arrival a = drawArrival(spec, t, model, rng);
        a.deadline = out.size() % 2 == 0;
        out.push_back(a);
    }
    return out;
}

/** One capacity burst: kBurst requests due at once, exactly
 *  kBurstDense of them dense, so every burst is the same work. No
 *  deadlines: the burst measures service, not admission. */
std::vector<Arrival>
makeBurst(const ServeSpec &spec, Rng &rng)
{
    std::vector<Arrival> out;
    for (size_t i = 0; i < kBurst; ++i)
        out.push_back(
            drawArrival(spec, 0.0, i < kBurstDense ? kDense : kPipe, rng));
    return out;
}

/**
 * Runs the calling thread at real-time priority while alive. The
 * generator and the collector share the server's CPU but model
 * clients on other machines, so a running batch must not delay them.
 * Without the privilege the thread keeps its policy (granted() false).
 */
class ClientPriority
{
  public:
    ClientPriority()
    {
        sched_param p{};
        p.sched_priority = 1;
        granted_ = pthread_setschedparam(pthread_self(), SCHED_FIFO, &p) == 0;
    }
    ~ClientPriority()
    {
        if (granted_) {
            const sched_param p{};
            pthread_setschedparam(pthread_self(), SCHED_OTHER, &p);
        }
    }
    ClientPriority(const ClientPriority &) = delete;
    ClientPriority &operator=(const ClientPriority &) = delete;

    bool granted() const { return granted_; }

  private:
    bool granted_ = false;
};

/** Accounting of one rate point, summed over its segments. */
struct PointResult
{
    double windowS = 0.0; ///< offered seconds
    u64 sent = 0;
    std::vector<double> lagMs;
    std::vector<double> submitUs;
    /** @name Written by the collector thread. @{ */
    u64 completed = 0;
    u64 withinLimit = 0;
    u64 queueFull = 0;
    u64 deadlineErrors = 0;
    u64 shutdown = 0;
    u64 failed = 0;
    std::vector<double> latMs;
    /** @} */
    /** @name Engine counter deltas over the point's segments. @{ */
    u64 engineCompleted = 0;
    u64 deadlineRejected = 0;
    u64 deadlineShed = 0;
    u64 batches = 0;
    u64 batchedRequests = 0;
    std::vector<u64> tenantCompleted;
    /** @} */
    /** Capacity point only: each burst, submit to drain. */
    Timed burst;

    double
    batchMean() const
    {
        return batches ? static_cast<double>(batchedRequests) /
                             static_cast<double>(batches)
                       : 0.0;
    }
};

struct Pending
{
    Clock::time_point due;
    /** Host seconds per reference second in the request's segment. */
    double slow = 1.0;
    std::future<Ciphertext> fut;
    const Ciphertext *ref = nullptr;
    Point point = kLow;
};

/** Rate-point segments per run: the points alternate (low, high, over,
 *  low, ...) so that each one samples the whole run, not one stretch
 *  of it, and a slow stretch of the host does not land on one point. */
constexpr int kCycles = 5;

/**
 * The serving run: kCycles cycles of one segment per point, on one
 * engine. A rate-point segment submits its seeded Poisson schedule; a
 * capacity segment submits bursts back to back. Each waits until every
 * request it sent has resolved, so one segment's backlog never delays
 * the next one's requests.
 *
 * Each segment runs in reference time (harness.h): on a host that
 * runs the reference kernel @c slow times slower than kRefSeconds,
 * arrivals are spread @c slow times wider, deadlines are @c slow
 * times longer, and latencies are divided by @c slow. Host speed then
 * moves neither the load nor the limit; the speed of the code under
 * test still moves both. @p ref_s receives each segment's reference
 * seconds.
 */
std::array<PointResult, 4>
runOpenLoop(const ServeSetup &s, const ServeSpec &spec, double seconds,
            Rng &rng, bool trace, std::vector<double> &ref_s_out)
{
    std::array<PointResult, 4> res;
    for (auto &r : res)
        r.tenantCompleted.assign(spec.tenants, 0);

    serving::ServingConfig cfg;
    cfg.maxQueueDepth = kQueueDepth;
    cfg.maxBatch = kMaxBatch;
    cfg.dispatchers = 1;
    cfg.costModel = s.cost.get();
    cfg.costScale = costScale(s);
    serving::ServingEngine engine(*s.ctx, cfg);
    std::vector<serving::ServingEngine::Stream> streams;
    for (size_t t = 0; t < spec.tenants; ++t)
        streams.push_back(engine.openStream(
            {.tenant = static_cast<u64>(t), .weight = weightOf(t)}));

    std::mutex m;
    std::condition_variable cv;      ///< inbox non-empty or generator done
    std::condition_variable drained; ///< outstanding reached 0
    std::vector<Pending> inbox;
    u64 outstanding = 0;
    bool gen_done = false;
    std::string mismatch;
    std::string failure;

    // After the engine exists, so its dispatcher keeps the normal policy.
    const ClientPriority generator_priority;
    std::thread collector([&] {
        const ClientPriority collector_priority;
        std::vector<Pending> active;
        std::vector<std::pair<size_t, Clock::time_point>> ready;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(m);
                if (active.empty())
                    cv.wait(lock, [&] { return gen_done || !inbox.empty(); });
                for (auto &p : inbox)
                    active.push_back(std::move(p));
                inbox.clear();
                if (active.empty() && gen_done)
                    return;
            }
            if (active.empty())
                continue;
            (void)active.front().fut.wait_for(std::chrono::microseconds(500));
            // Stamp first, verify after: a completion's stamp must not
            // wait on the checks of the others found with it.
            ready.clear();
            for (size_t i = 0; i < active.size(); ++i)
                if (active[i].fut.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready)
                    ready.emplace_back(i, Clock::now());
            for (const auto &[i, stamp] : ready) {
                Pending &p = active[i];
                PointResult &r = res[p.point];
                try {
                    const Ciphertext got = p.fut.get();
                    ++r.completed;
                    const double ms =
                        std::chrono::duration<double, std::milli>(stamp - p.due)
                            .count() /
                        p.slow;
                    r.latMs.push_back(ms);
                    if (ms <= kLimitMs)
                        ++r.withinLimit;
                    if (!sameCiphertext(got, *p.ref) && mismatch.empty())
                        mismatch = "served result differs from the "
                                   "sequential CkksEvaluator reference";
                } catch (const serving::QueueFullError &) {
                    ++r.queueFull;
                } catch (const serving::DeadlineError &) {
                    ++r.deadlineErrors;
                } catch (const serving::ShutdownError &) {
                    ++r.shutdown;
                } catch (const std::exception &e) {
                    ++r.failed;
                    if (failure.empty())
                        failure = e.what();
                }
                p.ref = nullptr; // marks the slot done
            }
            active.erase(std::remove_if(active.begin(), active.end(),
                                        [](const Pending &p) {
                                            return p.ref == nullptr;
                                        }),
                         active.end());
            if (!ready.empty()) {
                std::lock_guard<std::mutex> lock(m);
                outstanding -= ready.size();
                if (outstanding == 0)
                    drained.notify_all();
            }
        }
    });

    // Submits @p schedule, in reference seconds, from t0 on at @p slow
    // host seconds per reference second, then waits until every
    // request it sent has resolved.
    auto submit_and_drain = [&](Point pt, const std::vector<Arrival> &schedule,
                                double slow) {
        PointResult &r = res[pt];
        const auto t0 = Clock::now() + std::chrono::milliseconds(1);
        for (const Arrival &a : schedule) {
            const KeySet &ks = s.keysOf(a.tenant);
            Ciphertext input = ks.in[a.model][a.idx];
            const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(a.dueS *
                                                                    slow));
            std::this_thread::sleep_until(due);
            const auto start = Clock::now();
            r.lagMs.push_back(
                std::chrono::duration<double, std::milli>(start - due).count());
            serving::SubmitOptions opts;
            if (a.deadline)
                opts.deadlineUs = static_cast<u64>(kDeadlineMs * 1e3 * slow);
            Pending p;
            p.due = due;
            p.slow = slow;
            p.ref = &ks.ref[a.model][a.idx];
            p.point = pt;
            p.fut = a.model == kPipe
                        ? engine.submit(streams[a.tenant], ks.pipe,
                                        std::move(input), opts)
                        : engine.submit(streams[a.tenant], *ks.dense,
                                        std::move(input), opts);
            if (trace)
                r.submitUs.push_back(
                    std::chrono::duration<double, std::micro>(Clock::now() -
                                                              start)
                        .count());
            ++r.sent;
            {
                std::lock_guard<std::mutex> lock(m);
                inbox.push_back(std::move(p));
                ++outstanding;
            }
            cv.notify_one();
        }
        std::unique_lock<std::mutex> lock(m);
        drained.wait(lock, [&] { return outstanding == 0; });
    };

    for (int cycle = 0; cycle < kCycles; ++cycle) {
        for (const Point pt : {kLow, kHigh, kOver, kCap}) {
            // Quiescent here: follow the least loaded CPU of the host,
            // and run the segment in reference time on it.
            double ref_s = kRefSeconds;
            repinToFastestCpu(&ref_s);
            ref_s_out.push_back(ref_s);
            const double slow = ref_s / kRefSeconds;
            PointResult &r = res[pt];
            const double dur = seconds * kPointShare[pt] / kCycles / slow;
            const auto before = engine.stats();
            const auto tenants_before = engine.tenantStats();
            r.windowS += dur;
            if (pt == kCap) {
                // Back-to-back bursts until the window is spent.
                const auto w0 = Clock::now();
                do {
                    const auto schedule = makeBurst(spec, rng);
                    r.burst.time([&] {
                        submit_and_drain(pt, schedule, slow);
                        return 0;
                    });
                } while (secondsBetween(w0, Clock::now()) < dur * slow);
            } else {
                submit_and_drain(pt, makeSchedule(spec, kRps[pt], dur, rng),
                                 slow);
            }
            const auto after = engine.stats();
            const auto tenants_after = engine.tenantStats();
            r.engineCompleted += after.completed - before.completed;
            r.deadlineRejected +=
                after.deadlineRejected - before.deadlineRejected;
            r.deadlineShed += after.deadlineShed - before.deadlineShed;
            r.batches += after.batches - before.batches;
            r.batchedRequests += after.batchedRequests - before.batchedRequests;
            for (size_t t = 0; t < spec.tenants; ++t) {
                const auto a = tenants_after.find(t);
                const auto b = tenants_before.find(t);
                r.tenantCompleted[t] +=
                    (a == tenants_after.end() ? 0 : a->second.completed) -
                    (b == tenants_before.end() ? 0 : b->second.completed);
            }
        }
    }
    engine.shutdown();
    {
        std::lock_guard<std::mutex> lock(m);
        gen_done = true;
    }
    cv.notify_one();
    collector.join();

    std::printf("  client threads at real-time priority: %s\n",
                generator_priority.granted() ? "yes" : "no");
    require(mismatch.empty(), std::string(spec.name) + ": " + mismatch);
    if (!failure.empty())
        std::fprintf(stderr, "%s: request failed: %s\n", spec.name,
                     failure.c_str());
    for (const Point pt : {kLow, kHigh, kOver, kCap}) {
        const PointResult &r = res[pt];
        require(r.completed + r.queueFull + r.deadlineErrors + r.shutdown +
                        r.failed ==
                    r.sent,
                "serving: a request was neither completed nor refused");
        require(r.engineCompleted == r.completed,
                "serving: engine completion count differs from the "
                "collector's");
        require(r.deadlineRejected + r.deadlineShed == r.deadlineErrors,
                "serving: deadline rejections + sheds differ from the "
                "DeadlineErrors delivered");
        if (pt == kCap) {
            require(r.completed == r.sent,
                    "serving: a capacity burst request was refused");
            std::printf("  cap   %zu bursts of %zu (%zu dense) over %5.2f s  "
                        "median burst %.2f ms (%.2f ms at the reference "
                        "speed)  batch %.2f\n",
                        r.burst.size(), kBurst, kBurstDense, r.windowS,
                        median(r.burst.s) * 1e3, r.burst.atReference() * 1e3,
                        r.batchMean());
            continue;
        }
        std::printf("  %-5s offered %6.1f r/s over %5.2f s  sent %5llu  "
                    "done %5llu  in-limit %5llu  queue-full %4llu  "
                    "deadline-rej %4llu  shed %4llu  failed %llu  "
                    "p50 %.2f ms  p99 %.2f ms  batch %.2f\n",
                    kPointName[pt], kRps[pt], r.windowS,
                    static_cast<unsigned long long>(r.sent),
                    static_cast<unsigned long long>(r.completed),
                    static_cast<unsigned long long>(r.withinLimit),
                    static_cast<unsigned long long>(r.queueFull),
                    static_cast<unsigned long long>(r.deadlineRejected),
                    static_cast<unsigned long long>(r.deadlineShed),
                    static_cast<unsigned long long>(r.failed),
                    quantile(r.latMs, 0.5), quantile(r.latMs, 0.99),
                    r.batchMean());
    }
    return res;
}

/** Jain index over completed_t / weight_t. */
double
jain(const PointResult &p)
{
    double sum = 0.0, sq = 0.0;
    for (size_t t = 0; t < p.tenantCompleted.size(); ++t) {
        const double x = static_cast<double>(p.tenantCompleted[t]) / weightOf(t);
        sum += x;
        sq += x * x;
    }
    return sq > 0 ? sum * sum /
                        (static_cast<double>(p.tenantCompleted.size()) * sq)
                  : 0.0;
}

/**
 * Traced-only probes at Set A, outside the engine: the kernel seconds
 * of one served request of the mix, from a KernelLog passed to a
 * BatchEvaluator, and the directly timed batch execution that
 * serving.wait_ms_p50 is derived from.
 */
void
addRequestProbes(RunResult &out, const ServeSetup &s, double high_batch_mean,
                 double high_p50_ms)
{
    const CkksContext &ctx = *s.ctx;
    const KeySet &ks = *s.keys[0];
    const double g = kDenseShare;

    KernelLog pipe_log, dense_log;
    const BatchEvaluator pipe_b(ctx, &pipe_log), dense_b(ctx, &dense_log);
    constexpr int kReps = 9;
    for (int r = 0; r < kReps; ++r) {
        const auto p = pipe_b.run({ks.in[kPipe][0]}, ks.pipe);
        const auto d = ks.dense->run(dense_b, {{ks.in[kDense][0]}});
        require(sameCiphertext(p.at(0), ks.ref[kPipe][0]) &&
                    sameCiphertext(d.at(0).at(0), ks.ref[kDense][0]),
                "request probe: logged run differs from the reference");
    }
    out.add("ckks.request_kernel_ms",
            ((1.0 - g) * pipe_log.totalSeconds() +
             g * dense_log.totalSeconds()) /
                kReps * 1e3,
            "ms");

    // Derived: median latency at `high` minus the directly timed
    // execution of one batch of that rate's mean size.
    const size_t b = std::max<size_t>(
        1, static_cast<size_t>(std::lround(high_batch_mean)));
    CtVec pin, din;
    for (size_t i = 0; i < b; ++i) {
        pin.push_back(ks.in[kPipe][i % ks.in[kPipe].size()]);
        din.push_back(ks.in[kDense][i % ks.in[kDense].size()]);
    }
    const BatchEvaluator plain(ctx);
    const double tp = medianSeconds(5, [&] { (void)plain.run(pin, ks.pipe); });
    const double td =
        medianSeconds(5, [&] { (void)ks.dense->run(plain, {din}); });
    const double exec_ms = ((1.0 - g) * tp + g * td) * 1e3;
    out.add("serving.wait_ms_p50", high_p50_ms - exec_ms, "ms");
}

/**
 * Traced-only log of the figures the serving constants are derived
 * from (README.md): the sequential service time of one request of each
 * model, a one-item batch as the engine runs it at `low`, and the
 * cost-model estimate deadline admission prices it at.
 */
void
printCalibration(const ServeSetup &s)
{
    const CkksContext &ctx = *s.ctx;
    const KeySet &ks = *s.keys[0];
    const BatchEvaluator batch(ctx);
    const double pipe_ms =
        medianSeconds(15, [&] { (void)batch.run({ks.in[kPipe][0]}, ks.pipe); }) *
        1e3;
    const double dense_ms =
        medianSeconds(9, [&] {
            (void)ks.dense->run(batch, {{ks.in[kDense][0]}});
        }) * 1e3;
    const auto m = modelUs(s);
    const double g = kDenseShare;
    std::printf("calibration: sequential pipe %.3f ms, dense %.3f ms; "
                "cost model pipe %.3f us, dense %.3f us; wall/model of "
                "the mix %.1f (admission uses %.1f)\n",
                pipe_ms, dense_ms, m[kPipe], m[kDense],
                ((1.0 - g) * pipe_ms + g * dense_ms) * 1e3 /
                    ((1.0 - g) * m[kPipe] + g * m[kDense]),
                costScale(s));
}

/**
 * One run: set-up (median of kSetupReps complete set-ups of both
 * phases), references, the open-loop serving phase at Set A, then the
 * closed-loop offline phase at Set C, then the metrics of the mode.
 */
RunResult
runServing(const Options &opts, const ServeSpec &spec)
{
    setGlobalThreadCount(kPoolThreads);
    const double cores = setUpRunContext(opts, kPoolThreads);

    Timed setup;
    std::unique_ptr<ServeSetup> s;
    std::unique_ptr<OfflinePhase> offline;
    for (int r = 0; r < kSetupReps; ++r) {
        s.reset();
        offline.reset();
        setup.time([&] {
            s = buildSetup(spec, opts.seed);
            offline = std::make_unique<OfflinePhase>(opts.seed);
            return 0;
        });
    }
    std::vector<double> compile_ms;
    for (const auto &ks : s->keys)
        compile_ms.push_back(ks->compileMs);
    auto &cache = s->ctx->keySwitchCache();
    std::printf("setup: %.3f s median of %d, %.3f s at the reference speed  "
                "(key sets %zu, working set %.2f MiB, cache budget %.2f "
                "MiB)\n",
                median(setup.s), kSetupReps, setup.atReference(),
                s->keys.size(),
                static_cast<double>(s->unionWorkingSetBytes) / (1 << 20),
                static_cast<double>(cache.byteBudget()) / (1 << 20));

    computeReferences(*s);
    Precision precision = referencePrecision(*s);
    offline->prepare(precision);
    std::printf("precision: %.2f bits mean, %.2f bits worst slot (floors "
                "%.0f and %.0f)\n",
                precision.meanBits, precision.worstBits,
                Precision::kMinMeanBits, Precision::kMinWorstBits);

    cache.resetStats();
    Rng rng(opts.seed * 7919 + 3);
    std::vector<double> serving_ref_s;
    const auto points = runOpenLoop(*s, spec, opts.seconds * kServingShare,
                                    rng, opts.trace, serving_ref_s);
    const PointResult &low = points[kLow], &high = points[kHigh],
                      &over = points[kOver], &cap = points[kCap];
    const u64 hits = cache.hits(), misses = cache.misses();
    std::printf("keycache: hits %llu  misses %llu  evictions %llu  "
                "resident %.2f MiB  retired %.2f MiB\n",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(cache.evictions()),
                static_cast<double>(cache.residentBytes()) / (1 << 20),
                static_cast<double>(cache.retiredBytes()) / (1 << 20));
    offline->run(opts.seconds * (1.0 - kServingShare), opts.trace);

    RunResult out;
    for (const PointResult *p : {&low, &high, &over, &cap}) {
        out.attempted += p->sent;
        out.failed += p->failed;
    }
    out.attempted += offline->attempted();
    require(low.latMs.size() >= 100 && high.latMs.size() >= 100 &&
                over.withinLimit >= 1,
            "serving: too few completed requests to report percentiles");

    if (!opts.trace) {
        out.add("setup_s", setup.atReference(), "s");
        out.add("precision_bits", precision.meanBits, "bits");
        out.add("capacity_rps",
                static_cast<double>(kBurst) / cap.burst.atReference(), "1/s");
        out.add("ok_frac.high",
                static_cast<double>(high.withinLimit) /
                    static_cast<double>(high.sent),
                "ratio");
        offline->addEndToEnd(out);
        return out;
    }

    std::vector<double> lag, submit;
    u64 shed = 0, rejected = 0, queue_full = 0;
    for (const PointResult *p : {&low, &high, &over}) {
        lag.insert(lag.end(), p->lagMs.begin(), p->lagMs.end());
        submit.insert(submit.end(), p->submitUs.begin(), p->submitUs.end());
        shed += p->deadlineShed;
        rejected += p->deadlineRejected;
        queue_full += p->queueFull;
    }
    out.add("gen.lag_ms_p99", quantile(lag, 0.99), "ms");
    out.add("serving.submit_us_p50", median(submit), "us");
    out.add("serving.batch_mean", high.batchMean(), "count");
    out.add("serving.goodput_rps.over",
            static_cast<double>(over.withinLimit) / over.windowS, "1/s");
    out.add("serving.p50_ms.low", quantile(low.latMs, 0.5), "ms");
    out.add("serving.p99_ms.low", quantile(low.latMs, 0.99), "ms");
    out.add("serving.p50_ms.high", quantile(high.latMs, 0.5), "ms");
    out.add("serving.p99_ms.high", quantile(high.latMs, 0.99), "ms");
    out.add("serving.shed", static_cast<double>(shed), "count");
    out.add("serving.deadline_rejected", static_cast<double>(rejected),
            "count");
    out.add("serving.queue_full", static_cast<double>(queue_full), "count");
    out.add("serving.jain", jain(over), "ratio");
    out.add("ckks.keycache.hits", static_cast<double>(hits), "count");
    out.add("ckks.keycache.misses", static_cast<double>(misses), "count");
    out.add("ckks.keycache.evictions",
            static_cast<double>(cache.evictions()), "count");
    out.add("ckks.keycache.hit_ratio",
            hits + misses ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0,
            "ratio");
    out.add("ckks.keycache.resident_mb",
            static_cast<double>(cache.residentBytes()) / (1 << 20), "MiB");
    out.add("ckks.graph.compile_ms", median(compile_ms), "ms");
    out.add("ckks.precision_worst_slot_bits", precision.worstBits, "bits");
    printCalibration(*s);
    addRequestProbes(out, *s, high.batchMean(),
                     quantile(high.latMs, 0.5));
    offline->addPerLayer(out);
    addLayerProbes(out, opts.seed);
    out.add("common.parallel.effective_cores", cores, "cores");
    out.add("host.ref_kernel_us", median(serving_ref_s) * 1e6, "us");
    return out;
}

} // namespace

RunResult
runServe(const Options &opts)
{
    return runServing(opts, kServe);
}

RunResult
runServeChurn(const Options &opts)
{
    return runServing(opts, kChurn);
}

} // namespace hebench
