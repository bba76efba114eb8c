/**
 * @file
 * Executable form of the packed bootstrapping schedule.
 *
 * bootstrap.h *prices* the schedule; this builder makes it *run*:
 * every BootstrapOp of enumerateBootstrapOps becomes one Pipeline
 * stage with concrete operands -- per-level CtS/StC plaintext matrix
 * rows, Chebyshev plaintext constants, BSGS rotation keys, rhs
 * ciphertext batches -- so the whole bootstrap executes through a
 * single BatchEvaluator::run call and its merged KernelLog can be
 * asserted kernel-for-kernel against enumerateBootstrapKernels in the
 * same BootstrapKernelMode: the BSGS rotation groups run as
 * RotateAccum stages (PerOp) or as Halevi-Shoup HoistedRotations
 * stages sharing one ModUp per group (Hoisted), with bit-identical
 * results either way.
 *
 * Operand values are synthesized (uniform ring elements at the right
 * level and scale): the object under test is the schedule execution --
 * kernel sequence, level/scale evolution, key residency -- not the
 * numerical bootstrap output, exactly as the paper's estimator counts
 * kernels rather than decrypting. Scales are tracked through the same
 * floating-point updates the evaluator applies, so every Add/AddPlain
 * stage meets its operand at a bit-equal scale.
 */
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "ckks/batch_evaluator.h"
#include "ckks/bootstrap.h"
#include "ckks/keys.h"

namespace cross::ckks {

/**
 * Owns the pipeline of one bootstrap run and every operand it
 * references. Stages point into the owned storage, so the object is
 * neither copyable nor movable; build() hands it out by unique_ptr.
 */
class BootstrapPipeline
{
  public:
    /**
     * Build the executable pipeline for @p cfg on @p ctx.
     *
     * @param keygen source of the relinearisation and BSGS rotation
     *               keys (2 * ceil(sqrt(rho)) distinct Galois
     *               elements, reused across stages at every level --
     *               the Set-D-style many-(key, level) working set the
     *               residency cache is bounded against)
     * @param batch  items in the input batch
     * @param scale  starting scale of every input item
     * @param seed   determinism for the synthesized operands
     * @param mode   how the BSGS rotation groups execute: RotateAccum
     *               stages (PerOp, the default) or HoistedRotations
     *               stages sharing one ModUp per group (Hoisted)
     * @throws std::invalid_argument when the chain is too short or the
     *         config's level guards would bind (the enumerated levels
     *         would then diverge from an actual execution, which
     *         always consumes a limb per rescale)
     */
    static std::unique_ptr<BootstrapPipeline>
    build(const CkksContext &ctx, const BootstrapConfig &cfg,
          KeyGenerator &keygen, size_t batch, double scale, u64 seed,
          BootstrapKernelMode mode = BootstrapKernelMode::PerOp);

    const Pipeline &pipeline() const { return pipeline_; }
    const CtVec &input() const { return input_; }
    /** The (op, level, fanin) schedule the pipeline executes --
     *  identical to enumerateBootstrapOps(params, cfg). */
    const std::vector<BootstrapOp> &ops() const { return ops_; }
    /** Distinct Galois elements keyed (the BSGS rotation pool). */
    size_t rotationKeyCount() const { return rotKeys_.size(); }

    /** Fused execution: BatchEvaluator::run over the owned pipeline. */
    CtVec run(const BatchEvaluator &batch) const;

    /**
     * Sequential reference: runPipelineSequential over the owned
     * pipeline. Bit-identical to run() at any thread count; its
     * KernelLog is the conformance baseline.
     */
    CtVec runSequential(const CkksContext &ctx, KernelLog *log) const;

    BootstrapPipeline(const BootstrapPipeline &) = delete;
    BootstrapPipeline &operator=(const BootstrapPipeline &) = delete;

  private:
    BootstrapPipeline() = default;

    Pipeline pipeline_;
    CtVec input_;
    std::vector<BootstrapOp> ops_;
    /** Stage operand storage (deques/maps: stable addresses under
     *  growth, which the PipelineStage pointers rely on). */
    std::deque<CtVec> rhs_;
    std::deque<Plaintext> plains_;
    std::vector<Plaintext> matRows_; ///< per-level CtS/StC matrix rows
    std::map<u32, SwitchKey> rotKeys_;
    SwitchKey relinKey_;
};

} // namespace cross::ckks
