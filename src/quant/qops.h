// The integer executor for QuantNetwork — the one int8 layer body every
// caller runs (core::nne_run_layer_into and the accelerator's lanes wrap
// it; the ref_* functions below are its allocating conveniences). Plain
// untiled loops: int32 accumulation is exact, so the hardware's PF x PV x PC
// tile order would not change a bit, and the NNE charges its cycles from
// the closed form (core::estimate_layer_cycles) instead of replaying it.
//
// Per-layer pipeline (matching the NNE stages):
//   PE   : int32 accumulation of (q_in - zp_in) * w over C*K*K, plus bias
//   FU/BN: per-channel fixed-point requantization + post-add (+ zp_out)
//   FU/SC: rescaled shortcut operand added in output units
//   FU/ReLU, FU/Pool
//   DU   : filter-wise Bernoulli mask; dropped -> zp_out, kept -> x/(1-p)
#ifndef BNN_QUANT_QOPS_H
#define BNN_QUANT_QOPS_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/dropout.h"
#include "nn/gemm_kernels.h"
#include "quant/qnetwork.h"
#include "quant/qplan.h"
#include "quant/qtensor.h"

namespace bnn::quant {

// Reusable working memory of run_layer_into. Every buffer grows
// monotonically and is fully overwritten per call, so after one pass over
// a network's largest layer further calls are allocation-free;
// `grow_events` counts the capacity growths that did happen (the
// accelerator's steady-state-zero-allocation test watches it).
struct LayerScratch {
  QTensor pre;  // pre-pool position map (pooled layers)
  std::uint64_t grow_events = 0;
};

// Executes one layer into `out` (resized in place, capacity reused; must not
// alias `input`/`shortcut`). `plan` must be build_layer_exec_plan(layer).
// `shortcut` must be non-null iff geom.has_shortcut. When `site_active` is
// true one drop decision per output filter is drawn from `masks` (which must
// then be non-null), in ascending filter order. `tier` picks the inner
// product (see nn/gemm_kernels.h): Tier::scalar runs the plain per-term
// reference loops, Tier::int8 and its alias Tier::bitpack the dot_i8_zp
// kernels. int32 accumulation is exact, so outputs are bit-identical across
// tiers (enforced by tests/test_nne.cpp).
void run_layer_into(const QLayer& layer, const LayerExecPlan& plan, nn::kernels::Tier tier,
                    const QTensor& input, const QTensor* shortcut, bool site_active,
                    nn::MaskSource* masks, FixedMultiplier dropout_keep, LayerScratch& scratch,
                    QTensor& out);

// Allocating form of run_layer_into (fresh scratch and output per call).
QTensor ref_run_layer(const QLayer& layer, const LayerExecPlan& plan, nn::kernels::Tier tier,
                      const QTensor& input, const QTensor* shortcut, bool site_active,
                      nn::MaskSource* masks, FixedMultiplier dropout_keep);

// As above at Tier::int8 with a freshly built plan.
QTensor ref_run_layer(const QLayer& layer, const QTensor& input, const QTensor* shortcut,
                      bool site_active, nn::MaskSource* masks, FixedMultiplier dropout_keep);

// The DU stage alone: one drop bit per output filter of `out`, ascending
// (the IC schedule re-masks the cached boundary with it every sample).
void apply_dropout(const QLayer& layer, QTensor& out, nn::MaskSource& masks,
                   FixedMultiplier dropout_keep);

// Executes the whole network (last `bayes_layers` sites active) and returns
// every layer's stored (post-DU) output. `masks` may be null when
// bayes_layers == 0.
std::vector<QTensor> ref_forward(const QuantNetwork& net, const QTensor& image,
                                 int bayes_layers, nn::MaskSource* masks);

// Dequantized logits (1, K) from the final layer's output.
nn::Tensor ref_logits(const QuantNetwork& net, const QTensor& final_output);

// Monte Carlo predictive distribution over a batch of float images
// (N, C, H, W) -> (N, K): quantizes each image, runs `num_samples`
// stochastic passes and averages host-side softmax outputs. With
// `use_intermediate_caching` the deterministic prefix (layers up to the IC
// cut) runs once per image and only the Bayesian suffix is recomputed per
// sample — the integer-domain analogue of the paper's IC.
nn::Tensor ref_mc_predict(const QuantNetwork& net, const nn::Tensor& images, int bayes_layers,
                          int num_samples, nn::MaskSource& masks,
                          bool use_intermediate_caching = true);

// Builds the mask stream that one (image, sample) pair consumes. The
// factory form mirrors the accelerator's parallel runtime, which gives
// every Monte Carlo sample its own decorrelated sampler lane (see
// core::Accelerator::sample_stream_seed) instead of threading one shared
// stream through all samples.
using MaskStreamFactory =
    std::function<std::unique_ptr<nn::MaskSource>(int image, int sample)>;

// As above, but each (image, sample) draws from its own stream. With a
// factory that reproduces the accelerator's per-sample seeds this is the
// bit-exact reference for Accelerator::predict at any thread count.
nn::Tensor ref_mc_predict(const QuantNetwork& net, const nn::Tensor& images, int bayes_layers,
                          int num_samples, const MaskStreamFactory& streams,
                          bool use_intermediate_caching = true);

}  // namespace bnn::quant

#endif  // BNN_QUANT_QOPS_H
