// Neural Network Engine model (paper Fig. 2).
//
// The NNE executes one layer at a time. Its Processing Engine exposes three
// axes of fine-grained parallelism:
//   PF — filter parallelism: PF processing units, one output filter each,
//   PV — vector parallelism: PV multiply-add modules per PU, one output
//        position each,
//   PC — channel parallelism: PC multipliers + an adder tree per module,
//        reducing PC input-channel/kernel terms per cycle.
// One PE pass therefore retires PC*PF*PV MACs per cycle and a layer takes
//   ceil(F/PF) * ceil(C*K*K/PC) * ceil(Hout*Wout/PV)
// compute cycles plus a pipeline fill. The Functional Unit chain
// (BN -> SC -> ReLU -> Pool) and the Dropout Unit are pipelined behind the
// PE and add only fill latency.
//
// `nne_run_layer_into` executes a layer through the one int8 executor
// (quant::run_layer_into — untiled, since int32 accumulation makes the tile
// order invisible in the bits) and charges it the closed-form
// `estimate_layer_cycles` count. tests/test_nne.cpp walks the tile loops
// above and asserts the closed form equals their count.
//
// Kernel tiers: the inner product dispatches through nn::kernels::Tier. The
// tier changes only HOW the int32 accumulators are computed (plain scalar
// loops or the vectorized int8 dot kernels) — never WHAT they contain, so
// outputs are bit-identical across tiers, and the cycle charge depends on
// geometry and configuration alone.
#ifndef BNN_CORE_NNE_H
#define BNN_CORE_NNE_H

#include <cstdint>

#include "nn/dropout.h"
#include "nn/gemm_kernels.h"
#include "nn/netdesc.h"
#include "quant/qnetwork.h"
#include "quant/qops.h"
#include "quant/qplan.h"
#include "quant/qtensor.h"

namespace bnn::core {

struct NneConfig {
  int pc = 64;   // channel parallelism
  int pf = 64;   // filter parallelism
  int pv = 1;    // vector parallelism
  double clock_mhz = 225.0;
  int data_width_bits = 8;
  // Pipeline depth of PE + FU + DU, charged once per layer.
  int pipeline_fill_cycles = 24;

  std::int64_t macs_per_cycle() const {
    return static_cast<std::int64_t>(pc) * pf * pv;
  }
  // Peak arithmetic throughput in GOP/s (1 MAC = 2 ops).
  double peak_gops() const {
    return static_cast<double>(macs_per_cycle()) * 2.0 * clock_mhz / 1e3;
  }
};

// The paper's hardware design space (Section IV-A).
const std::vector<int>& pc_domain();  // {8, 16, 32, 64, 128}
const std::vector<int>& pf_domain();  // {8, 16, 32, 64, 128}
const std::vector<int>& pv_domain();  // {1, 4, 8, 16}

// Closed-form PE cycle count for one layer (compute only, no memory).
std::int64_t estimate_layer_cycles(const nn::HwLayer& layer, const NneConfig& config);

// Counters of one nne_run_layer_into call.
struct NneLayerStats {
  std::int64_t compute_cycles = 0;  // estimate_layer_cycles of the layer
  std::int64_t macs_retired = 0;    // useful MACs (excludes tile padding)
  int mask_bits_consumed = 0;
};

// Reusable per-lane working memory of the executor (see quant::LayerScratch:
// allocation-free after warmup, growths counted in grow_events).
using NneScratch = quant::LayerScratch;

// Executes one layer into `out` (resized in place, capacity reused; must not
// alias `input`/`shortcut`) and charges its closed-form cycles. `plan` must
// be build_layer_exec_plan(layer). `tier` picks the inner product (see
// nn/gemm_kernels.h; bitpack is an alias of int8). `shortcut` must be
// non-null iff the layer has a shortcut; `masks` must be non-null when
// `site_active`.
NneLayerStats nne_run_layer_into(const quant::QLayer& layer, const quant::LayerExecPlan& plan,
                                 const quant::QTensor& input, const quant::QTensor* shortcut,
                                 bool site_active, nn::MaskSource* masks,
                                 quant::FixedMultiplier dropout_keep, const NneConfig& config,
                                 nn::kernels::Tier tier, NneScratch& scratch,
                                 quant::QTensor& out);

}  // namespace bnn::core

#endif  // BNN_CORE_NNE_H
