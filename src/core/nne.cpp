#include "core/nne.h"

#include <vector>

#include "util/check.h"

namespace bnn::core {

const std::vector<int>& pc_domain() {
  static const std::vector<int> domain{8, 16, 32, 64, 128};
  return domain;
}
const std::vector<int>& pf_domain() {
  static const std::vector<int> domain{8, 16, 32, 64, 128};
  return domain;
}
const std::vector<int>& pv_domain() {
  static const std::vector<int> domain{1, 4, 8, 16};
  return domain;
}

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

}  // namespace

std::int64_t estimate_layer_cycles(const nn::HwLayer& layer, const NneConfig& config) {
  util::require(config.pc >= 1 && config.pf >= 1 && config.pv >= 1,
                "nne: parallelism degrees must be positive");
  const std::int64_t terms =
      static_cast<std::int64_t>(layer.in_c) * layer.kernel * layer.kernel;
  const std::int64_t filter_tiles = ceil_div(layer.out_c, config.pf);
  const std::int64_t position_tiles =
      ceil_div(static_cast<std::int64_t>(layer.conv_out_h) * layer.conv_out_w, config.pv);
  return filter_tiles * ceil_div(terms, config.pc) * position_tiles;
}

NneLayerStats nne_run_layer_into(const quant::QLayer& layer, const quant::LayerExecPlan& plan,
                                 const quant::QTensor& input, const quant::QTensor* shortcut,
                                 bool site_active, nn::MaskSource* masks,
                                 quant::FixedMultiplier dropout_keep, const NneConfig& config,
                                 nn::kernels::Tier tier, NneScratch& scratch,
                                 quant::QTensor& out) {
  NneLayerStats stats;
  stats.compute_cycles = estimate_layer_cycles(layer.geom, config);
  stats.macs_retired = layer.geom.macs();
  quant::run_layer_into(layer, plan, tier, input, shortcut, site_active, masks, dropout_keep,
                        scratch, out);
  if (site_active) stats.mask_bits_consumed = layer.geom.out_c;
  return stats;
}

}  // namespace bnn::core
