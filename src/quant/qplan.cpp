#include "quant/qplan.h"

namespace bnn::quant {

LayerExecPlan build_layer_exec_plan(const QLayer& layer) {
  const nn::HwLayer& g = layer.geom;
  LayerExecPlan plan;
  plan.terms = g.in_c * g.kernel * g.kernel;
  plan.weight_bytes = layer.resident_weight_bytes();

  if (g.op == nn::HwLayer::Op::conv) {
    plan.term_dh.resize(static_cast<std::size_t>(plan.terms));
    plan.term_dw.resize(static_cast<std::size_t>(plan.terms));
    plan.term_off.resize(static_cast<std::size_t>(plan.terms));
    const int kk2 = g.kernel * g.kernel;
    for (int t = 0; t < plan.terms; ++t) {
      const int ch = t / kk2;
      const int rem = t % kk2;
      const int dh = rem / g.kernel;
      const int dw = rem % g.kernel;
      plan.term_dh[static_cast<std::size_t>(t)] = dh;
      plan.term_dw[static_cast<std::size_t>(t)] = dw;
      plan.term_off[static_cast<std::size_t>(t)] = (ch * g.in_h + dh) * g.in_w + dw;
    }
  }
  return plan;
}

PlanSegment build_plan_segment(const QLayer& layer) {
  return std::make_shared<const LayerExecPlan>(build_layer_exec_plan(layer));
}

NetworkExecPlan build_network_exec_plan(const QuantNetwork& net) {
  NetworkExecPlan plan;
  plan.layers.reserve(net.layers.size());
  for (const QLayer& layer : net.layers) plan.layers.push_back(build_plan_segment(layer));
  return plan;
}

}  // namespace bnn::quant
