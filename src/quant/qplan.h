// Layer execution plans: the precomputed, weight-derived state the int8
// executor dispatches on. Built once per QuantNetwork (the accelerator does
// it in its constructor; the reference executor per call) and shared
// read-only by every lane, so the executor's index tables are built exactly
// once.
#ifndef BNN_QUANT_QPLAN_H
#define BNN_QUANT_QPLAN_H

#include <cstdint>
#include <memory>
#include <vector>

#include "quant/qnetwork.h"

namespace bnn::quant {

struct LayerExecPlan {
  int terms = 0;  // in_c * kernel * kernel

  // Resident weight bytes of the QLayer this plan was built from — the
  // residency currency a segment-granular registry budget is charged in.
  std::uint64_t weight_bytes = 0;

  // Hoisted conv index math (empty for linear layers): term t addresses
  // input channel t/(k*k) at kernel offset (term_dh[t], term_dw[t]);
  // term_off[t] is the flat input offset relative to the window's top-left
  // element, valid wherever the window is in bounds.
  std::vector<std::int32_t> term_dh, term_dw, term_off;
};

// One independently buildable, independently evictable unit of exec-plan
// state. Segments are immutable once built (build_layer_exec_plan is a pure
// function of the QLayer constants), so any number of plans, segment tables
// and in-flight requests may share one.
using PlanSegment = std::shared_ptr<const LayerExecPlan>;

struct NetworkExecPlan {
  std::vector<PlanSegment> layers;

  int num_layers() const { return static_cast<int>(layers.size()); }
  const LayerExecPlan& layer(int i) const {
    return *layers[static_cast<std::size_t>(i)];
  }
  // Sum of per-segment weight bytes (null segments count zero).
  std::uint64_t weight_bytes() const {
    std::uint64_t total = 0;
    for (const PlanSegment& segment : layers)
      if (segment != nullptr) total += segment->weight_bytes;
    return total;
  }
};

LayerExecPlan build_layer_exec_plan(const QLayer& layer);
// The shared-ownership form: builds layer's plan on the heap, ready to be
// installed into any number of NetworkExecPlans or segment tables.
PlanSegment build_plan_segment(const QLayer& layer);
NetworkExecPlan build_network_exec_plan(const QuantNetwork& net);

}  // namespace bnn::quant

#endif  // BNN_QUANT_QPLAN_H
