// Serving cost oracle: the paper's performance model re-used as the
// dispatcher's estimate of what a request will cost.
//
// The headline result of the source paper (Fan et al., DAC 2021) is a
// cycle model — layer_cycles = max(compute, memory) + fill, composed over
// the IC schedule by core::estimate_mc — accurate enough to drive
// design-space exploration. serve::CostModel wraps exactly that model as a
// per-request latency estimate keyed by the request's {L, S} knobs: the
// dispatcher ranks queued batch groups by modelled cost
// (longest-processing-time-first across replicas), and the adaptive
// overload policy sheds load by predicted cost against a wall-clock
// latency target.
//
// Multi-tenancy: the model is KEYED PER MODEL (serve::ModelKey). Each bound
// tenant carries its own NetworkDesc, (L, S) cache, weight footprint, and
// optional calibration override; bind_model() replaces an entry on hot-swap
// (the `tag` lets callers detect staleness by version-pointer identity).
// cold_reload_ms() and reload_ms() price loading an evicted tenant's
// weights back from DDR (core::DdrModel at the accelerator clock), which is
// how dispatch and admission learn that a cold model is costlier than a hot
// one.
//
// Modelled milliseconds are accelerator-clock milliseconds; a calibration
// scale (core::PerfCalibration) maps them onto measured wall milliseconds
// of the software simulator that actually serves the request. Relative
// costs — all the LPT dispatcher needs — are calibration-free; only the
// adaptive policy's comparison against `latency_target_ms` needs the
// calibrated scale (serve::Server measures one anchor pass at startup).
//
// Determinism: modelled costs are a pure function of (network description,
// NNE/DDR config, L, S) and the calibration scales are fixed after startup,
// so every decision derived from CostModel is reproducible given the same
// queue contents and stats window.
#ifndef BNN_SERVE_COST_MODEL_H
#define BNN_SERVE_COST_MODEL_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/perf_model.h"
#include "nn/netdesc.h"

namespace bnn::serve {

struct RequestOptions;
using ModelKey = std::uint32_t;

class CostModel {
 public:
  // Empty multi-tenant model: bind tenants with bind_model().
  CostModel(core::PerfConfig config, bool use_intermediate_caching);

  // Registers (or on hot-swap replaces) tenant `key`: its description, its
  // resident weight footprint (the DDR reload payload), and an opaque
  // identity tag (typically the ModelVersion pointer) readable back via
  // bound_tag. `segment_bytes` carries the per-layer weight footprint
  // (ModelVersion::segment_bytes) that reload_ms prices; empty degrades
  // that method to the flat cold_reload_ms. Replacing clears the (L, S)
  // cache. Thread-safe.
  void bind_model(ModelKey key, nn::NetworkDesc desc, std::uint64_t weight_bytes,
                  const void* tag = nullptr, std::vector<std::uint64_t> segment_bytes = {});
  // Tag of the bound entry; nullptr when `key` is unbound (or bound tagless).
  const void* bound_tag(ModelKey key) const;
  bool has_model(ModelKey key) const;

  // Modelled milliseconds of one image's MC inference at {L, S} on tenant
  // `key` — cached per (L, S) pair; thread-safe.
  double modelled_ms(ModelKey key, int bayes_layers, int num_samples) const;

  // Modelled cost of the FIRST accelerator pass a request triggers: the
  // screening pass for routed requests, the full-S pass otherwise. This is
  // the dispatcher's group-ranking unit (the escalation second pass is not
  // known at dispatch time).
  double first_pass_ms(ModelKey key, const RequestOptions& options) const;

  // Worst-case modelled total: first pass plus the full-S escalation pass
  // for routed requests. The adaptive policy's admission unit — overload
  // decisions assume a routed request may escalate.
  double admission_ms(ModelKey key, const RequestOptions& options) const;

  // Modelled cost after a shedding downgrade: screening pass only for
  // routed requests (the downgrade's saving), the full pass otherwise.
  double downgraded_ms(ModelKey key, const RequestOptions& options) const;

  // Modelled milliseconds of loading tenant `key`'s weights back from DDR
  // after an eviction (core::DdrModel transfer at the NNE clock). Charged
  // on top of the first pass / admission cost of the request whose resolve
  // paid the reload. This is the WHOLE-PLAN price, the all-missing case of
  // reload_ms.
  double cold_reload_ms(ModelKey key) const;

  // Modelled milliseconds of the DDR transfer of exactly the `missing`
  // segments' bytes (layer indices, as ModelRegistry::Bound::missing
  // reports them) — resolve() builds every missing segment before the
  // first layer runs, so nothing overlaps the transfer. 0 when nothing is
  // missing. Requires segment_bytes at bind; falls back to cold_reload_ms
  // when absent. Throws on an out-of-range index.
  double reload_ms(ModelKey key, const std::vector<int>& missing) const;

  // Global calibration scale onto measured wall milliseconds (default
  // identity). Set once at startup, before concurrent readers exist.
  void set_calibration(core::PerfCalibration calibration) { calibration_ = calibration; }
  const core::PerfCalibration& calibration() const { return calibration_; }

  // Per-tenant calibration override (a tenant whose measured/modelled ratio
  // differs from the anchor's). Thread-safe.
  void set_model_calibration(ModelKey key, core::PerfCalibration calibration);

  // Modelled milliseconds mapped onto the calibrated wall clock — the
  // tenant's override when set, the global scale otherwise.
  double wall_ms(ModelKey key, double modelled) const;

  int num_sites(ModelKey key) const;

 private:
  struct Entry {
    nn::NetworkDesc desc;
    int num_sites = 0;
    std::uint64_t weight_bytes = 0;
    std::vector<std::uint64_t> segment_bytes;  // per-layer reload payloads
    const void* tag = nullptr;
    std::optional<core::PerfCalibration> calibration;
    std::map<std::pair<int, int>, double> cache;
  };

  Entry& entry_locked(ModelKey key) const;
  double modelled_ms_locked(Entry& entry, int bayes_layers, int num_samples) const;
  // Modelled milliseconds of one DDR transfer of `bytes` at the NNE clock.
  double transfer_ms(std::uint64_t bytes) const;

  core::PerfConfig config_;
  bool use_intermediate_caching_;
  core::PerfCalibration calibration_;
  mutable std::mutex mutex_;
  // unique_ptr so entries stay put as tenants bind (indexed by ModelKey).
  mutable std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace bnn::serve

#endif  // BNN_SERVE_COST_MODEL_H
