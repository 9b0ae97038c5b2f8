#include "serve/cost_model.h"

#include "serve/server.h"
#include "util/check.h"

namespace bnn::serve {

CostModel::CostModel(core::PerfConfig config, bool use_intermediate_caching)
    : config_(config), use_intermediate_caching_(use_intermediate_caching) {}

void CostModel::bind_model(ModelKey key, nn::NetworkDesc desc, std::uint64_t weight_bytes,
                           const void* tag, std::vector<std::uint64_t> segment_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.size() <= key) entries_.resize(static_cast<std::size_t>(key) + 1);
  auto entry = std::make_unique<Entry>();
  entry->num_sites = desc.num_sites();
  entry->desc = std::move(desc);
  entry->weight_bytes = weight_bytes;
  entry->segment_bytes = std::move(segment_bytes);
  entry->tag = tag;
  // A swap keeps the tenant's calibration override: the scale corrects for
  // simulator-vs-model skew of the HOST, not of one weight set.
  if (entries_[key] != nullptr) entry->calibration = entries_[key]->calibration;
  entries_[key] = std::move(entry);
}

const void* CostModel::bound_tag(ModelKey key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (key >= entries_.size() || entries_[key] == nullptr) return nullptr;
  return entries_[key]->tag;
}

bool CostModel::has_model(ModelKey key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return key < entries_.size() && entries_[key] != nullptr;
}

CostModel::Entry& CostModel::entry_locked(ModelKey key) const {
  util::require(key < entries_.size() && entries_[key] != nullptr,
                "cost model: unbound model key");
  return *entries_[key];
}

double CostModel::modelled_ms_locked(Entry& entry, int bayes_layers, int num_samples) const {
  const int layers = bayes_layers < 0 ? entry.num_sites : bayes_layers;
  const auto key = std::make_pair(layers, num_samples);
  const auto hit = entry.cache.find(key);
  if (hit != entry.cache.end()) return hit->second;
  const double ms =
      core::estimate_mc(entry.desc, config_, layers, num_samples, use_intermediate_caching_)
          .latency_ms;
  entry.cache.emplace(key, ms);
  return ms;
}

double CostModel::modelled_ms(ModelKey key, int bayes_layers, int num_samples) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return modelled_ms_locked(entry_locked(key), bayes_layers, num_samples);
}

double CostModel::first_pass_ms(ModelKey key, const RequestOptions& options) const {
  const int samples = options.use_uncertainty_router ? options.screening_samples
                                                     : options.num_samples;
  return modelled_ms(key, options.bayes_layers, samples);
}

double CostModel::admission_ms(ModelKey key, const RequestOptions& options) const {
  double ms = first_pass_ms(key, options);
  // An escalation recomputes the full S from scratch.
  if (options.use_uncertainty_router)
    ms += modelled_ms(key, options.bayes_layers, options.num_samples);
  return ms;
}

double CostModel::downgraded_ms(ModelKey key, const RequestOptions& options) const {
  return first_pass_ms(key, options);
}

double CostModel::transfer_ms(std::uint64_t bytes) const {
  const double cycles =
      config_.ddr.transfer_cycles(static_cast<std::int64_t>(bytes), config_.nne.clock_mhz);
  // cycles / (MHz * 1e6) seconds -> * 1e3 ms.
  return cycles / (config_.nne.clock_mhz * 1e3);
}

double CostModel::cold_reload_ms(ModelKey key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return transfer_ms(entry_locked(key).weight_bytes);
}

double CostModel::reload_ms(ModelKey key, const std::vector<int>& missing) const {
  if (missing.empty()) return 0.0;
  std::lock_guard<std::mutex> lock(mutex_);
  const Entry& entry = entry_locked(key);
  if (entry.segment_bytes.empty()) return transfer_ms(entry.weight_bytes);
  std::uint64_t bytes = 0;
  for (const int index : missing) {
    util::require(index >= 0 && index < static_cast<int>(entry.segment_bytes.size()),
                  "cost model: missing segment index out of range");
    bytes += entry.segment_bytes[static_cast<std::size_t>(index)];
  }
  return transfer_ms(bytes);
}

void CostModel::set_model_calibration(ModelKey key, core::PerfCalibration calibration) {
  std::lock_guard<std::mutex> lock(mutex_);
  entry_locked(key).calibration = calibration;
}

double CostModel::wall_ms(ModelKey key, double modelled) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (key < entries_.size() && entries_[key] != nullptr &&
      entries_[key]->calibration.has_value())
    return modelled * entries_[key]->calibration->wall_ms_per_modelled_ms;
  return modelled * calibration_.wall_ms_per_modelled_ms;
}

int CostModel::num_sites(ModelKey key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entry_locked(key).num_sites;
}

}  // namespace bnn::serve
