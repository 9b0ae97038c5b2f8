// The benchmark's workloads and its per-layer suite. Each fills a Report:
// untraced runs set the end-to-end metrics, traced runs the per-layer ones.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>

#include "common.h"

namespace bnn::runtime {
class ThreadPool;
}

namespace perfbench {

/// Pool lanes, server replicas: sized for a 4-core host.
inline constexpr int kLanes = 4;
inline constexpr int kReplicas = 2;
/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 7;
/// --seconds of the serving probe inside traced offline runs.
inline constexpr double kServingProbeSeconds = 4.0;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// resnet18_partial_bayes / vgg11_opt_latency: closed loop, one image per
/// core::Accelerator::predict_batch call.
void run_offline(const RunOptions& options, bnn::runtime::ThreadPool& pool, Tracer& tracer,
                 Report& report);

/// serve_multi_tenant: open loop through serve::Server over a
/// serve::ModelRegistry. Traced, it plays the reference rate only, in
/// alternating untraced and traced windows, and reports the serving layer's
/// per-layer metrics; the traced runs of the offline workloads use it as a
/// short probe of that layer.
void run_serving(const RunOptions& options, bnn::runtime::ThreadPool& pool, Tracer& tracer,
                 Report& report);

/// Traced runs only: times each module's public functions from outside, on
/// the paper networks and the serving tenants (independent of --seed).
void run_layer_suite(bnn::runtime::ThreadPool& pool, Tracer& tracer, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
