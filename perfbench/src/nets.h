// The paper networks the offline workloads run, built from pinned seeds and
// quantized in-process on synthetic calibration images (no training, no
// on-disk weight cache: host speed does not depend on trained values), plus
// the seeded workload inputs.
#ifndef PERFBENCH_NETS_H
#define PERFBENCH_NETS_H

#include <cstdint>
#include <memory>
#include <string>

#include "core/accelerator.h"
#include "nn/models.h"
#include "nn/tensor.h"
#include "quant/qnetwork.h"

namespace perfbench {

enum class PaperNet { vgg11, resnet18 };

const char* net_name(PaperNet net);

/// One offline workload: a paper network at one of Table III's {L, S} points.
struct OfflineSpec {
  const char* workload;
  PaperNet net;
  int bayes_layers;  ///< L
  int num_samples;   ///< S
};

/// vgg11_opt_latency: VGG-11/4 at Opt-Latency, L = 1, S = 100.
/// resnet18_partial_bayes: ResNet-18/16 at L = round(2N/3) = 6 of N = 9
/// sites, S = 50.
OfflineSpec offline_spec(PaperNet net);

/// VGG-11/4 or ResNet-18/16 (the model zoo's default widths), float
/// weights from a pinned seed.
bnn::nn::Model make_paper_model(PaperNet net);

/// Quantizes `model` on a pinned synthetic calibration set.
bnn::quant::QuantNetwork quantize_paper_model(PaperNet net, bnn::nn::Model& model);

/// make_paper_model + quantize_paper_model.
bnn::quant::QuantNetwork build_paper_network(PaperNet net);

/// `count` input images (N, 3, 32, 32) drawn from the synthetic dataset of
/// the network's paper slot (SVHN-like for VGG-11, objects for ResNet-18),
/// generated from `seed`.
bnn::nn::Tensor paper_inputs(PaperNet net, int count, std::uint64_t seed);

/// The paper's accelerator design point (PC=64, PF=64, PV=1 @ 225 MHz)
/// driven through `lanes` lanes of `pool`.
bnn::core::AcceleratorConfig paper_accel_config(bnn::runtime::ThreadPool* pool, int lanes);

}  // namespace perfbench

#endif  // PERFBENCH_NETS_H
