#include "nets.h"

#include "data/synth.h"
#include "util/rng.h"

namespace perfbench {

namespace {

// Pinned seeds: weights and calibration images never depend on --seed.
constexpr std::uint64_t kVggWeightSeed = 201;
constexpr std::uint64_t kResnetWeightSeed = 301;
constexpr std::uint64_t kCalibrationSeed = 4242;
constexpr int kCalibrationImages = 16;

bnn::data::Dataset synth_for(PaperNet net, int count, bnn::util::Rng& rng) {
  return net == PaperNet::vgg11 ? bnn::data::make_synth_svhn(count, rng)
                                : bnn::data::make_synth_objects(count, rng);
}

}  // namespace

const char* net_name(PaperNet net) { return net == PaperNet::vgg11 ? "vgg11" : "resnet18"; }

OfflineSpec offline_spec(PaperNet net) {
  if (net == PaperNet::vgg11) return {"vgg11_opt_latency", net, 1, 100};
  constexpr int kSites = 9;
  return {"resnet18_partial_bayes", net, (2 * kSites + 1) / 3, 50};
}

bnn::nn::Model make_paper_model(PaperNet net) {
  bnn::util::Rng weight_rng(net == PaperNet::vgg11 ? kVggWeightSeed : kResnetWeightSeed);
  return net == PaperNet::vgg11 ? bnn::nn::make_vgg11(weight_rng)
                                : bnn::nn::make_resnet18(weight_rng);
}

bnn::quant::QuantNetwork quantize_paper_model(PaperNet net, bnn::nn::Model& model) {
  bnn::util::Rng calibration_rng(kCalibrationSeed);
  const bnn::data::Dataset calibration = synth_for(net, kCalibrationImages, calibration_rng);
  bnn::quant::CalibrationOptions options;
  options.max_images = kCalibrationImages;
  return bnn::quant::quantize_model(model, calibration, options);
}

bnn::quant::QuantNetwork build_paper_network(PaperNet net) {
  bnn::nn::Model model = make_paper_model(net);
  return quantize_paper_model(net, model);
}

bnn::nn::Tensor paper_inputs(PaperNet net, int count, std::uint64_t seed) {
  bnn::util::Rng rng(seed);
  return synth_for(net, count, rng).images();
}

bnn::core::AcceleratorConfig paper_accel_config(bnn::runtime::ThreadPool* pool, int lanes) {
  bnn::core::AcceleratorConfig config;  // defaults are the paper's final design
  config.pool = pool;
  config.num_threads = lanes;
  return config;
}

}  // namespace perfbench
