// Microbenchmark of the simulator itself: how fast the int8 layer executor
// runs on the host, through its allocating reference form and through the
// NNE entry point at each kernel tier. Useful for
// sizing experiments; not a claim about FPGA speed (that is what the cycle
// model is for).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "data/synth.h"
#include "core/nne.h"
#include "nn/gemm_kernels.h"
#include "nn/models.h"
#include "quant/qops.h"
#include "quant/qplan.h"
#include "train/trainer.h"

namespace {

using namespace bnn;

struct Setup {
  Setup() {
    util::Rng rng(51);
    model = std::make_unique<nn::Model>(nn::make_tiny_cnn(rng, 10, 1, 12));
    util::Rng data_rng(52);
    data::Dataset digits = data::make_synth_digits(64, data_rng);
    nn::Tensor small({digits.size(), 1, 12, 12});
    for (int n = 0; n < digits.size(); ++n)
      for (int y = 0; y < 12; ++y)
        for (int x = 0; x < 12; ++x)
          small.v4(n, 0, y, x) = digits.images().v4(n, 0, 2 + 2 * y, 2 + 2 * x);
    dataset = std::make_unique<data::Dataset>(std::move(small), digits.labels(), 10);
    model->set_bayesian_last(0);
    qnet = std::make_unique<quant::QuantNetwork>(quant::quantize_model(*model, *dataset));
    image = quant::quantize_image(dataset->images(), 0, qnet->input);
  }
  std::unique_ptr<nn::Model> model;
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<quant::QuantNetwork> qnet;
  quant::QTensor image;
};

Setup& setup() {
  static Setup instance;
  return instance;
}

void bm_reference_layer(benchmark::State& state) {
  auto& s = setup();
  const quant::QLayer& layer = s.qnet->layers.front();
  for (auto _ : state) {
    auto out = quant::ref_run_layer(layer, s.image, nullptr, false, nullptr,
                                    s.qnet->dropout_keep);
    benchmark::DoNotOptimize(out.data.data());
  }
  state.SetItemsProcessed(state.iterations() * layer.geom.macs());
}
BENCHMARK(bm_reference_layer);

// The accelerator's per-layer entry point, with the plan and scratch held
// across calls as the predict lanes hold them; the argument is the tier
// (scalar, int8).
void bm_nne_layer(benchmark::State& state) {
  auto& s = setup();
  const quant::QLayer& layer = s.qnet->layers.front();
  const quant::LayerExecPlan plan = quant::build_layer_exec_plan(layer);
  const auto tier = static_cast<nn::kernels::Tier>(state.range(0));
  core::NneScratch scratch;
  quant::QTensor out;
  for (auto _ : state) {
    core::nne_run_layer_into(layer, plan, s.image, nullptr, false, nullptr,
                             s.qnet->dropout_keep, core::NneConfig{}, tier, scratch, out);
    benchmark::DoNotOptimize(out.data.data());
  }
  state.SetItemsProcessed(state.iterations() * layer.geom.macs());
  state.SetLabel(nn::kernels::tier_name(tier));
}
BENCHMARK(bm_nne_layer)->DenseRange(0, 1);

// The executor's inner product in isolation: plain per-term loop vs
// kernels::dot_i8_zp on a VGG-class term count (in_c=128, 3x3 kernel).
void bm_int8_dot_scalar(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  util::Rng rng(1234);
  std::vector<std::int8_t> x(static_cast<std::size_t>(len)), w(static_cast<std::size_t>(len));
  for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  const std::int32_t zp = -3;
  for (auto _ : state) {
    std::int32_t acc = 0;
    for (int t = 0; t < len; ++t)
      acc += (static_cast<std::int32_t>(x[static_cast<std::size_t>(t)]) - zp) *
             static_cast<std::int32_t>(w[static_cast<std::size_t>(t)]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(bm_int8_dot_scalar)->Arg(1152);

void bm_int8_dot_kernel(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  util::Rng rng(1234);
  std::vector<std::int8_t> x(static_cast<std::size_t>(len)), w(static_cast<std::size_t>(len));
  for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  const std::int32_t zp = -3;
  for (auto _ : state) {
    std::int32_t acc = nn::kernels::dot_i8_zp(x.data(), w.data(), len, zp);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(bm_int8_dot_kernel)->Arg(1152);

// Gather form used by interior conv positions (offset table replaces the
// per-term division/modulo index math).
void bm_int8_dot_gather(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  util::Rng rng(1234);
  std::vector<std::int8_t> x(static_cast<std::size_t>(len) * 4), w(static_cast<std::size_t>(len));
  for (auto& v : x) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  std::vector<std::int32_t> offsets(static_cast<std::size_t>(len));
  for (int t = 0; t < len; ++t)
    offsets[static_cast<std::size_t>(t)] = rng.uniform_int(0, 4 * len - 1);
  const std::int32_t zp = -3;
  for (auto _ : state) {
    std::int32_t acc = nn::kernels::dot_i8_zp_gather(x.data(), offsets.data(), w.data(), len, zp);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(bm_int8_dot_gather)->Arg(1152);

void bm_full_network_reference(benchmark::State& state) {
  auto& s = setup();
  for (auto _ : state) {
    auto outputs = quant::ref_forward(*s.qnet, s.image, 0, nullptr);
    benchmark::DoNotOptimize(outputs.back().data.data());
  }
  state.SetItemsProcessed(state.iterations() * s.qnet->describe().total_macs());
}
BENCHMARK(bm_full_network_reference);

}  // namespace

BENCHMARK_MAIN();
