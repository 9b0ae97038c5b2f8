// Intermediate-layer caching (paper Fig. 4 / Section III-C) in action:
// sweep the Bayesian portion L and sample count S on the performance model
// and show where IC wins — and that it never changes the prediction (the
// functional accelerator is run both ways on a real quantized network).
//
// Build & run:  ./build/examples/partial_bayes_ic
#include <cstdio>

#include "core/accelerator.h"
#include "data/synth.h"
#include "nn/models.h"
#include "train/trainer.h"
#include "util/table.h"

int main() {
  using namespace bnn;

  // --- Modelled latencies on the paper's LeNet-5 geometry (no training
  // needed: the performance model only reads shapes).
  util::Rng rng(1);
  nn::Model lenet = nn::make_lenet5(rng);
  const nn::NetworkDesc desc = lenet.describe();

  core::PerfConfig perf;  // PC=64, PF=64, PV=1 @ 225 MHz
  util::TextTable table(
      "LeNet-5 on the modelled accelerator: latency [ms] with / without IC");
  table.set_header({"L", "S", "w/ IC", "w/o IC", "speedup", "DDR saved"});
  for (int bayes_layers : {1, 2, 4}) {
    for (int samples : {10, 50, 100}) {
      const core::RunStats with_ic =
          core::estimate_mc(desc, perf, bayes_layers, samples, true);
      const core::RunStats without_ic =
          core::estimate_mc(desc, perf, bayes_layers, samples, false);
      table.add_row({std::to_string(bayes_layers), std::to_string(samples),
                     util::fixed(with_ic.latency_ms, 3),
                     util::fixed(without_ic.latency_ms, 3),
                     util::fixed(without_ic.total_cycles / with_ic.total_cycles, 2) + "x",
                     util::fixed(100.0 * (1.0 - static_cast<double>(with_ic.ddr_bytes) /
                                                    static_cast<double>(without_ic.ddr_bytes)),
                                 1) +
                         "%"});
    }
    table.add_separator();
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Reading the table: IC pays the deterministic prefix once instead of S\n"
              "times, so the win is largest for small L and large S, and shrinks as\n"
              "more of the network turns Bayesian - the paper's Table III trend.\n\n");

  // --- Functional proof on a real (small) quantized network.
  std::printf("Functional check on a trained tiny CNN (int8, simulated NNE):\n");
  util::Rng model_rng(2);
  nn::Model model = nn::make_tiny_cnn(model_rng, 10, 1, 12);
  util::Rng data_rng(3);
  data::Dataset digits = data::make_synth_digits(400, data_rng);
  nn::Tensor small({digits.size(), 1, 12, 12});
  for (int n = 0; n < digits.size(); ++n)
    for (int y = 0; y < 12; ++y)
      for (int x = 0; x < 12; ++x)
        small.v4(n, 0, y, x) = digits.images().v4(n, 0, 2 + 2 * y, 2 + 2 * x);
  data::Dataset dataset(std::move(small), digits.labels(), 10);

  model.set_bayesian_last(0);
  train::TrainConfig config;
  config.epochs = 3;
  config.batch_size = 16;
  train::fit(model, dataset, config);
  quant::QuantNetwork qnet = quant::quantize_model(model, dataset);

  core::AcceleratorConfig with_ic_config;
  with_ic_config.sampler_seed = 2024;
  core::AcceleratorConfig without_ic_config = with_ic_config;
  without_ic_config.use_intermediate_caching = false;

  core::Accelerator accel_ic(qnet, with_ic_config);
  core::Accelerator accel_plain(qnet, without_ic_config);
  const data::Batch batch = dataset.batch(0, 8);
  const auto a = accel_ic.predict(batch.images, /*bayes_layers=*/2, /*num_samples=*/20);
  const auto b = accel_plain.predict(batch.images, 2, 20);

  std::printf("  max |prob difference| IC vs no-IC : %g (bit-exact)\n",
              static_cast<double>(a.probs.max_abs_diff(b.probs)));
  std::printf("  modelled latency                  : %.3f ms vs %.3f ms\n",
              a.stats.latency_ms, b.stats.latency_ms);
  std::printf("  PE cycles charged (closed form)    : %lld vs %lld\n",
              static_cast<long long>(accel_ic.last_functional_compute_cycles()),
              static_cast<long long>(accel_plain.last_functional_compute_cycles()));
  return 0;
}
