// The per-layer suite of traced runs: each src/ module's public functions,
// called and timed from outside on the paper networks and the serving
// tenants. Inputs are pinned (independent of --seed).
#include <algorithm>
#include <string>
#include <vector>

#include "bench/serve_fixture.h"
#include "core/bernoulli_sampler.h"
#include "core/nne.h"
#include "core/perf_model.h"
#include "nets.h"
#include "nn/gemm_kernels.h"
#include "quant/qops.h"
#include "quant/qplan.h"
#include "runtime/thread_pool.h"
#include "serve/model_registry.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using bnn::quant::QTensor;

constexpr std::uint64_t kSuiteInputSeed = 777;
constexpr int kServePairs = 64;  // a full serving batch: max_batch 8 x S 8

// Median over `repeats` timings of body(), in ms.
template <typename Body>
double median_ms(int repeats, Body&& body) {
  std::vector<double> ms;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point started = Clock::now();
    body();
    ms.push_back(ms_since(started));
  }
  return median(ms);
}

std::string layer_tag(int l) {
  return (l < 10 ? "l0" : "l") + std::to_string(l);
}

// Every layer's deterministic (no active site) output on one real image,
// run through the NNE with the accelerator's plan and kernel cap.
std::vector<QTensor> deterministic_pass(const bnn::quant::QuantNetwork& net,
                                        const bnn::quant::NetworkExecPlan& plan,
                                        const QTensor& image,
                                        const bnn::core::NneConfig& config) {
  std::vector<QTensor> outputs(net.layers.size());
  bnn::core::NneScratch scratch;
  for (int l = 0; l < net.num_layers(); ++l) {
    const bnn::quant::QLayer& layer = net.layers[static_cast<std::size_t>(l)];
    const QTensor& input =
        layer.input_source < 0 ? image : outputs[static_cast<std::size_t>(layer.input_source)];
    const QTensor* shortcut =
        layer.geom.has_shortcut ? &outputs[static_cast<std::size_t>(layer.shortcut_source)]
                                : nullptr;
    bnn::core::nne_run_layer_into(layer, plan.layer(l), input, shortcut, false, nullptr,
                                  net.dropout_keep, config, bnn::nn::kernels::Tier::bitpack,
                                  scratch, outputs[static_cast<std::size_t>(l)]);
  }
  return outputs;
}

void paper_network_suite(PaperNet which, bnn::runtime::ThreadPool& pool, Tracer& tracer,
                         Report& report) {
  const std::string name = net_name(which);
  const OfflineSpec spec = offline_spec(which);
  const bnn::quant::QuantNetwork net = build_paper_network(which);
  const bnn::core::AcceleratorConfig config = paper_accel_config(&pool, kLanes);
  const bnn::nn::Tensor images = paper_inputs(which, 1, kSuiteInputSeed);

  // quant: execution-plan build, image quantization, one reference pass.
  bnn::quant::NetworkExecPlan plan;
  {
    const Scope span(tracer, "quant.build_network_exec_plan");
    report.set("quant.plan_build." + name + ".us",
               1000.0 * median_ms(5, [&] { plan = bnn::quant::build_network_exec_plan(net); }),
               "us");
  }
  QTensor image;
  if (which == PaperNet::vgg11) {
    const Scope span(tracer, "quant.quantize_image");
    report.set("quant.quantize_image.us", 1000.0 * median_ms(101, [&] {
                 image = bnn::quant::quantize_image(images, 0, net.input);
               }),
               "us");
  }
  image = bnn::quant::quantize_image(images, 0, net.input);
  const std::vector<QTensor> outputs = deterministic_pass(net, plan, image, config.nne);
  const auto input_of = [&](const bnn::quant::QLayer& layer) -> const QTensor& {
    return layer.input_source < 0 ? image
                                  : outputs[static_cast<std::size_t>(layer.input_source)];
  };
  const auto shortcut_of = [&](const bnn::quant::QLayer& layer) -> const QTensor* {
    return layer.geom.has_shortcut ? &outputs[static_cast<std::size_t>(layer.shortcut_source)]
                                   : nullptr;
  };
  {
    const Scope span(tracer, "quant.ref_run_layer");
    report.set("quant.ref." + name + ".pass_ms", median_ms(3, [&] {
                 for (int l = 0; l < net.num_layers(); ++l) {
                   const auto& layer = net.layers[static_cast<std::size_t>(l)];
                   (void)bnn::quant::ref_run_layer(layer, plan.layer(l),
                                                   bnn::nn::kernels::Tier::int8, input_of(layer),
                                                   shortcut_of(layer), false, nullptr,
                                                   net.dropout_keep);
                 }
               }),
               "ms");
  }

  // core: host ms per NNE layer call on its real input, one lane, next to
  // the modelled cycles of the same layer.
  std::vector<double> layer_ms;
  bnn::core::NneScratch scratch;
  QTensor out;
  for (int l = 0; l < net.num_layers(); ++l) {
    const auto& layer = net.layers[static_cast<std::size_t>(l)];
    const Scope span(tracer, "core.nne_run_layer_into", -1, l);
    layer_ms.push_back(median_ms(which == PaperNet::vgg11 ? 9 : 5, [&] {
      bnn::core::nne_run_layer_into(layer, plan.layer(l), input_of(layer), shortcut_of(layer),
                                    false, nullptr, net.dropout_keep, config.nne,
                                    config.kernel_tier, scratch, out);
    }));
    report.set("core.nne." + name + "." + layer_tag(l) + ".ms", layer_ms.back(), "ms");
    report.set("core.model." + name + "." + layer_tag(l) + ".cycles",
               static_cast<double>(bnn::core::estimate_layer_cycles(layer.geom, config.nne)),
               "cycles");
  }
  bnn::core::Accelerator accelerator(net, config);
  report.set("core.model." + std::string(spec.workload) + ".cycles_per_image",
             accelerator.estimate(spec.bayes_layers, spec.num_samples).total_cycles, "cycles");

  // core.predict_batch at the workload's {L, S}: 1-lane over 4-lane wall
  // time, and the 1-lane remainder not spent in NNE layer calls
  // (quantization, scheduling, IC wait, sampler, softmax, reduction).
  const std::vector<bnn::core::Accelerator::ImageRequest> request{
      {spec.bayes_layers, spec.num_samples, 0}};
  const int repeats = which == PaperNet::vgg11 ? 7 : 2;
  (void)accelerator.predict_batch(images, request);  // warm-up
  double wall[2] = {0.0, 0.0};
  for (int lanes : {1, kLanes}) {
    accelerator.set_num_threads(lanes);
    const Scope span(tracer, "core.predict_batch", -1, lanes);
    wall[lanes == 1 ? 0 : 1] =
        median_ms(repeats, [&] { (void)accelerator.predict_batch(images, request); });
  }
  const int cut = net.cut_layer_for(spec.bayes_layers);
  double covered = 0.0;
  for (int l = 0; l < net.num_layers(); ++l)
    covered += layer_ms[static_cast<std::size_t>(l)] * (l <= cut ? 1 : spec.num_samples);
  const double speedup = wall[0] / wall[1];
  report.set(std::string("core.predict_batch.self_ms.") + spec.workload, wall[0] - covered, "ms");
  report.set(std::string("core.predict_batch.lane_speedup.") + spec.workload, speedup, "x");
  if (speedup > kLanes)
    report.note(std::string("noise.lane_speedup.") + spec.workload,
                "\"lane speedup " + json_number(speedup) + " exceeds " +
                    std::to_string(kLanes) + " lanes: timing noise\"");

  // nn: the int8 dot kernel on VGG-11/4's largest conv row.
  if (which != PaperNet::vgg11) return;
  int terms = 0;
  for (const auto& layer : net.layers)
    if (layer.geom.op == bnn::nn::HwLayer::Op::conv)
      terms = std::max(terms, layer.geom.in_c * layer.geom.kernel * layer.geom.kernel);
  std::vector<std::int8_t> x(static_cast<std::size_t>(terms)), w(x.size());
  bnn::util::Rng rng(kSuiteInputSeed);
  for (std::size_t t = 0; t < x.size(); ++t) {
    x[t] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    w[t] = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  const Scope span(tracer, "nn.dot_i8_zp");
  constexpr int kCalls = 20000;
  volatile std::int64_t sink = 0;
  const double ms = median_ms(5, [&] {
    std::int64_t acc = 0;  // kCalls int32 dots overflow an int32 sum
    for (int i = 0; i < kCalls; ++i)
      acc += bnn::nn::kernels::dot_i8_zp(x.data(), w.data(), terms, i & 7);
    sink = acc;
  });
  (void)sink;
  report.set("nn.kernels.dot_i8_zp.gmac_s",
             static_cast<double>(kCalls) * terms / (ms * 1e6), "GMAC/s");
}

void serving_suite(Tracer& tracer, Report& report) {
  std::vector<bnn::bench::ServeFixture> fixtures;
  {
    const Scope span(tracer, "train.fixtures");
    for (std::uint32_t id : {bnn::bench::kWorkloadCnn12, bnn::bench::kWorkloadMlp49,
                             bnn::bench::kWorkloadCnn12b})
      fixtures.push_back(bnn::bench::make_workload_fixture(id));
  }
  bnn::serve::ModelRegistry registry;
  std::vector<std::shared_ptr<const bnn::quant::QuantNetwork>> networks;
  for (const auto& fixture : fixtures)
    networks.push_back(registry
                           .publish(bnn::bench::workload_model_name(fixture.workload_id),
                                    fixture.qnet)
                           ->network);
  {
    const Scope span(tracer, "quant.build_network_exec_plan");
    report.set("quant.plan_build.serve.us", 1000.0 * median_ms(5, [&] {
                 for (const auto& network : networks)
                   (void)bnn::quant::build_network_exec_plan(*network);
               }),
               "us");
  }
  const Scope span(tracer, "serve.ModelRegistry::resolve");
  report.set("serve.registry.resolve_hot_us",
             1000.0 * median_ms(201, [&] { (void)registry.resolve("cnn12"); }), "us");
  std::vector<double> cold_ms;
  for (int r = 0; r < 51; ++r) {
    registry.evict_segments("cnn12", 0);
    const Clock::time_point started = Clock::now();
    (void)registry.resolve("cnn12");
    cold_ms.push_back(ms_since(started));
  }
  report.set("serve.registry.resolve_cold_us", 1000.0 * median(cold_ms), "us");
}

}  // namespace

void run_layer_suite(bnn::runtime::ThreadPool& pool, Tracer& tracer, Report& report) {
  paper_network_suite(PaperNet::vgg11, pool, tracer, report);
  paper_network_suite(PaperNet::resnet18, pool, tracer, report);
  serving_suite(tracer, report);

  {
    const Scope span(tracer, "core.BernoulliSampler::next_drop");
    bnn::core::BernoulliSamplerConfig config;  // p = 0.25, PF = 64: the paper's sampler
    bnn::core::BernoulliSampler sampler(config);
    constexpr int kBits = 1 << 20;
    int drops = 0;
    const double ms = median_ms(3, [&] {
      for (int i = 0; i < kBits; ++i) drops += sampler.next_drop() ? 1 : 0;
    });
    report.set("core.sampler.mask_bits_per_s", kBits / (ms / 1000.0), "1/s");
    report.note("sampler_drop_share", json_number(drops / (3.0 * kBits)));
  }
  {
    const Scope span(tracer, "runtime.parallel_for");
    report.set("runtime.parallel_for.us", 1000.0 * median_ms(1001, [&] {
                 pool.parallel_for(kServePairs, [](std::int64_t) {}, kLanes);
               }),
               "us");
  }
}

}  // namespace perfbench
