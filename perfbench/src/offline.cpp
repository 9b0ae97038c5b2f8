// Offline closed-loop workloads: one image per predict_batch call on a paper
// network at a Table III {L, S} point.
#include <algorithm>
#include <memory>
#include <vector>

#include "core/bernoulli_sampler.h"
#include "nets.h"
#include "quant/qops.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using bnn::core::Accelerator;

constexpr int kInputPool = 32;  // seeded images the loop cycles through
// Calls whose bit-for-bit reference check is affordable: every call of the
// Opt-Latency workload (its reference pass costs about one call); a stated
// subset of the ResNet workload, whose reference pass costs ~3x a call.
constexpr std::size_t kResnetChecked = 4;
constexpr int kWindows = 8;

struct Call {
  int image = 0;
  std::uint64_t stream = 0;
  double ms = 0.0;
  bool traced = false;
  bnn::nn::Tensor probs;  // (1, K)
};

// Runs calls until `seconds` elapse, appending to `calls`.
void closed_loop(Accelerator& accelerator, const OfflineSpec& spec,
                 const bnn::nn::Tensor& inputs, double seconds, Tracer& tracer,
                 std::vector<Call>& calls) {
  const Clock::time_point start = Clock::now();
  while (ms_since(start) < seconds * 1000.0) {
    Call call;
    call.stream = calls.size();
    call.image = static_cast<int>(call.stream % kInputPool);
    const bnn::nn::Tensor image = inputs.batch_row(call.image);
    const std::vector<Accelerator::ImageRequest> request{
        {spec.bayes_layers, spec.num_samples, call.stream}};
    const Scope root(tracer, "bench.call", -1, static_cast<std::int64_t>(call.stream));
    const Clock::time_point called = Clock::now();
    {
      const Scope span(tracer, "core.predict_batch", root.index(),
                       static_cast<std::int64_t>(call.stream));
      call.probs = accelerator.predict_batch(image, request).probs;
    }
    call.ms = ms_since(called);
    call.traced = tracer.enabled();
    calls.push_back(std::move(call));
  }
}

// Bit-for-bit check of the chosen calls against quant::ref_mc_predict with
// the accelerator's per-(stream, sample) sampler lanes. Returns mismatches.
std::uint64_t verify(const Accelerator& accelerator, const OfflineSpec& spec,
                     const bnn::nn::Tensor& inputs, const std::vector<Call>& calls,
                     const std::vector<std::size_t>& chosen, bnn::runtime::ThreadPool& pool,
                     Tracer& tracer) {
  const bnn::quant::QuantNetwork& net = accelerator.network();
  const bnn::core::AcceleratorConfig& config = accelerator.config();
  std::vector<char> bad(chosen.size(), 0);
  const Scope root(tracer, "bench.verify");
  pool.parallel_for(
      static_cast<std::int64_t>(chosen.size()),
      [&](std::int64_t k) {
        const Call& call = calls[chosen[static_cast<std::size_t>(k)]];
        const bnn::quant::MaskStreamFactory streams =
            [&](int, int sample) -> std::unique_ptr<bnn::nn::MaskSource> {
          bnn::core::BernoulliSamplerConfig sampler;
          sampler.p = net.dropout_p;
          sampler.pf = config.nne.pf;
          sampler.fifo_depth = config.sampler_fifo_depth;
          sampler.seed = Accelerator::sample_stream_seed(config.sampler_seed, call.stream, sample);
          return std::make_unique<bnn::core::BernoulliSampler>(sampler);
        };
        const Scope span(tracer, "quant.ref_mc_predict", root.index(),
                         static_cast<std::int64_t>(call.stream));
        const bnn::nn::Tensor expected =
            bnn::quant::ref_mc_predict(net, inputs.batch_row(call.image), spec.bayes_layers,
                                       spec.num_samples, streams, config.use_intermediate_caching);
        bad[static_cast<std::size_t>(k)] = !(expected.shape() == call.probs.shape() &&
                                             std::equal(expected.data(),
                                                        expected.data() + expected.numel(),
                                                        call.probs.data()));
      },
      kLanes);
  return static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), 1));
}

std::vector<double> call_ms(const std::vector<Call>& calls, bool traced) {
  std::vector<double> ms;
  for (const Call& call : calls)
    if (call.traced == traced) ms.push_back(call.ms);
  return ms;
}

}  // namespace

void run_offline(const RunOptions& options, bnn::runtime::ThreadPool& pool, Tracer& tracer,
                 Report& report) {
  const PaperNet net =
      options.workload == "vgg11_opt_latency" ? PaperNet::vgg11 : PaperNet::resnet18;
  const OfflineSpec spec = offline_spec(net);

  // Set-up, repeated: float model from its pinned seed, in-process
  // quantization, accelerator (and its execution plan) construction.
  std::vector<double> setup_ms;
  std::unique_ptr<Accelerator> accelerator;
  for (int r = 0; r < kSetupRepeats; ++r) {
    accelerator.reset();
    const Clock::time_point started = Clock::now();
    const Scope setup(tracer, "bench.setup");
    bnn::nn::Model model = [&] {
      const Scope span(tracer, "nn.make_model", setup.index());
      return make_paper_model(net);
    }();
    bnn::quant::QuantNetwork qnet = [&] {
      const Scope span(tracer, "quant.quantize_model", setup.index());
      return quantize_paper_model(net, model);
    }();
    {
      const Scope span(tracer, "core.Accelerator", setup.index());
      accelerator = std::make_unique<Accelerator>(std::move(qnet),
                                                  paper_accel_config(&pool, kLanes));
    }
    setup_ms.push_back(ms_since(started));
  }

  const bnn::nn::Tensor inputs = paper_inputs(net, kInputPool, options.seed);
  // Warm-up on a stream id no timed call uses: pool threads, lane arenas.
  (void)accelerator->predict_batch(inputs.batch_row(0),
                                   {{spec.bayes_layers, spec.num_samples, ~0ull >> 1}});

  // Timed loop. A traced run alternates untraced and traced windows and
  // compares the two for the tracing overhead.
  std::vector<Call> calls;
  Tracer off(false);
  const Clock::time_point loop_start = Clock::now();
  if (options.trace) {
    for (int w = 0; w < 2 * kWindows; ++w)
      closed_loop(*accelerator, spec, inputs, options.seconds / (2 * kWindows),
                  w % 2 ? tracer : off, calls);
  } else {
    closed_loop(*accelerator, spec, inputs, options.seconds, off, calls);
  }
  const double loop_s = ms_since(loop_start) / 1000.0;

  std::vector<std::size_t> chosen;
  if (net == PaperNet::vgg11) {
    for (std::size_t i = 0; i < calls.size(); ++i) chosen.push_back(i);
  } else {
    bnn::util::Rng pick(options.seed ^ 0x5eedull);
    chosen.push_back(0);
    while (chosen.size() < std::min(kResnetChecked, calls.size())) {
      const auto i =
          static_cast<std::size_t>(pick.uniform_int(1, static_cast<int>(calls.size()) - 1));
      if (std::find(chosen.begin(), chosen.end(), i) == chosen.end()) chosen.push_back(i);
    }
  }
  const std::uint64_t mismatches =
      verify(*accelerator, spec, inputs, calls, chosen, pool, tracer);
  report.attempted = calls.size();
  report.failed = mismatches;
  report.note("checked_calls", std::to_string(chosen.size()));

  const double modelled_ms =
      accelerator->estimate(spec.bayes_layers, spec.num_samples).latency_ms;
  report.note("modelled_ms_per_image", json_number(modelled_ms));
  report.note("setup_ms", [&] {
    std::string list = "[";
    for (double ms : setup_ms) list += (list.size() > 1 ? ", " : "") + json_number(ms);
    return list + "]";
  }());

  if (!options.trace) {
    // Medians over kWindows consecutive windows of the loop: a window
    // disturbed by a neighbour on a shared host is outvoted.
    const auto windows = split_windows(call_ms(calls, false), kWindows);
    const Windowed latency = windowed(windows);
    std::vector<double> rates;
    for (const std::vector<double>& window : windows) {
      double busy_ms = 0.0;
      for (double ms : window) busy_ms += ms;
      rates.push_back(1000.0 * window.size() / busy_ms);
    }
    report.set("setup_s", median(setup_ms) / 1000.0, "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    report.set("ok_share", 1.0 - static_cast<double>(mismatches) / calls.size(), "share");
    report.set("images_per_s", median(rates), "1/s");
    report.set("latency_p50_ms", latency.p50, "ms");
    report.set("latency_tail_ms", latency.tail.value, "ms");
    // One caller with one call in flight: the highest arrival rate it
    // sustains without a growing backlog is its completion rate.
    report.set("max_rate_rps", median(rates), "1/s");
    report.note_windowed("latency", latency);
    report.note("loop_s", json_number(loop_s));
    return;
  }

  const double untraced_p50 = median(call_ms(calls, false));
  const double traced_p50 = median(call_ms(calls, true));
  report.set("bench.trace_overhead_pct", (traced_p50 / untraced_p50 - 1.0) * 100.0, "%");
}

}  // namespace perfbench
