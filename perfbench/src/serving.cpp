// Open-loop multi-tenant serving workload: seeded arrivals at a few fixed
// rates through serve::Server over a serve::ModelRegistry whose residency
// budget is below the tenants' combined segment bytes.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/serve_fixture.h"
#include "core/accelerator.h"
#include "data/synth.h"
#include "runtime/thread_pool.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using bnn::serve::Response;

// Traffic: skewed over the three fixture tenants; half the requests take the
// Opt-Uncertainty screening pass, half are direct at S = 8 and full L.
constexpr int kTenants = 3;
constexpr double kTenantShare[kTenants] = {0.6, 0.25, 0.15};  // cnn12, mlp49, cnn12b
constexpr double kRoutedShare = 0.5;
constexpr int kSamples = 8;
constexpr int kScreeningSamples = 2;
constexpr int kInputPool = 64;  // seeded images per tenant
// Longest a completion that arrives out of submit order waits to be seen.
constexpr auto kCollectorTick = std::chrono::microseconds(100);
// Residency budget as a share of the tenants' combined segment bytes.
constexpr double kBudgetShare = 0.9;

// The fixed arrival rates (1/s): the reference rate whose latency is
// reported, and the sweep whose crossing of the p99 latency limit prices
// max_rate_rps.
constexpr double kReferenceRate = 600.0;
constexpr double kSweepRates[] = {1200.0, 1600.0, 2000.0, 2400.0, 2800.0, 3200.0};
constexpr double kTopRate = kSweepRates[std::size(kSweepRates) - 1];
constexpr double kLatencyLimitMs = 50.0;
// The measured time is played as kRounds interleaved rounds of [reference
// window, sweep, flood]; each metric is the median over rounds. Shares of
// --seconds: warm-up, the reference windows, each sweep rate, the floods
// (sized at the top sweep rate).
constexpr int kRounds = 8;
constexpr double kWarmShare = 0.05;
constexpr double kReferenceShare = 0.5;
constexpr double kSweepShare = 0.05;
constexpr double kFloodShare = 0.04;

struct Tenants {
  std::vector<std::string> names;
  std::shared_ptr<bnn::serve::ModelRegistry> registry;
};

// The three serving fixtures (trained from their pinned seeds), published
// into a registry whose budget evicts the coldest segments under load.
Tenants make_tenants(Tracer& tracer, int parent) {
  Tenants tenants;
  const std::uint32_t ids[kTenants] = {bnn::bench::kWorkloadCnn12, bnn::bench::kWorkloadMlp49,
                                       bnn::bench::kWorkloadCnn12b};
  std::vector<bnn::bench::ServeFixture> fixtures;
  {
    const Scope span(tracer, "train.fixtures", parent);
    for (std::uint32_t id : ids) fixtures.push_back(bnn::bench::make_workload_fixture(id));
  }
  const Scope span(tracer, "serve.publish", parent);
  std::uint64_t total = 0;
  {
    bnn::serve::ModelRegistry probe;
    for (const auto& fixture : fixtures)
      total += probe.publish("probe", fixture.qnet)->weight_bytes;
  }
  bnn::serve::RegistryConfig config;
  config.residency_budget_bytes = static_cast<std::uint64_t>(kBudgetShare * total);
  tenants.registry = std::make_shared<bnn::serve::ModelRegistry>(config);
  for (const auto& fixture : fixtures) {
    bnn::serve::ModelConfig model;
    model.workload_id = fixture.workload_id;
    tenants.names.emplace_back(bnn::bench::workload_model_name(fixture.workload_id));
    tenants.registry->publish(tenants.names.back(), fixture.qnet, model);
  }
  return tenants;
}

bnn::serve::ServerConfig server_config(bnn::runtime::ThreadPool& pool) {
  bnn::serve::ServerConfig config;
  config.num_replicas = kReplicas;
  config.pool = &pool;
  config.num_threads = 0;  // the whole pool, split between the replicas
  config.dispatch_mode = bnn::serve::DispatchMode::cost_aware;
  config.default_model = "cnn12";
  return config;
}

// Seeded request images per tenant: 12x12 digits for the CNN tenants, the
// flattened 7x7 digit view for the MLP tenant.
std::vector<bnn::nn::Tensor> tenant_inputs(std::uint64_t seed) {
  bnn::util::Rng rng(seed);
  std::vector<bnn::nn::Tensor> inputs;
  inputs.push_back(bnn::data::make_synth_digits_small(kInputPool, rng).images());
  const bnn::data::Dataset digits = bnn::data::make_synth_digits(kInputPool, rng);
  bnn::nn::Tensor flat({kInputPool, 49, 1, 1});
  for (int n = 0; n < kInputPool; ++n)
    for (int y = 0; y < 7; ++y)
      for (int x = 0; x < 7; ++x)
        flat.v4(n, y * 7 + x, 0, 0) = digits.images().v4(n, 0, 4 * y + 2, 4 * x + 2);
  inputs.push_back(std::move(flat));
  inputs.push_back(bnn::data::make_synth_digits_small(kInputPool, rng).images());
  return inputs;
}

struct Planned {
  double due_ms = 0.0;  // offset from the phase start
  int tenant = 0;
  int image = 0;
  bool routed = false;
};

// Poisson arrivals at `rate` for `seconds` (all due at once when rate <= 0,
// `flood` requests), tenants and routing drawn from the phase's stream.
std::vector<Planned> plan_phase(std::uint64_t seed, std::uint64_t phase, double rate,
                                double seconds, int flood) {
  bnn::util::Rng rng = bnn::util::Rng(seed).fork(phase);
  std::vector<Planned> plan;
  double t = 0.0;
  while (rate > 0.0 ? true : static_cast<int>(plan.size()) < flood) {
    if (rate > 0.0) {
      t += -std::log(1.0 - rng.uniform()) * 1000.0 / rate;
      if (t >= seconds * 1000.0) break;
    }
    Planned request;
    request.due_ms = t;
    const double u = rng.uniform();
    request.tenant = u < kTenantShare[0] ? 0 : u < kTenantShare[0] + kTenantShare[1] ? 1 : 2;
    request.image = rng.uniform_int(0, kInputPool - 1);
    request.routed = rng.uniform() < kRoutedShare;
    plan.push_back(request);
  }
  return plan;
}

struct Outcome {
  Planned planned;
  double due_ms = 0.0;    // tracer-clock times
  double sent_ms = 0.0;
  double submitted_ms = 0.0;
  double ready_ms = 0.0;
  bool ok = false;
  bool traced = false;
  Response response;

  double latency_ms() const { return ready_ms - due_ms; }
};

// Plays one phase: this thread is the generator (sleeps until each due time,
// then submits), one collector thread records each future as it becomes
// ready, in completion order. Spans go to `tracer` as completions land.
std::vector<Outcome> play(bnn::serve::Server& server, const Tenants& tenants,
                          const std::vector<bnn::nn::Tensor>& inputs,
                          const std::vector<Planned>& plan, Tracer& clock, Tracer& tracer) {
  std::vector<Outcome> outcomes(plan.size());
  std::vector<bnn::serve::Request> requests(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    bnn::serve::Request& request = requests[i];
    request.image = inputs[static_cast<std::size_t>(p.tenant)].batch_row(p.image);
    request.model = tenants.names[static_cast<std::size_t>(p.tenant)];
    request.options.num_samples = kSamples;
    request.options.use_uncertainty_router = p.routed;
    request.options.screening_samples = kScreeningSamples;
    outcomes[i].planned = p;
    outcomes[i].traced = tracer.enabled();
  }

  std::mutex mutex;
  std::condition_variable handed;
  std::deque<std::pair<std::size_t, std::future<Response>>> handoff;  // guarded by mutex
  bool generated = false;                                               // guarded by mutex
  std::thread collector([&] {
    std::vector<std::pair<std::size_t, std::future<Response>>> pending;  // submit order
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (pending.empty()) handed.wait(lock, [&] { return generated || !handoff.empty(); });
        while (!handoff.empty()) {
          pending.push_back(std::move(handoff.front()));
          handoff.pop_front();
        }
        if (generated && pending.empty()) break;
      }
      // Block on the oldest request (most finish in submit order); the
      // bound lets requests that finish out of order, and new hand-offs,
      // be seen within one tick.
      pending.front().second.wait_for(kCollectorTick);
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->second.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++it;
          continue;
        }
        Outcome& outcome = outcomes[it->first];
        outcome.ready_ms = clock.now_ms();
        try {
          outcome.response = it->second.get();
          outcome.ok = true;
        } catch (...) {
          outcome.ok = false;  // rejected or failed: counted against the run
        }
        const auto id = static_cast<std::int64_t>(it->first);
        const int root = tracer.add("bench.request", outcome.due_ms, outcome.ready_ms, -1, id);
        tracer.add("serve.submit", outcome.sent_ms, outcome.submitted_ms, root, id);
        tracer.add("serve.in_flight", outcome.submitted_ms, outcome.ready_ms, root, id);
        it = pending.erase(it);
      }
    }
  });

  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(1);
  const double origin_ms = clock.to_ms(origin);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    Outcome& outcome = outcomes[i];
    outcome.due_ms = origin_ms + plan[i].due_ms;
    std::this_thread::sleep_until(
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(plan[i].due_ms)));
    outcome.sent_ms = clock.now_ms();
    std::future<Response> future;
    try {
      future = server.submit(std::move(requests[i]));
    } catch (...) {
      // Refused at submit: counted against the run, never handed over.
      outcome.submitted_ms = outcome.ready_ms = clock.now_ms();
      continue;
    }
    outcome.submitted_ms = clock.now_ms();
    {
      std::lock_guard<std::mutex> lock(mutex);
      handoff.emplace_back(i, std::move(future));
    }
    handed.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    generated = true;
  }
  handed.notify_one();
  collector.join();
  return outcomes;
}

std::vector<double> latencies(const std::vector<Outcome>& outcomes) {
  std::vector<double> ms;
  for (const Outcome& outcome : outcomes)
    if (outcome.ok) ms.push_back(outcome.latency_ms());
  return ms;
}

// One accelerator per tenant over the registry's network, with the server's
// sampler seed: the direct path every response must match bit for bit.
std::vector<std::unique_ptr<bnn::core::Accelerator>> direct_accelerators(
    const Tenants& tenants, bnn::runtime::ThreadPool& pool, int lanes) {
  std::vector<std::unique_ptr<bnn::core::Accelerator>> direct;
  for (const std::string& name : tenants.names) {
    bnn::core::AcceleratorConfig config = bnn::bench::serve_accel_config();
    config.pool = &pool;
    config.num_threads = lanes;
    direct.push_back(std::make_unique<bnn::core::Accelerator>(
        tenants.registry->current(name)->network, config));
  }
  return direct;
}

bnn::core::Accelerator::ImageRequest direct_request(const Response& response) {
  return {response.bayes_layers, response.samples_used, response.stream_id};
}

bool same_bits(const bnn::nn::Tensor& a, const bnn::nn::Tensor& b) {
  return a.numel() == b.numel() && std::equal(a.data(), a.data() + a.numel(), b.data());
}

// Batched bit-for-bit check of every served response: one predict_batch per
// tenant over all of its responses (outputs do not depend on batch
// composition). Marks mismatches not-ok; returns their count.
std::uint64_t verify_batched(std::vector<Outcome>& outcomes, const Tenants& tenants,
                             const std::vector<bnn::nn::Tensor>& inputs,
                             bnn::runtime::ThreadPool& pool, Tracer& tracer) {
  const Scope root(tracer, "bench.verify");
  auto direct = direct_accelerators(tenants, pool, kLanes);
  std::uint64_t mismatches = 0;
  for (int t = 0; t < kTenants; ++t) {
    std::vector<Outcome*> mine;
    for (Outcome& outcome : outcomes)
      if (outcome.ok && outcome.planned.tenant == t) mine.push_back(&outcome);
    if (mine.empty()) continue;
    const bnn::nn::Tensor& pool_images = inputs[static_cast<std::size_t>(t)];
    std::vector<int> shape = pool_images.shape();
    shape[0] = static_cast<int>(mine.size());
    bnn::nn::Tensor images(shape);
    const std::int64_t elems = pool_images.numel() / pool_images.size(0);
    std::vector<bnn::core::Accelerator::ImageRequest> requests;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      std::copy_n(pool_images.data() + mine[i]->planned.image * elems, elems,
                  images.data() + static_cast<std::int64_t>(i) * elems);
      requests.push_back(direct_request(mine[i]->response));
    }
    const Scope span(tracer, "core.predict_batch", root.index());
    const bnn::nn::Tensor probs =
        direct[static_cast<std::size_t>(t)]->predict_batch(images, requests).probs;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      if (same_bits(probs.batch_row(static_cast<int>(i)), mine[i]->response.probs)) continue;
      mine[i]->ok = false;
      ++mismatches;
    }
  }
  return mismatches;
}

// Traced runs: the same check one request at a time, at a replica's lane
// share, timing each direct call; returns the per-request direct ms (for
// serve.wait_ms) and counts mismatches into `mismatches`.
std::vector<double> verify_timed(std::vector<Outcome>& outcomes, const Tenants& tenants,
                                 const std::vector<bnn::nn::Tensor>& inputs,
                                 bnn::runtime::ThreadPool& pool, Tracer& tracer,
                                 std::uint64_t& mismatches) {
  const Scope root(tracer, "bench.verify");
  auto direct = direct_accelerators(tenants, pool, kLanes / kReplicas);
  std::vector<double> direct_ms(outcomes.size(), 0.0);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    Outcome& outcome = outcomes[i];
    if (!outcome.ok) continue;
    const int t = outcome.planned.tenant;
    const bnn::nn::Tensor image = inputs[static_cast<std::size_t>(t)].batch_row(
        outcome.planned.image);
    const Scope span(tracer, "core.predict_batch", root.index(), static_cast<std::int64_t>(i));
    const Clock::time_point started = Clock::now();
    const bnn::nn::Tensor probs =
        direct[static_cast<std::size_t>(t)]->predict_batch(image, {direct_request(outcome.response)})
            .probs;
    direct_ms[i] = ms_since(started);
    if (!same_bits(probs, outcome.response.probs)) {
      outcome.ok = false;
      ++mismatches;
    }
  }
  return direct_ms;
}

struct RatePoint {
  double rate = 0.0;
  std::vector<double> ms;       // latencies, pooled over the rounds
  std::vector<double> last_ms;  // latencies of each phase's last-due 5%
  double p99_ms() const { return quantile(ms, 0.99); }
  // A growing backlog shows as the last-due requests of a phase waiting past
  // the limit (the queue holds more than a limit's worth of arrivals).
  bool backlog_growing() const { return mean(last_ms) > kLatencyLimitMs; }
  bool sustained() const { return p99_ms() <= kLatencyLimitMs && !backlog_growing(); }

  void add(const std::vector<Outcome>& outcomes) {
    const std::vector<double> phase = latencies(outcomes);
    ms.insert(ms.end(), phase.begin(), phase.end());
    const std::size_t last = std::max<std::size_t>(1, phase.size() / 20);
    if (phase.size() >= last) last_ms.insert(last_ms.end(), phase.end() - last, phase.end());
  }
};

// Highest rate whose p99 meets the limit without a growing backlog,
// interpolated on p99 between the last sustained and the first failing
// fixed rate.
double max_rate(const std::vector<RatePoint>& points) {
  std::size_t fail = 0;
  while (fail < points.size() && points[fail].sustained()) ++fail;
  if (fail == points.size()) return points.back().rate;
  const RatePoint& bad = points[fail];
  if (fail == 0) return bad.rate * std::min(1.0, kLatencyLimitMs / bad.p99_ms());
  const RatePoint& good = points[fail - 1];
  const double share =
      bad.p99_ms() > kLatencyLimitMs
          ? (kLatencyLimitMs - good.p99_ms()) / (bad.p99_ms() - good.p99_ms())
          : 0.5;  // failed on backlog growth alone
  return good.rate + (bad.rate - good.rate) * std::clamp(share, 0.0, 1.0);
}

std::string points_json(const std::vector<RatePoint>& points) {
  std::string json = "[";
  for (const RatePoint& p : points) {
    if (json.size() > 1) json += ", ";
    json += "{\"rate\": " + json_number(p.rate) + ", \"p99_ms\": " + json_number(p.p99_ms()) +
            ", \"samples\": " + std::to_string(p.ms.size()) +
            ", \"backlog_growing\": " + (p.backlog_growing() ? "true" : "false") + "}";
  }
  return json + "]";
}

}  // namespace

void run_serving(const RunOptions& options, bnn::runtime::ThreadPool& pool, Tracer& tracer,
                 Report& report) {
  // Set-up, repeated: fixture networks from their pinned seeds, registry
  // publish (quantized weights, packing, segment plans), server start.
  std::vector<double> setup_ms;
  std::unique_ptr<bnn::serve::Server> server;
  Tenants tenants;
  for (int r = 0; r < kSetupRepeats; ++r) {
    server.reset();
    tenants = Tenants{};
    const Clock::time_point started = Clock::now();
    const Scope setup(tracer, "bench.setup");
    tenants = make_tenants(tracer, setup.index());
    {
      const Scope span(tracer, "serve.Server", setup.index());
      server = std::make_unique<bnn::serve::Server>(
          tenants.registry, bnn::bench::serve_accel_config(), server_config(pool));
    }
    setup_ms.push_back(ms_since(started));
  }
  const std::vector<bnn::nn::Tensor> inputs = tenant_inputs(options.seed);

  // Phases: a warm-up at the reference rate, then kRounds rounds. An
  // untraced run's round is [reference window, each sweep rate, flood]; a
  // traced run alternates untraced and traced reference windows instead,
  // for the tracing overhead.
  Tracer off(false);
  Tracer& clock = tracer.enabled() ? tracer : off;  // one time origin per run
  const double T = options.seconds;
  std::uint64_t phase = 0;
  std::vector<Outcome> all;
  const auto run_phase = [&](double rate, double seconds, int flood, Tracer& spans) {
    std::vector<Outcome> outcomes =
        play(*server, tenants, inputs, plan_phase(options.seed, phase++, rate, seconds, flood),
             clock, spans);
    all.insert(all.end(), outcomes.begin(), outcomes.end());
    return outcomes;
  };
  (void)run_phase(kReferenceRate, kWarmShare * T, 0, off);

  std::uint64_t mismatches = 0;
  if (options.trace) {
    // Untraced and traced windows alternate at the reference rate.
    for (int r = 0; r < kRounds; ++r)
      (void)run_phase(kReferenceRate, 0.5 * T / kRounds, 0, r % 2 ? tracer : off);
    std::vector<Outcome> untraced, traced;
    for (Outcome& o : all) (o.traced ? traced : untraced).push_back(std::move(o));
    all = std::move(untraced);
    mismatches += verify_batched(all, tenants, inputs, pool, tracer);
    const std::vector<double> direct_ms =
        verify_timed(traced, tenants, inputs, pool, tracer, mismatches);
    all.insert(all.end(), traced.begin(), traced.end());

    std::vector<double> submit_us, wait_ms, lag_ms;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const Outcome& o = traced[i];
      submit_us.push_back((o.submitted_ms - o.sent_ms) * 1000.0);
      lag_ms.push_back(o.sent_ms - o.due_ms);
      if (o.ok) wait_ms.push_back(o.latency_ms() - direct_ms[i]);
    }
    const bnn::serve::ServerStats stats = server->stats();
    const bnn::serve::RegistryStats registry = tenants.registry->stats();
    const auto count = [&](const char* name, std::uint64_t value) {
      report.set(name, static_cast<double>(value), "count");
    };
    report.set("serve.submit.us", median(submit_us), "us");
    report.set("serve.wait_ms", median(wait_ms), "ms");
    report.set("serve.batch_size",
               stats.batches ? static_cast<double>(stats.requests) / stats.batches : 0.0,
               "requests");
    count("serve.batches", stats.batches);
    count("serve.peak_queue_depth", stats.peak_queue_depth);
    count("serve.screened", stats.screened);
    count("serve.escalations", stats.escalations);
    count("serve.cold_starts", stats.cold_starts);
    count("serve.rejected", stats.rejected);
    count("serve.registry.reloads", registry.reloads);
    count("serve.registry.segment_builds", registry.segment_builds);
    count("serve.registry.segment_evictions", registry.segment_evictions);
    report.set("bench.generator_lag_ms", quantile(lag_ms, 0.99), "ms");
    const double untraced_p50 = median(latencies(all));
    report.set("bench.trace_overhead_pct",
               (median(latencies(traced)) / untraced_p50 - 1.0) * 100.0, "%");
  } else {
    std::vector<std::vector<double>> reference;
    std::vector<RatePoint> points(1 + std::size(kSweepRates));
    points[0].rate = kReferenceRate;
    for (std::size_t k = 0; k < std::size(kSweepRates); ++k) points[k + 1].rate = kSweepRates[k];
    std::vector<double> flood_rates;
    const double round_s = T / kRounds;
    for (int r = 0; r < kRounds; ++r) {
      const std::vector<Outcome> window =
          run_phase(kReferenceRate, kReferenceShare * round_s, 0, off);
      reference.push_back(latencies(window));
      points[0].add(window);
      for (std::size_t k = 1; k < points.size(); ++k)
        points[k].add(run_phase(points[k].rate, kSweepShare * round_s, 0, off));
      const int flood = std::max(1, static_cast<int>(kFloodShare * round_s * kTopRate));
      const std::vector<Outcome> flooded = run_phase(0.0, 0.0, flood, off);
      double last_ready = 0.0;
      for (const Outcome& o : flooded) last_ready = std::max(last_ready, o.ready_ms);
      flood_rates.push_back(1000.0 * flooded.size() / (last_ready - flooded.front().due_ms));
    }
    mismatches += verify_batched(all, tenants, inputs, pool, tracer);

    const Windowed latency = windowed(reference);
    report.set("setup_s", median(setup_ms) / 1000.0, "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    report.set("images_per_s", median(flood_rates), "1/s");
    report.set("latency_p50_ms", latency.p50, "ms");
    report.set("latency_tail_ms", latency.tail.value, "ms");
    report.set("max_rate_rps", max_rate(points), "1/s");
    report.note_windowed("latency", latency);
    report.note("rate_points", points_json(points));
    std::string rounds = "[";
    for (int r = 0; r < kRounds; ++r)
      rounds += std::string(r ? ", " : "") + "{\"p50\": " + json_number(median(reference[r])) +
                ", \"tail\": " + json_number(tail_of(reference[r]).value) +
                ", \"flood_rps\": " + json_number(flood_rates[r]) + "}";
    report.note("rounds", rounds + "]");
    report.note("latency_limit_ms", json_number(kLatencyLimitMs));
    report.note("reference_rate_rps", json_number(kReferenceRate));
  }

  std::uint64_t failed = 0;
  for (const Outcome& o : all) failed += o.ok ? 0 : 1;
  report.attempted = all.size();
  report.failed = failed;
  report.note("mismatches", std::to_string(mismatches));
  if (!options.trace)
    report.set("ok_share", 1.0 - static_cast<double>(failed) / all.size(), "share");
  const bnn::serve::ServerStats stats = server->stats();
  report.note("escalations", std::to_string(stats.escalations));
  report.note("cold_starts", std::to_string(stats.cold_starts));
  server->shutdown();
}

}  // namespace perfbench
