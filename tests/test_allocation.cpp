// Steady-state predict lanes must not touch the heap. After one warm pass,
// a full nne_run_layer_into pass over a serving fixture — dropout sites
// active, sampler reseeded the way the accelerator's lane arena reseeds
// it — must make zero operator-new calls on the calling thread.
//
// The counter replaces the global operator new for the whole test binary.
// It counts per thread, so allocations on other threads never reach the
// count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench/serve_fixture.h"
#include "core/bernoulli_sampler.h"
#include "core/nne.h"

namespace {
thread_local std::uint64_t t_operator_new_calls = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_operator_new_calls;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace bnn {
namespace {

// The lane body: every layer through the NNE entry point into the lane's
// output slots, every dropout site active.
void lane_pass(const quant::QuantNetwork& net, const quant::NetworkExecPlan& plan,
               const quant::QTensor& image, const core::NneConfig& config,
               core::BernoulliSampler& sampler, core::NneScratch& scratch,
               std::vector<quant::QTensor>& outputs) {
  for (int l = 0; l < net.num_layers(); ++l) {
    const quant::QLayer& layer = net.layers[static_cast<std::size_t>(l)];
    const quant::QTensor& input =
        layer.input_source < 0 ? image : outputs[static_cast<std::size_t>(layer.input_source)];
    const quant::QTensor* shortcut =
        layer.geom.has_shortcut ? &outputs[static_cast<std::size_t>(layer.shortcut_source)]
                                : nullptr;
    core::nne_run_layer_into(layer, plan.layer(l), input, shortcut, layer.geom.is_bayes_site,
                             &sampler, net.dropout_keep, config, nn::kernels::Tier::int8,
                             scratch, outputs[static_cast<std::size_t>(l)]);
  }
}

TEST(LaneAllocation, WarmNnePassOverServingFixturesCallsNoOperatorNew) {
  for (const bench::ServeFixture* fixture :
       {&bench::shared_cnn12_fixture(), &bench::shared_mlp49_fixture()}) {
    const quant::QuantNetwork& net = fixture->qnet;
    const quant::NetworkExecPlan plan = quant::build_network_exec_plan(net);
    const quant::QTensor image = quant::quantize_image(fixture->dataset.images(), 0, net.input);
    const core::NneConfig config = bench::serve_accel_config().nne;
    core::BernoulliSamplerConfig sampler_config;
    sampler_config.p = net.dropout_p;
    sampler_config.pf = config.pf;
    sampler_config.seed = 1;
    core::BernoulliSampler sampler(sampler_config);
    core::NneScratch scratch;
    std::vector<quant::QTensor> outputs(net.layers.size());

    // Warmup grows every buffer to its steady-state size (and shows the
    // counter is live).
    const std::uint64_t before_warmup = t_operator_new_calls;
    lane_pass(net, plan, image, config, sampler, scratch, outputs);
    EXPECT_GT(t_operator_new_calls - before_warmup, 0u) << net.name;

    const std::uint64_t before = t_operator_new_calls;
    sampler.reseed(2);
    lane_pass(net, plan, image, config, sampler, scratch, outputs);
    EXPECT_EQ(t_operator_new_calls - before, 0u) << net.name;
  }
}

}  // namespace
}  // namespace bnn
