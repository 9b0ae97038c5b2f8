// The NNE entry point must be bit-exact against the scalar-tier reference
// of the executor — on a trained network and on hand-built edge geometries
// — and its closed-form cycle charge must equal a walk of the hardware's
// PF x PV x PC tile loops, for every parallelism configuration in the
// paper's design space and every layer of the paper's networks.
#include "core/nne.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "data/synth.h"
#include "nn/models.h"
#include "quant/qops.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace bnn::core {
namespace {

struct QuantizedFixture {
  QuantizedFixture() {
    util::Rng rng(21);
    model = std::make_unique<nn::Model>(nn::make_tiny_cnn(rng, 10, 1, 12));
    util::Rng data_rng(22);
    data::Dataset digits = data::make_synth_digits(120, data_rng);
    nn::Tensor small({digits.size(), 1, 12, 12});
    for (int n = 0; n < digits.size(); ++n)
      for (int y = 0; y < 12; ++y)
        for (int x = 0; x < 12; ++x)
          small.v4(n, 0, y, x) = digits.images().v4(n, 0, 2 + 2 * y, 2 + 2 * x);
    dataset = std::make_unique<data::Dataset>(std::move(small), digits.labels(), 10);

    model->set_bayesian_last(0);
    train::TrainConfig config;
    config.epochs = 2;
    config.batch_size = 16;
    train::fit(*model, *dataset, config);
    qnet = std::make_unique<quant::QuantNetwork>(quant::quantize_model(*model, *dataset));
  }

  std::unique_ptr<nn::Model> model;
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<quant::QuantNetwork> qnet;
};

QuantizedFixture& fixture() {
  static QuantizedFixture instance;
  return instance;
}

TEST(NneCycles, FormulaHandChecked) {
  nn::HwLayer layer;
  layer.op = nn::HwLayer::Op::conv;
  layer.in_c = 16;
  layer.out_c = 32;
  layer.kernel = 3;
  layer.conv_out_h = 10;
  layer.conv_out_w = 10;
  NneConfig config;
  config.pc = 64;
  config.pf = 64;
  config.pv = 1;
  // ceil(32/64)=1 filter tile, ceil(16*9/64)=ceil(144/64)=3 term tiles,
  // ceil(100/1)=100 position tiles -> 300 cycles.
  EXPECT_EQ(estimate_layer_cycles(layer, config), 300);

  config.pv = 4;  // ceil(100/4)=25 -> 75 cycles
  EXPECT_EQ(estimate_layer_cycles(layer, config), 75);
  config.pf = 8;  // ceil(32/8)=4 filter tiles -> 300
  EXPECT_EQ(estimate_layer_cycles(layer, config), 300);
}

TEST(NneCycles, LinearLayerIsKernelOneCase) {
  nn::HwLayer layer;
  layer.op = nn::HwLayer::Op::linear;
  layer.in_c = 400;
  layer.out_c = 120;
  NneConfig config;
  config.pc = 64;
  config.pf = 64;
  config.pv = 1;
  // ceil(120/64)=2, ceil(400/64)=7, 1 position -> 14 cycles.
  EXPECT_EQ(estimate_layer_cycles(layer, config), 14);
}

TEST(NneCycles, PeakGopsFromParallelism) {
  NneConfig config;
  config.pc = 64;
  config.pf = 64;
  config.pv = 1;
  config.clock_mhz = 225.0;
  EXPECT_EQ(config.macs_per_cycle(), 4096);
  EXPECT_NEAR(config.peak_gops(), 4096.0 * 2.0 * 225.0 / 1e3, 1e-9);  // 1843.2
}

// The hardware's loop nest, walked only to count: one cycle per (filter
// tile, position tile, term tile). The cycle-model oracle for
// estimate_layer_cycles.
std::int64_t walk_tiles(const nn::HwLayer& g, const NneConfig& config) {
  const int terms = g.in_c * g.kernel * g.kernel;
  const int positions = g.conv_out_h * g.conv_out_w;
  std::int64_t cycles = 0;
  for (int ft = 0; ft < g.out_c; ft += config.pf)
    for (int pt = 0; pt < positions; pt += config.pv)
      for (int ct = 0; ct < terms; ct += config.pc) ++cycles;
  return cycles;
}

struct TilingCase {
  int pc, pf, pv;
};

class NneTiling : public ::testing::TestWithParam<TilingCase> {
 protected:
  NneConfig config() const {
    NneConfig config;
    config.pc = GetParam().pc;
    config.pf = GetParam().pf;
    config.pv = GetParam().pv;
    return config;
  }
};

// For every layer of the quantized network, the NNE entry point at the int8
// tier must reproduce the scalar tier's output exactly and charge the
// tile-walk cycle count.
TEST_P(NneTiling, BitExactAgainstReferenceAndFormula) {
  const NneConfig config = this->config();
  auto& fx = fixture();
  const quant::QuantNetwork& qnet = *fx.qnet;
  const quant::QTensor image = quant::quantize_image(fx.dataset->images(), 0, qnet.input);
  const quant::NetworkExecPlan plan = quant::build_network_exec_plan(qnet);

  // Reference chain (deterministic), fed back so each layer is compared in
  // isolation as well as in composition.
  const std::vector<quant::QTensor> ref = quant::ref_forward(qnet, image, 0, nullptr);
  NneScratch scratch;
  quant::QTensor out;
  for (int l = 0; l < qnet.num_layers(); ++l) {
    const quant::QLayer& layer = qnet.layers[static_cast<std::size_t>(l)];
    const quant::QTensor& input =
        layer.input_source < 0 ? image : ref[static_cast<std::size_t>(layer.input_source)];
    const quant::QTensor* shortcut =
        layer.geom.has_shortcut ? &ref[static_cast<std::size_t>(layer.shortcut_source)]
                                : nullptr;
    const quant::QTensor scalar =
        quant::ref_run_layer(layer, plan.layer(l), nn::kernels::Tier::scalar, input, shortcut,
                             false, nullptr, qnet.dropout_keep);
    const NneLayerStats stats =
        nne_run_layer_into(layer, plan.layer(l), input, shortcut, false, nullptr,
                           qnet.dropout_keep, config, nn::kernels::Tier::int8, scratch, out);
    EXPECT_EQ(out.data, scalar.data) << "layer " << l << " diverges";
    EXPECT_EQ(stats.compute_cycles, walk_tiles(layer.geom, config))
        << "cycle count mismatch at layer " << l;
    EXPECT_EQ(stats.macs_retired, layer.geom.macs());
    EXPECT_EQ(stats.mask_bits_consumed, 0);
  }
}

// The closed form equals the tile walk on every layer of the paper's
// networks.
TEST_P(NneTiling, TileWalkMatchesClosedFormOnPaperNetworks) {
  static const std::vector<nn::NetworkDesc> descs = [] {
    util::Rng rng(23);
    std::vector<nn::NetworkDesc> out;
    out.push_back(fixture().qnet->describe());
    out.push_back(nn::make_vgg11(rng, 10, /*width_divisor=*/4).describe());
    out.push_back(nn::make_resnet18(rng, 10, /*base_width=*/16).describe());
    return out;
  }();
  const NneConfig config = this->config();
  for (const nn::NetworkDesc& desc : descs) {
    for (const nn::HwLayer& layer : desc.layers)
      EXPECT_EQ(estimate_layer_cycles(layer, config), walk_tiles(layer, config))
          << desc.name << " layer " << layer.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperDesignSpace, NneTiling,
    ::testing::Values(TilingCase{8, 8, 1}, TilingCase{16, 8, 4}, TilingCase{32, 16, 1},
                      TilingCase{64, 64, 1}, TilingCase{128, 128, 16},
                      TilingCase{8, 128, 8}, TilingCase{128, 8, 1}));

TEST(NneDropout, SameMaskStreamGivesSameOutputs) {
  auto& fx = fixture();
  const quant::QuantNetwork& qnet = *fx.qnet;
  const quant::QTensor image = quant::quantize_image(fx.dataset->images(), 1, qnet.input);
  const quant::NetworkExecPlan plan = quant::build_network_exec_plan(qnet);

  NneConfig config;
  config.pc = 16;
  config.pf = 8;
  config.pv = 4;

  nn::RngMaskSource masks_ref(qnet.dropout_p, util::Rng(7));
  nn::RngMaskSource masks_nne(qnet.dropout_p, util::Rng(7));

  const std::vector<quant::QTensor> ref =
      quant::ref_forward(qnet, image, qnet.num_sites, &masks_ref);

  NneScratch scratch;
  std::vector<quant::QTensor> outputs(qnet.layers.size());
  for (int l = 0; l < qnet.num_layers(); ++l) {
    const quant::QLayer& layer = qnet.layers[static_cast<std::size_t>(l)];
    const quant::QTensor& input =
        layer.input_source < 0 ? image
                               : outputs[static_cast<std::size_t>(layer.input_source)];
    const quant::QTensor* shortcut =
        layer.geom.has_shortcut ? &outputs[static_cast<std::size_t>(layer.shortcut_source)]
                                : nullptr;
    const NneLayerStats stats = nne_run_layer_into(
        layer, plan.layer(l), input, shortcut, layer.geom.is_bayes_site, &masks_nne,
        qnet.dropout_keep, config, nn::kernels::Tier::int8, scratch,
        outputs[static_cast<std::size_t>(l)]);
    EXPECT_EQ(stats.mask_bits_consumed, layer.geom.is_bayes_site ? layer.geom.out_c : 0);
    EXPECT_EQ(outputs[static_cast<std::size_t>(l)].data, ref[static_cast<std::size_t>(l)].data)
        << "layer " << l;
  }
}

// --- edge geometries: scalar reference vs int8 kernels ----------------------

struct ConvSpec {
  int in_c, in_h, in_w, out_c, kernel, stride, pad;
  bool relu = false;
  int pool_kernel = 0;  // 0: none (pool_stride = pool_kernel)
  bool shortcut = false;
};

// A layer with full-range random int8 weights, biases and FU constants.
quant::QLayer make_layer(util::Rng& rng, nn::HwLayer g) {
  quant::QLayer layer;
  layer.geom = g;
  const int terms = g.in_c * g.kernel * g.kernel;
  layer.weights.resize(static_cast<std::size_t>(g.out_c) * terms);
  for (auto& w : layer.weights) w = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  layer.bias.resize(static_cast<std::size_t>(g.out_c));
  for (auto& b : layer.bias) b = rng.uniform_int(-2000, 2000);
  layer.weight_scales.assign(static_cast<std::size_t>(g.out_c), 1.0f);
  layer.requant.resize(static_cast<std::size_t>(g.out_c));
  for (int f = 0; f < g.out_c; ++f)
    layer.requant[static_cast<std::size_t>(f)] =
        quant::quantize_multiplier(0.0005 + 0.0002 * (f % 5));
  layer.post_add.resize(static_cast<std::size_t>(g.out_c));
  for (auto& p : layer.post_add) p = rng.uniform_int(-4, 4);
  layer.in = quant::QuantParams{0.05f, -3};
  layer.out = quant::QuantParams{0.1f, 4};
  layer.shortcut_rescale = quant::quantize_multiplier(0.5);
  return layer;
}

quant::QLayer make_conv(util::Rng& rng, const ConvSpec& spec) {
  nn::HwLayer g;
  g.op = nn::HwLayer::Op::conv;
  g.in_c = spec.in_c;
  g.in_h = spec.in_h;
  g.in_w = spec.in_w;
  g.out_c = spec.out_c;
  g.kernel = spec.kernel;
  g.stride = spec.stride;
  g.pad = spec.pad;
  g.conv_out_h = (spec.in_h + 2 * spec.pad - spec.kernel) / spec.stride + 1;
  g.conv_out_w = (spec.in_w + 2 * spec.pad - spec.kernel) / spec.stride + 1;
  g.has_relu = spec.relu;
  g.has_shortcut = spec.shortcut;
  g.out_h = g.conv_out_h;
  g.out_w = g.conv_out_w;
  if (spec.pool_kernel > 0) {
    g.pool_kernel = spec.pool_kernel;
    g.pool_stride = spec.pool_kernel;
    g.out_h = (g.conv_out_h - g.pool_kernel) / g.pool_stride + 1;
    g.out_w = (g.conv_out_w - g.pool_kernel) / g.pool_stride + 1;
  }
  return make_layer(rng, g);
}

quant::QTensor random_input(util::Rng& rng, int c, int h, int w, quant::QuantParams params) {
  quant::QTensor x({c, h, w}, params);
  for (auto& v : x.data) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return x;
}

// The scalar reference loops against the NNE entry point's int8 kernels.
void expect_scalar_matches_int8(const quant::QLayer& layer, const quant::QTensor& input,
                                const quant::QTensor* shortcut, const char* label) {
  const quant::LayerExecPlan plan = quant::build_layer_exec_plan(layer);
  const quant::FixedMultiplier keep = quant::quantize_multiplier(1.0 / 0.75);
  const quant::QTensor scalar = quant::ref_run_layer(
      layer, plan, nn::kernels::Tier::scalar, input, shortcut, false, nullptr, keep);
  NneScratch scratch;
  quant::QTensor out;
  nne_run_layer_into(layer, plan, input, shortcut, false, nullptr, keep, NneConfig{},
                     nn::kernels::Tier::int8, scratch, out);
  EXPECT_EQ(out.data, scalar.data) << label;
}

TEST(TierIdentity, LinearLayersIncludingPartialTailWord) {
  util::Rng rng(307);
  for (const int len : {64, 130, 300}) {
    nn::HwLayer g;
    g.op = nn::HwLayer::Op::linear;
    g.in_c = len;
    g.out_c = 10;
    const quant::QLayer layer = make_layer(rng, g);
    const quant::QTensor input = random_input(rng, len, 1, 1, layer.in);
    expect_scalar_matches_int8(layer, input, nullptr, "linear");
  }
}

TEST(TierIdentity, ConvEdgeGeometries) {
  util::Rng rng(308);
  const struct {
    const char* label;
    ConvSpec spec;
  } cases[] = {
      {"k3 pad1 stride2 odd map", {3, 5, 7, 4, 3, 2, 1}},
      {"single channel k1", {1, 5, 5, 6, 1, 1, 0}},
      {"relu + maxpool", {4, 8, 8, 5, 3, 1, 0, true, 2}},
      {"terms not word multiple", {13, 6, 6, 3, 3, 1, 1}},  // 117 terms
  };
  for (const auto& c : cases) {
    const quant::QLayer layer = make_conv(rng, c.spec);
    const quant::QTensor input =
        random_input(rng, c.spec.in_c, c.spec.in_h, c.spec.in_w, layer.in);
    expect_scalar_matches_int8(layer, input, nullptr, c.label);
  }
}

TEST(TierIdentity, ConvWithShortcutOperand) {
  util::Rng rng(309);
  ConvSpec spec{3, 6, 6, 4, 3, 1, 1};
  spec.shortcut = true;
  const quant::QLayer layer = make_conv(rng, spec);
  const quant::QTensor input = random_input(rng, 3, 6, 6, layer.in);
  const quant::QTensor shortcut = random_input(rng, 4, 6, 6, quant::QuantParams{0.2f, 7});
  expect_scalar_matches_int8(layer, input, &shortcut, "conv + shortcut");
}

TEST(NneScratchArena, SecondRunOverSameShapesIsAllocationFree) {
  util::Rng rng(311);
  const quant::QLayer conv = make_conv(rng, ConvSpec{4, 8, 8, 5, 3, 1, 1, true, 2});
  const quant::LayerExecPlan plan = quant::build_layer_exec_plan(conv);
  const quant::QTensor input = random_input(rng, 4, 8, 8, conv.in);
  const quant::FixedMultiplier keep = quant::quantize_multiplier(1.0 / 0.75);

  NneScratch scratch;
  quant::QTensor out;
  nne_run_layer_into(conv, plan, input, nullptr, false, nullptr, keep, NneConfig{},
                     nn::kernels::Tier::int8, scratch, out);
  const std::uint64_t after_warmup = scratch.grow_events;
  EXPECT_GT(after_warmup, 0u);
  for (int i = 0; i < 3; ++i)
    nne_run_layer_into(conv, plan, input, nullptr, false, nullptr, keep, NneConfig{},
                       nn::kernels::Tier::int8, scratch, out);
  EXPECT_EQ(scratch.grow_events, after_warmup);
}

TEST(NneValidation, RejectsBadArguments) {
  auto& fx = fixture();
  const quant::QuantNetwork& qnet = *fx.qnet;
  const quant::QLayer& first = qnet.layers.front();
  const quant::LayerExecPlan plan = quant::build_layer_exec_plan(first);
  const quant::QTensor image = quant::quantize_image(fx.dataset->images(), 0, qnet.input);
  const NneConfig config;
  NneScratch scratch;
  quant::QTensor out;
  // Active site without a mask source.
  EXPECT_THROW(nne_run_layer_into(first, plan, image, nullptr, true, nullptr, qnet.dropout_keep,
                                  config, nn::kernels::Tier::int8, scratch, out),
               std::invalid_argument);
  // Wrong input shape.
  const quant::QTensor wrong({3, 5, 5}, qnet.input);
  EXPECT_THROW(nne_run_layer_into(first, plan, wrong, nullptr, false, nullptr,
                                  qnet.dropout_keep, config, nn::kernels::Tier::int8, scratch,
                                  out),
               std::invalid_argument);
}

}  // namespace
}  // namespace bnn::core
