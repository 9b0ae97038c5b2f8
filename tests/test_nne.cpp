// The NNE entry point must be bit-exact against the scalar-tier reference
// of the executor, and its closed-form cycle charge must equal a walk of the
// hardware's PF x PV x PC tile loops, for every parallelism configuration in
// the paper's design space and every layer of the paper's networks.
#include "core/nne.h"

#include <gtest/gtest.h>

#include "data/synth.h"
#include "nn/models.h"
#include "quant/qops.h"
#include "train/trainer.h"

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
// tile, position tile, term tile), where a weights-binarizable layer's
// popcount datapath reduces binary_term_parallelism times more terms per
// multiplier lane. The cycle-model oracle for estimate_layer_cycles.
std::int64_t walk_tiles(const nn::HwLayer& g, const NneConfig& config) {
  const int terms = g.in_c * g.kernel * g.kernel;
  const int positions = g.conv_out_h * g.conv_out_w;
  const int lane_terms =
      config.pc * (g.weights_binarizable ? config.binary_term_parallelism : 1);
  std::int64_t cycles = 0;
  for (int ft = 0; ft < g.out_c; ft += config.pf)
    for (int pt = 0; pt < positions; pt += config.pv)
      for (int ct = 0; ct < terms; ct += lane_terms) ++cycles;
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
// and bitpack caps must reproduce the scalar tier's int8 output exactly and
// charge the tile-walk cycle count.
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
    for (const nn::kernels::Tier tier : {nn::kernels::Tier::int8, nn::kernels::Tier::bitpack}) {
      const NneLayerStats stats =
          nne_run_layer_into(layer, plan.layer(l), input, shortcut, false, nullptr,
                             qnet.dropout_keep, config, tier, scratch, out);
      EXPECT_EQ(out.data, scalar.data)
          << "layer " << l << " diverges at tier " << nn::kernels::tier_name(tier);
      EXPECT_EQ(stats.compute_cycles, walk_tiles(layer.geom, config))
          << "cycle count mismatch at layer " << l;
      EXPECT_EQ(stats.macs_retired, layer.geom.macs());
      EXPECT_EQ(stats.mask_bits_consumed, 0);
    }
  }
}

// The closed form equals the tile walk on every layer of the paper's
// networks, with and without the binary term-parallelism credit.
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
    for (nn::HwLayer layer : desc.layers) {
      for (const bool binarizable : {false, true}) {
        layer.weights_binarizable = binarizable;
        EXPECT_EQ(estimate_layer_cycles(layer, config), walk_tiles(layer, config))
            << desc.name << " layer " << layer.label << " binarizable=" << binarizable;
      }
    }
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
        qnet.dropout_keep, config, nn::kernels::Tier::bitpack, scratch,
        outputs[static_cast<std::size_t>(l)]);
    EXPECT_EQ(stats.mask_bits_consumed, layer.geom.is_bayes_site ? layer.geom.out_c : 0);
    EXPECT_EQ(outputs[static_cast<std::size_t>(l)].data, ref[static_cast<std::size_t>(l)].data)
        << "layer " << l;
  }
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
