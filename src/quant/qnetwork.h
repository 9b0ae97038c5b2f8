// Quantized network: the integer-only form of a trained float Model that the
// accelerator executes. Post-training 8-bit linear quantization in the style
// the paper cites (Jacob et al.):
//
//   - activations: per-tensor asymmetric int8, ranges from calibration,
//   - weights: per-output-channel symmetric int8,
//   - biases: int32 in the accumulator scale (s_in * s_w),
//   - BatchNorm: folded into the per-channel requantization multiplier and
//     an int32 post-add, executed by the Functional Unit's BN stage,
//   - shortcut addition: per-tensor rescale of the residual operand,
//   - MC Dropout: zero -> zero_point, survivors scaled by the fixed-point
//     1/(1-p) multiplier in the Dropout Unit.
//
// The FU stage order implemented throughout is BN -> SC -> ReLU -> Pool ->
// DU (the SC-before-ReLU placement is what ResNet semantics require; see
// DESIGN.md for the note on the paper's Fig. 2 ordering).
#ifndef BNN_QUANT_QNETWORK_H
#define BNN_QUANT_QNETWORK_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/models.h"
#include "nn/netdesc.h"
#include "quant/fixed_point.h"
#include "quant/qtensor.h"

namespace bnn::quant {

struct QLayer {
  nn::HwLayer geom;  // geometry + FU/DU flags (shared with the perf model)

  // Index of the QLayer whose stored output this layer consumes; -1 means
  // the quantized network input. Usually the previous layer, but ResNet
  // projection convolutions consume the block input from further back.
  int input_source = -1;

  // Index of the QLayer whose stored output is this layer's shortcut
  // operand; -1 when has_shortcut is false.
  int shortcut_source = -1;

  QuantParams in;
  QuantParams out;

  // Row-major [out_c][in_c * k * k] weights; per-output-channel scales.
  std::vector<std::int8_t> weights;
  std::vector<float> weight_scales;
  // Accumulator-domain bias (conv/linear bias; zero-filled when absent).
  std::vector<std::int32_t> bias;
  // Per-channel requantization: accumulator -> output int8 units, including
  // the BN gamma/running-var factor.
  std::vector<FixedMultiplier> requant;
  // Per-channel post-add in output units (BN beta term).
  std::vector<std::int32_t> post_add;
  // Rescale for the shortcut operand (source units -> output units).
  FixedMultiplier shortcut_rescale;

  const std::int8_t* weight_row(int f) const {
    return weights.data() +
           static_cast<std::size_t>(f) * geom.in_c * geom.kernel * geom.kernel;
  }

  // Bytes this layer's weight rows occupy — the registry's residency
  // currency.
  std::size_t resident_weight_bytes() const;
};

struct QuantNetwork {
  std::string name;
  QuantParams input;
  std::vector<QLayer> layers;
  int num_classes = 0;
  int num_sites = 0;
  double dropout_p = 0.25;
  FixedMultiplier dropout_keep;  // fixed-point 1/(1-p)

  int num_layers() const { return static_cast<int>(layers.size()); }

  // Hardware layer index carrying the first active site when the last
  // `bayes_layers` sites are Bayesian (the IC cut; see NetworkDesc).
  int cut_layer_for(int bayes_layers) const;

  // Reassembled geometric description (feeds the performance and resource
  // models so they see exactly what will be executed).
  nn::NetworkDesc describe() const;

  // Total resident weight bytes across layers (see
  // QLayer::resident_weight_bytes) — what a registry residency budget and
  // the DDR reload cost are charged against.
  std::size_t resident_weight_bytes() const;
};

struct CalibrationOptions {
  int max_images = 64;  // images drawn from the front of the calibration set
};

// Builds the integer network from a trained float model: runs the
// calibration images through the float network in deterministic mode to
// observe activation ranges at every hardware-layer output, then quantizes
// weights/biases and folds BN into the requantization constants.
QuantNetwork quantize_model(nn::Model& model, const data::Dataset& calibration,
                            const CalibrationOptions& options = {});

}  // namespace bnn::quant

#endif  // BNN_QUANT_QNETWORK_H
