// Hardware-facing network description.
//
// The accelerator processes the network as a sequence of "hardware layers":
// each is one pass through the NNE pipeline — matrix multiply in the PE,
// then the Functional Unit chain (BatchNorm, ReLU, Pool, Shortcut), then the
// Dropout Unit. A HwLayer therefore bundles a conv/linear op with the FU
// stages that follow it. The performance and resource models (src/core)
// consume NetworkDesc, which keeps them decoupled from the float reference
// Network — large networks (ResNet-101) can be described analytically
// without allocating weights.
#ifndef BNN_NN_NETDESC_H
#define BNN_NN_NETDESC_H

#include <cstdint>
#include <string>
#include <vector>

#include "nn/network.h"

namespace bnn::nn {

struct HwLayer {
  enum class Op { conv, linear };

  std::string label;
  Op op = Op::conv;

  // Input feature map (linear: in_h = in_w = 1, in_c = features).
  int in_c = 0, in_h = 1, in_w = 1;
  // PE output positions before pooling.
  int conv_out_h = 1, conv_out_w = 1;
  int out_c = 0;
  // Stored output map after the FU pool stage.
  int out_h = 1, out_w = 1;

  int kernel = 1, stride = 1, pad = 0;
  bool has_bias = true;

  // Functional Unit chain flags.
  bool has_bn = false;
  bool has_relu = false;
  int pool_kernel = 0;  // 0: none
  int pool_stride = 0;
  bool pool_is_global = false;
  bool pool_is_max = true;
  bool has_shortcut = false;  // SC stage adds a second (residual) operand

  // Dropout Unit: is a Monte Carlo Dropout mask applied to this output?
  bool is_bayes_site = false;
  int site_index = -1;

  std::int64_t macs() const {
    return static_cast<std::int64_t>(out_c) * in_c * kernel * kernel * conv_out_h * conv_out_w;
  }
  std::int64_t weight_count() const {
    return static_cast<std::int64_t>(out_c) * in_c * kernel * kernel + (has_bias ? out_c : 0);
  }
  std::int64_t in_elems() const { return static_cast<std::int64_t>(in_c) * in_h * in_w; }
  std::int64_t out_elems() const { return static_cast<std::int64_t>(out_c) * out_h * out_w; }
  // Extra operand streamed for the shortcut addition.
  std::int64_t shortcut_elems() const { return has_shortcut ? out_elems() : 0; }
};

struct NetworkDesc {
  std::string name;
  std::vector<int> input_shape;  // {C, H, W}
  int num_classes = 0;
  std::vector<HwLayer> layers;

  int num_layers() const { return static_cast<int>(layers.size()); }
  // Number of Monte Carlo Dropout sites (the paper's N in "last L of N").
  int num_sites() const;
  std::int64_t total_macs() const;
  std::int64_t total_weight_count() const;

  // Index of the hardware layer whose output carries the first active site
  // when the last `bayes_layers` sites are Bayesian. With intermediate-layer
  // caching, layers [0 .. cut] run once and layers (cut .. end) run per
  // sample. Returns num_layers()-1 in the degenerate bayes_layers == 0 case.
  int cut_layer_for(int bayes_layers) const;

  // Largest input feature map over all layers, in elements — sizes the
  // accelerator's input buffer (paper's MEM_in).
  std::int64_t max_input_elems() const;
  // Largest per-filter weight slice, in elements — sizes the weight buffer
  // (paper's MEM_weight is this times PF).
  std::int64_t max_filter_weight_elems() const;
  // Largest per-layer filter count — sizes the per-layer mask words.
  int max_out_channels() const;
};

// Extracts the hardware description from a float Network: conv/linear nodes
// open a new HwLayer; BN/ReLU/Pool/Add/MCDropout nodes that follow attach to
// it as FU/DU stages; Flatten and Softmax are host-side and ignored.
NetworkDesc describe_network(const Network& net, const std::vector<int>& chw_input,
                             const std::string& name, int num_classes);

// Analytic descriptions of the paper's comparison networks (no weights).
NetworkDesc describe_resnet101(int image_size = 224, int num_classes = 1000);
// Three-layer MLP of the kind VIBNN / BYNQNet evaluate on (for context in
// the Table IV bench).
NetworkDesc describe_mlp3(int in_features, int hidden, int num_classes);

}  // namespace bnn::nn

#endif  // BNN_NN_NETDESC_H
