#include "quant/qops.h"

#include <algorithm>
#include <limits>

#include "nn/activations.h"
#include "nn/gemm_kernels.h"
#include "util/check.h"

namespace bnn::quant {

namespace {

using nn::kernels::Tier;

// PE + FU/BN + FU/SC + FU/ReLU for one layer, before pooling: writes the
// int8 map of conv_out_h x conv_out_w positions into `pre`. Both kernels
// produce the same int32 accumulator values (int32 accumulation is exact
// and associative), hence identical int8 bits after the FU stages.
void compute_pre_pool(const QLayer& layer, const LayerExecPlan& plan, bool use_kernels,
                      const QTensor& input, const QTensor* shortcut, QTensor& pre) {
  const nn::HwLayer& g = layer.geom;
  const std::int32_t zp_in = layer.in.zero_point;
  const std::int32_t zp_out = layer.out.zero_point;
  const int terms = plan.terms;
  const std::int8_t* in_data = input.data.data();

  if (g.op == nn::HwLayer::Op::linear) {
    for (int f = 0; f < g.out_c; ++f) {
      const std::int8_t* w = layer.weight_row(f);
      std::int32_t acc = layer.bias[static_cast<std::size_t>(f)];
      if (use_kernels) {
        // int32 accumulation is exact, so the vectorized dot kernel matches
        // the plain per-term loop bit-for-bit.
        acc += nn::kernels::dot_i8_zp(in_data, w, terms, zp_in);
      } else {
        for (int t = 0; t < terms; ++t)
          acc += (static_cast<std::int32_t>(in_data[t]) - zp_in) *
                 static_cast<std::int32_t>(w[t]);
      }
      std::int32_t q = fixed_multiply(acc, layer.requant[static_cast<std::size_t>(f)]) +
                       layer.post_add[static_cast<std::size_t>(f)] + zp_out;
      if (g.has_relu) q = std::max(q, zp_out);
      pre.data[static_cast<std::size_t>(f)] = saturate_int8(q);
    }
    return;
  }

  // Hoisted conv index math (built once per layer in the LayerExecPlan):
  // term t addresses input channel t/(k*k) at kernel offset (term_dh[t],
  // term_dw[t]); term_off[t] is the flat input offset of term t relative to
  // the window's top-left element, valid wherever the window is in bounds.
  // int32 accumulation is exact, so the gather kernel matches the
  // historical per-position (c, kh, kw) loop bit-for-bit (pinned by
  // tests/test_quant.cpp on strided/padded shapes).
  const std::int32_t* term_dh = plan.term_dh.data();
  const std::int32_t* term_dw = plan.term_dw.data();
  const std::int32_t* term_off = plan.term_off.data();

  const std::int32_t zp_sc =
      g.has_shortcut ? shortcut->params.zero_point : 0;

  // Border window: padding terms contribute zero; every term bound-checked.
  // Shared verbatim by both tiers, so border bits agree by construction.
  const auto border_dot = [&](const std::int8_t* w, int ih0, int iw0) {
    std::int32_t acc = 0;
    for (int t = 0; t < terms; ++t) {
      const int ih = ih0 + term_dh[static_cast<std::size_t>(t)];
      const int iw = iw0 + term_dw[static_cast<std::size_t>(t)];
      if (ih < 0 || ih >= g.in_h || iw < 0 || iw >= g.in_w) continue;
      acc += (static_cast<std::int32_t>(
                  in_data[term_off[static_cast<std::size_t>(t)] +
                          static_cast<std::ptrdiff_t>(ih0) * g.in_w + iw0]) -
              zp_in) *
             static_cast<std::int32_t>(w[t]);
    }
    return acc;
  };

  // FU chain epilogue for one retiring accumulator.
  const auto fu_store = [&](int f, int oh, int ow, std::int32_t acc) {
    std::int32_t q = fixed_multiply(acc, layer.requant[static_cast<std::size_t>(f)]) +
                     layer.post_add[static_cast<std::size_t>(f)] + zp_out;
    if (g.has_shortcut)
      q += fixed_multiply(static_cast<std::int32_t>(shortcut->at(f, oh, ow)) - zp_sc,
                          layer.shortcut_rescale);
    if (g.has_relu) q = std::max(q, zp_out);
    pre.at(f, oh, ow) = saturate_int8(q);
  };

  for (int f = 0; f < g.out_c; ++f) {
    const std::int8_t* w = layer.weight_row(f);
    for (int oh = 0; oh < g.conv_out_h; ++oh) {
      for (int ow = 0; ow < g.conv_out_w; ++ow) {
        const int ih0 = oh * g.stride - g.pad;
        const int iw0 = ow * g.stride - g.pad;
        std::int32_t acc = layer.bias[static_cast<std::size_t>(f)];
        if (use_kernels && ih0 >= 0 && iw0 >= 0 && ih0 + g.kernel <= g.in_h &&
            iw0 + g.kernel <= g.in_w) {
          // Interior window: every term in bounds, gather through the
          // precomputed offset table. The scalar tier takes the checked
          // border loop for every window instead.
          acc += nn::kernels::dot_i8_zp_gather(
              in_data + static_cast<std::size_t>(ih0) * g.in_w + iw0,
              term_off, w, terms, zp_in);
        } else {
          acc += border_dot(w, ih0, iw0);
        }
        fu_store(f, oh, ow, acc);
      }
    }
  }
}

// FU/Pool stage: int8-domain max or (rounded) average pooling of `pre`
// into `out`.
void apply_pool(const QLayer& layer, const QTensor& pre, QTensor& out) {
  const nn::HwLayer& g = layer.geom;
  if (g.pool_is_global) {
    const std::int64_t area = static_cast<std::int64_t>(g.conv_out_h) * g.conv_out_w;
    for (int f = 0; f < g.out_c; ++f) {
      std::int64_t sum = 0;
      for (int h = 0; h < g.conv_out_h; ++h)
        for (int w = 0; w < g.conv_out_w; ++w) sum += pre.at(f, h, w);
      out.at(f, 0, 0) = saturate_int8(rounded_div(sum, area));
    }
    return;
  }

  for (int f = 0; f < g.out_c; ++f) {
    for (int oh = 0; oh < g.out_h; ++oh) {
      for (int ow = 0; ow < g.out_w; ++ow) {
        if (g.pool_is_max) {
          std::int8_t best = std::numeric_limits<std::int8_t>::min();
          for (int kh = 0; kh < g.pool_kernel; ++kh)
            for (int kw = 0; kw < g.pool_kernel; ++kw)
              best = std::max(best,
                              pre.at(f, oh * g.pool_stride + kh, ow * g.pool_stride + kw));
          out.at(f, oh, ow) = best;
        } else {
          std::int64_t sum = 0;
          for (int kh = 0; kh < g.pool_kernel; ++kh)
            for (int kw = 0; kw < g.pool_kernel; ++kw)
              sum += pre.at(f, oh * g.pool_stride + kh, ow * g.pool_stride + kw);
          out.at(f, oh, ow) = saturate_int8(
              rounded_div(sum, static_cast<std::int64_t>(g.pool_kernel) * g.pool_kernel));
        }
      }
    }
  }
}

// ref_forward with a prebuilt network plan (the public wrapper builds one;
// ref_mc_predict builds one per call and reuses it across samples).
std::vector<QTensor> forward_with_plan(const QuantNetwork& net, const NetworkExecPlan& plan,
                                       Tier tier, const QTensor& image, int bayes_layers,
                                       nn::MaskSource* masks) {
  util::require(bayes_layers >= 0 && bayes_layers <= net.num_sites,
                "ref_forward: bayes_layers out of range");
  const int first_active_site = net.num_sites - bayes_layers;
  std::vector<QTensor> outputs;
  outputs.reserve(net.layers.size());
  for (std::size_t l = 0; l < net.layers.size(); ++l) {
    const QLayer& layer = net.layers[l];
    const QTensor& input =
        layer.input_source < 0 ? image
                               : outputs[static_cast<std::size_t>(layer.input_source)];
    const QTensor* shortcut =
        layer.geom.has_shortcut
            ? &outputs[static_cast<std::size_t>(layer.shortcut_source)]
            : nullptr;
    const bool active =
        layer.geom.is_bayes_site && layer.geom.site_index >= first_active_site;
    outputs.push_back(ref_run_layer(layer, plan.layer(static_cast<int>(l)), tier, input,
                                    shortcut, active, masks, net.dropout_keep));
  }
  return outputs;
}

}  // namespace

void run_layer_into(const QLayer& layer, const LayerExecPlan& plan, nn::kernels::Tier tier,
                    const QTensor& input, const QTensor* shortcut, bool site_active,
                    nn::MaskSource* masks, FixedMultiplier dropout_keep, LayerScratch& scratch,
                    QTensor& out) {
  const nn::HwLayer& g = layer.geom;
  util::require(!site_active || masks != nullptr, "qops: active site requires a mask source");
  if (g.op == nn::HwLayer::Op::linear) {
    util::require(input.numel() == g.in_c, "qops: linear input size mismatch");
  } else {
    util::require(input.channels() == g.in_c && input.height() == g.in_h &&
                      input.width() == g.in_w,
                  "qops: conv input shape mismatch");
    if (g.has_shortcut) {
      util::require(shortcut != nullptr, "qops: missing shortcut operand");
      util::require(shortcut->channels() == g.out_c &&
                        shortcut->height() == g.conv_out_h &&
                        shortcut->width() == g.conv_out_w,
                    "qops: shortcut operand shape mismatch");
    }
  }

  // The FU chain writes the pre-pool map; when there is no pool stage that
  // map IS the stored output, so write it there directly and leave
  // scratch.pre untouched.
  const bool has_pool = g.pool_is_global || g.pool_kernel > 0;
  if (out.reset(g.out_c, g.out_h, g.out_w, layer.out)) ++scratch.grow_events;
  if (has_pool && scratch.pre.reset(g.out_c, g.conv_out_h, g.conv_out_w, layer.out))
    ++scratch.grow_events;
  QTensor& pre = has_pool ? scratch.pre : out;
  // Tier::bitpack is an alias of Tier::int8: both run the dot_i8_zp kernels.
  compute_pre_pool(layer, plan, tier != Tier::scalar, input, shortcut, pre);
  if (has_pool) apply_pool(layer, pre, out);
  if (site_active) apply_dropout(layer, out, *masks, dropout_keep);
}

QTensor ref_run_layer(const QLayer& layer, const LayerExecPlan& plan, nn::kernels::Tier tier,
                      const QTensor& input, const QTensor* shortcut, bool site_active,
                      nn::MaskSource* masks, FixedMultiplier dropout_keep) {
  LayerScratch scratch;
  QTensor out;
  run_layer_into(layer, plan, tier, input, shortcut, site_active, masks, dropout_keep, scratch,
                 out);
  return out;
}

QTensor ref_run_layer(const QLayer& layer, const QTensor& input, const QTensor* shortcut,
                      bool site_active, nn::MaskSource* masks, FixedMultiplier dropout_keep) {
  return ref_run_layer(layer, build_layer_exec_plan(layer), Tier::int8, input, shortcut,
                       site_active, masks, dropout_keep);
}

void apply_dropout(const QLayer& layer, QTensor& out, nn::MaskSource& masks,
                   FixedMultiplier dropout_keep) {
  const std::int32_t zp = layer.out.zero_point;
  const int plane = out.height() * out.width();
  for (int f = 0; f < out.channels(); ++f) {
    const bool drop = masks.next_drop();
    std::int8_t* row = out.data.data() + static_cast<std::size_t>(f) * plane;
    if (drop) {
      std::fill(row, row + plane, saturate_int8(zp));
    } else {
      for (int i = 0; i < plane; ++i)
        row[i] = saturate_int8(
            fixed_multiply(static_cast<std::int32_t>(row[i]) - zp, dropout_keep) + zp);
    }
  }
}

std::vector<QTensor> ref_forward(const QuantNetwork& net, const QTensor& image,
                                 int bayes_layers, nn::MaskSource* masks) {
  return forward_with_plan(net, build_network_exec_plan(net), Tier::int8, image, bayes_layers,
                           masks);
}

nn::Tensor ref_logits(const QuantNetwork& net, const QTensor& final_output) {
  util::require(final_output.numel() == net.num_classes, "ref_logits: wrong output size");
  nn::Tensor logits({1, net.num_classes});
  for (int k = 0; k < net.num_classes; ++k)
    logits.v2(0, k) = final_output.params.scale *
                      static_cast<float>(final_output.data[static_cast<std::size_t>(k)] -
                                         final_output.params.zero_point);
  return logits;
}

nn::Tensor ref_mc_predict(const QuantNetwork& net, const nn::Tensor& images, int bayes_layers,
                          int num_samples, nn::MaskSource& masks,
                          bool use_intermediate_caching) {
  // Legacy single-stream form: every (image, sample) forwards to the one
  // shared source, preserving the original sequential consumption order.
  struct Borrowed final : nn::MaskSource {
    explicit Borrowed(nn::MaskSource& inner) : inner_(inner) {}
    bool next_drop() override { return inner_.next_drop(); }
    nn::MaskSource& inner_;
  };
  return ref_mc_predict(
      net, images, bayes_layers, num_samples,
      [&masks](int, int) { return std::make_unique<Borrowed>(masks); },
      use_intermediate_caching);
}

nn::Tensor ref_mc_predict(const QuantNetwork& net, const nn::Tensor& images, int bayes_layers,
                          int num_samples, const MaskStreamFactory& streams,
                          bool use_intermediate_caching) {
  util::require(images.dim() == 4, "ref_mc_predict expects NCHW images");
  util::require(num_samples >= 1, "ref_mc_predict: need at least one sample");
  const int batch = images.size(0);
  nn::Tensor probs({batch, net.num_classes});

  const int cut = net.cut_layer_for(bayes_layers);
  const int first_active_site = net.num_sites - bayes_layers;
  // One plan for the whole batch: the per-layer index tables and weight
  // masks are input-independent.
  const NetworkExecPlan plan = build_network_exec_plan(net);

  for (int n = 0; n < batch; ++n) {
    const QTensor image = quantize_image(images, n, net.input);
    nn::Tensor accumulated({1, net.num_classes});
    if (bayes_layers == 0) {
      const std::vector<QTensor> outputs =
          forward_with_plan(net, plan, Tier::int8, image, 0, nullptr);
      accumulated = nn::softmax_rows(ref_logits(net, outputs.back()));
    } else if (!use_intermediate_caching) {
      for (int s = 0; s < num_samples; ++s) {
        const std::unique_ptr<nn::MaskSource> lane = streams(n, s);
        const std::vector<QTensor> outputs =
            forward_with_plan(net, plan, Tier::int8, image, bayes_layers, lane.get());
        accumulated.add_(nn::softmax_rows(ref_logits(net, outputs.back())));
      }
      accumulated.scale_(1.0f / static_cast<float>(num_samples));
    } else {
      // Prefix once: run layers [0, cut] without the cut layer's dropout —
      // its pre-DU output is the on-chip cached boundary.
      std::vector<QTensor> outputs;
      outputs.reserve(net.layers.size());
      for (int l = 0; l <= cut; ++l) {
        const QLayer& layer = net.layers[static_cast<std::size_t>(l)];
        const QTensor& input =
            layer.input_source < 0
                ? image
                : outputs[static_cast<std::size_t>(layer.input_source)];
        const QTensor* shortcut =
            layer.geom.has_shortcut
                ? &outputs[static_cast<std::size_t>(layer.shortcut_source)]
                : nullptr;
        outputs.push_back(ref_run_layer(layer, plan.layer(l), Tier::int8, input, shortcut,
                                        /*site_active=*/false, nullptr, net.dropout_keep));
      }
      const QTensor boundary = outputs.back();  // pre-DU cache

      for (int s = 0; s < num_samples; ++s) {
        const std::unique_ptr<nn::MaskSource> lane = streams(n, s);
        outputs.resize(static_cast<std::size_t>(cut + 1));
        // Fresh mask on the cached boundary (the DU re-reads the cache).
        outputs[static_cast<std::size_t>(cut)] = boundary;
        const QLayer& cut_layer = net.layers[static_cast<std::size_t>(cut)];
        util::ensure(cut_layer.geom.is_bayes_site &&
                         cut_layer.geom.site_index >= first_active_site,
                     "ref_mc_predict: cut layer must carry the first active site");
        apply_dropout(cut_layer, outputs[static_cast<std::size_t>(cut)], *lane,
                      net.dropout_keep);
        for (int l = cut + 1; l < net.num_layers(); ++l) {
          const QLayer& layer = net.layers[static_cast<std::size_t>(l)];
          const QTensor& input =
              layer.input_source < 0
                  ? image
                  : outputs[static_cast<std::size_t>(layer.input_source)];
          const QTensor* shortcut =
              layer.geom.has_shortcut
                  ? &outputs[static_cast<std::size_t>(layer.shortcut_source)]
                  : nullptr;
          const bool active =
              layer.geom.is_bayes_site && layer.geom.site_index >= first_active_site;
          outputs.push_back(ref_run_layer(layer, plan.layer(l), Tier::int8, input, shortcut,
                                          active, lane.get(), net.dropout_keep));
        }
        accumulated.add_(nn::softmax_rows(ref_logits(net, outputs.back())));
      }
      accumulated.scale_(1.0f / static_cast<float>(num_samples));
    }
    for (int k = 0; k < net.num_classes; ++k) probs.v2(n, k) = accumulated.v2(0, k);
  }
  return probs;
}

}  // namespace bnn::quant
