#include "nn/layers.h"

#include <cmath>
#include <memory>

#include "autograd/grad_mode.h"
#include "tensor/prepack.h"

namespace litho::nn {
namespace {

Tensor kaiming_uniform(Shape shape, int64_t fan_in, std::mt19937& rng) {
  const float bound = 1.f / std::sqrt(static_cast<float>(fan_in));
  return Tensor::rand(std::move(shape), rng, -bound, bound);
}

}  // namespace

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t padding, std::mt19937& rng, bool bias)
    : stride_(stride), padding_(padding) {
  const int64_t fan_in = in_channels * kernel * kernel;
  weight_ = register_parameter(
      "weight",
      kaiming_uniform({out_channels, in_channels, kernel, kernel}, fan_in, rng));
  if (bias) {
    bias_ = register_parameter("bias",
                               kaiming_uniform({out_channels}, fan_in, rng));
  } else {
    bias_ = ag::Variable();
  }
}

ag::Variable Conv2d::forward(const ag::Variable& x) const {
  if (prepack_ && !ag::GradMode::is_enabled()) {
    return ag::conv2d_prepacked(x, weight_, prepack_, bias_, stride_,
                                padding_);
  }
  return ag::conv2d(x, weight_, bias_, stride_, padding_);
}

void Conv2d::prepack_forward(Precision precision) {
  const Tensor& w = weight_.value();
  const int64_t cout = w.size(0);
  const int64_t ckk = w.numel() / cout;
  prepack_ = std::make_shared<const PackedWeight>(GemmLayout::kNN, w.data(),
                                                  cout, ckk, precision);
}

ConvTranspose2d::ConvTranspose2d(int64_t in_channels, int64_t out_channels,
                                 int64_t kernel, int64_t stride,
                                 int64_t padding, std::mt19937& rng, bool bias)
    : stride_(stride), padding_(padding) {
  const int64_t fan_in = out_channels * kernel * kernel;
  weight_ = register_parameter(
      "weight",
      kaiming_uniform({in_channels, out_channels, kernel, kernel}, fan_in, rng));
  if (bias) {
    bias_ = register_parameter("bias",
                               kaiming_uniform({out_channels}, fan_in, rng));
  } else {
    bias_ = ag::Variable();
  }
}

ag::Variable ConvTranspose2d::forward(const ag::Variable& x) const {
  if (prepack_ && !ag::GradMode::is_enabled()) {
    return ag::conv_transpose2d_prepacked(x, weight_, prepack_, bias_,
                                          stride_, padding_);
  }
  return ag::conv_transpose2d(x, weight_, bias_, stride_, padding_);
}

void ConvTranspose2d::prepack_forward(Precision precision) {
  // Forward consumes the weight as wᵀ (CoutKK x Cin through the TN layout),
  // exactly like the per-call PackedA in ag::conv_transpose2d.
  const Tensor& w = weight_.value();
  const int64_t cin = w.size(0);
  const int64_t ckk = w.numel() / cin;
  prepack_ = std::make_shared<const PackedWeight>(GemmLayout::kTN, w.data(),
                                                  ckk, cin, precision);
}

BatchNorm2d::BatchNorm2d(int64_t channels, float momentum, float eps)
    : momentum_(momentum), eps_(eps) {
  gamma_ = register_parameter("weight", Tensor::ones({channels}));
  beta_ = register_parameter("bias", Tensor::zeros({channels}));
  running_mean_ = &register_buffer("running_mean", Tensor::zeros({channels}));
  running_var_ = &register_buffer("running_var", Tensor::ones({channels}));
}

ag::Variable BatchNorm2d::forward(const ag::Variable& x) {
  return ag::batch_norm2d(x, gamma_, beta_, *running_mean_, *running_var_,
                          training(), momentum_, eps_);
}

VggBlock::VggBlock(int64_t in_channels, int64_t out_channels, std::mt19937& rng)
    : conv1_(in_channels, out_channels, 3, 1, 1, rng),
      bn1_(out_channels),
      conv2_(out_channels, out_channels, 3, 1, 1, rng),
      bn2_(out_channels) {
  register_module("conv1", &conv1_);
  register_module("bn1", &bn1_);
  register_module("conv2", &conv2_);
  register_module("bn2", &bn2_);
}

ag::Variable VggBlock::forward(const ag::Variable& x) {
  ag::Variable h = ag::leaky_relu(bn1_.forward(conv1_.forward(x)), 0.2f);
  return ag::leaky_relu(bn2_.forward(conv2_.forward(h)), 0.2f);
}

}  // namespace litho::nn
