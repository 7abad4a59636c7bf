// Standard layers used by DOINN and the baseline models.
//
// Initialization follows PyTorch defaults (Kaiming-uniform bound
// 1/sqrt(fan_in)) so the training configurations of the paper's Table 8
// transfer directly.
#pragma once

#include "autograd/ops.h"
#include "nn/module.h"

namespace litho::nn {

/// 2-D convolution layer.
class Conv2d : public Module {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride, int64_t padding, std::mt19937& rng, bool bias = true);

  ag::Variable forward(const ag::Variable& x) const;

  /// Packs the weight into the GEMM panel layout; forward() uses the pack
  /// whenever gradients are disabled.
  void prepack_forward(litho::Precision precision) override;

  int64_t stride() const { return stride_; }
  int64_t padding() const { return padding_; }

 private:
  ag::Variable weight_;
  ag::Variable bias_;
  std::shared_ptr<const litho::PackedWeight> prepack_;
  int64_t stride_;
  int64_t padding_;
};

/// 2-D transposed convolution layer.
class ConvTranspose2d : public Module {
 public:
  ConvTranspose2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
                  int64_t stride, int64_t padding, std::mt19937& rng,
                  bool bias = true);

  ag::Variable forward(const ag::Variable& x) const;

  void prepack_forward(litho::Precision precision) override;

 private:
  ag::Variable weight_;
  ag::Variable bias_;
  std::shared_ptr<const litho::PackedWeight> prepack_;
  int64_t stride_;
  int64_t padding_;
};

/// Batch normalization over 4-D activations.
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(int64_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);

  ag::Variable forward(const ag::Variable& x);

 private:
  ag::Variable gamma_;
  ag::Variable beta_;
  Tensor* running_mean_;
  Tensor* running_var_;
  float momentum_;
  float eps_;
};

/// The paper's "vgg" block: two identical 3x3 same-padding convolutions,
/// each followed by BatchNorm and LeakyReLU(0.2) (appendix A.1.2).
class VggBlock : public Module {
 public:
  VggBlock(int64_t in_channels, int64_t out_channels, std::mt19937& rng);

  ag::Variable forward(const ag::Variable& x);

 private:
  Conv2d conv1_;
  BatchNorm2d bn1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
};

}  // namespace litho::nn
