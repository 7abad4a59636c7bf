// Differentiable operations on Variables.
//
// Layout conventions follow PyTorch:
//   activations            [N, C, H, W]
//   conv weight            [Cout, Cin, kh, kw]
//   conv-transpose weight  [Cin, Cout, kh, kw]
//   batchnorm params       [C]
//
// Every op returns a fresh Variable whose backward closure accumulates into
// its parents. Gradients of each op are covered by numeric gradcheck tests.
#pragma once

#include <memory>

#include "autograd/variable.h"

namespace litho {
class PackedWeight;
}

namespace litho::ag {

// -- Elementwise / structural -------------------------------------------------

Variable add(const Variable& a, const Variable& b);
Variable sub(const Variable& a, const Variable& b);
Variable mul(const Variable& a, const Variable& b);
Variable scale(const Variable& a, float s);

Variable relu(const Variable& x);
Variable leaky_relu(const Variable& x, float negative_slope);
Variable tanh(const Variable& x);
Variable sigmoid(const Variable& x);

/// Concatenates along the channel dimension (dim 1 of NCHW).
Variable concat_channels(const std::vector<Variable>& parts);

/// Copy of channels [start, start+len) (dim 1 of NCHW).
Variable narrow_channels(const Variable& x, int64_t start, int64_t len);

/// Sum of all elements as a scalar (shape [1]) variable.
Variable sum(const Variable& x);

/// Mean of all elements as a scalar variable.
Variable mean(const Variable& x);

// -- Losses -------------------------------------------------------------------

/// Mean squared error between prediction and (constant) target.
Variable mse_loss(const Variable& pred, const Tensor& target);

// -- Convolutional ops ---------------------------------------------------------

/// 2-D convolution; x [N,Cin,H,W], w [Cout,Cin,kh,kw], optional bias [Cout].
/// Pass an undefined (default-constructed, numel()==0) Variable to skip bias.
Variable conv2d(const Variable& x, const Variable& w, const Variable& b,
                int64_t stride, int64_t padding);

/// 2-D transposed convolution; x [N,Cin,h,w], w [Cin,Cout,kh,kw].
/// Output spatial extent: (h-1)*stride - 2*padding + kh.
Variable conv_transpose2d(const Variable& x, const Variable& w,
                          const Variable& b, int64_t stride, int64_t padding);

// -- Prepacked inference-only convolutions -------------------------------------
// Forward-only variants over weights packed once at model-load time
// (tensor/prepack.h). They build no autograd graph and return leaf
// Variables — callers gate on !GradMode::is_enabled(). @p w is the module's
// weight Variable, used for shape validation only; @p wp supplies the
// panels (held by shared_ptr so graph-capture closures can pin the pack
// across engine re-prepacks). The fp32 mode consumes the same panel bytes
// the per-call path packs, so its outputs are bitwise identical to conv2d /
// conv_transpose2d.

Variable conv2d_prepacked(const Variable& x, const Variable& w,
                          const std::shared_ptr<const litho::PackedWeight>& wp,
                          const Variable& b, int64_t stride, int64_t padding);

Variable conv_transpose2d_prepacked(
    const Variable& x, const Variable& w,
    const std::shared_ptr<const litho::PackedWeight>& wp, const Variable& b,
    int64_t stride, int64_t padding);

/// Average pooling with square kernel k and stride k (paper GP pool /8).
Variable avg_pool2d(const Variable& x, int64_t k);

/// Batch normalization over (N, H, W) per channel.
/// In training mode batch statistics are used and @p running_mean /
/// @p running_var (plain tensors owned by the module) are updated with
/// @p momentum. In eval mode running statistics are used.
Variable batch_norm2d(const Variable& x, const Variable& gamma,
                      const Variable& beta, Tensor& running_mean,
                      Tensor& running_var, bool training, float momentum,
                      float eps);

// -- im2col helpers ------------------------------------------------------------
// The conv ops no longer materialize columns (the GEMM engine gathers them
// implicitly through BPanelPacker); im2col stays as the reference
// formulation paired with col2im, which conv2d's input gradient and the
// training conv_transpose2d forward still use to scatter columns. The
// prepacked conv_transpose2d gathers each output pixel's taps from one row
// band's column tile instead, in col2im's per-pixel order.

/// Unfolds one sample plane [C,H,W] into columns [C*k*k, L] with the given
/// stride/padding; L = out_h*out_w.
void im2col(const float* x, int64_t c, int64_t h, int64_t w, int64_t k,
            int64_t stride, int64_t padding, float* col);

/// Adjoint of im2col: scatters columns back into (accumulates onto) x.
/// Parallel over (disjoint) channels, bitwise deterministic.
void col2im(const float* col, int64_t c, int64_t h, int64_t w, int64_t k,
            int64_t stride, int64_t padding, float* x);

/// Output spatial extent of a convolution along one axis.
int64_t conv_out_size(int64_t in, int64_t k, int64_t stride, int64_t padding);

}  // namespace litho::ag
