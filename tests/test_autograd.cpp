#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "autograd/ops_weighted.h"
#include "autograd/spectral.h"
#include "test_util.h"

namespace litho::ag {
namespace {

using test::gradcheck;

TEST(Variable, LeafBackwardAccumulates) {
  Variable x(Tensor({1}, {3.f}), true);
  Variable y = mul(x, x);  // y = x^2, dy/dx = 2x = 6
  y.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 6.f);
  // Second backward accumulates.
  Variable y2 = mul(x, x);
  y2.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 12.f);
  x.zero_grad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.f);
}

TEST(Variable, DiamondGraphGradient) {
  // z = (x+x) * x = 2x^2; dz/dx = 4x.
  Variable x(Tensor({1}, {2.5f}), true);
  Variable z = mul(add(x, x), x);
  z.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 10.f);
}

TEST(Variable, NonScalarBackwardThrowsWithoutSeed) {
  Variable x(Tensor({2}, {1.f, 2.f}), true);
  EXPECT_THROW(x.backward(), std::logic_error);
}

TEST(Variable, NoGradThroughConstantLeaf) {
  Variable x(Tensor({1}, {2.f}), false);
  Variable w(Tensor({1}, {3.f}), true);
  Variable y = mul(x, w);
  y.backward();
  EXPECT_FLOAT_EQ(w.grad()[0], 2.f);
  EXPECT_FALSE(x.requires_grad());
}

TEST(Gradcheck, ElementwiseOps) {
  auto g = test::rng();
  Variable a(Tensor::randn({2, 3}, g), true);
  Variable b(Tensor::randn({2, 3}, g), true);
  gradcheck([&] { return sum(mul(add(a, b), sub(a, b))); }, {a, b});
}

TEST(Gradcheck, ScaleAndMean) {
  auto g = test::rng(2);
  Variable a(Tensor::randn({3, 2}, g), true);
  gradcheck([&] { return mean(scale(a, 2.5f)); }, {a});
}

TEST(Gradcheck, Activations) {
  auto g = test::rng(3);
  // Keep values away from the ReLU kink to make finite differences valid.
  Tensor init = Tensor::randn({2, 5}, g);
  for (int64_t i = 0; i < init.numel(); ++i) {
    if (std::abs(init[i]) < 0.1f) init[i] = 0.3f;
  }
  Variable x(init, true);
  gradcheck([&] { return sum(relu(x)); }, {x});
  gradcheck([&] { return sum(leaky_relu(x, 0.2f)); }, {x});
  gradcheck([&] { return sum(tanh(x)); }, {x});
  gradcheck([&] { return sum(sigmoid(x)); }, {x});
}

TEST(Gradcheck, ConcatAndNarrowChannels) {
  auto g = test::rng(4);
  Variable a(Tensor::randn({1, 2, 2, 2}, g), true);
  Variable b(Tensor::randn({1, 3, 2, 2}, g), true);
  gradcheck([&] {
    Variable c = concat_channels({a, b});
    return sum(mul(c, c));
  }, {a, b});
  gradcheck([&] {
    Variable n = narrow_channels(b, 1, 2);
    return sum(mul(n, n));
  }, {b});
}

TEST(Gradcheck, MseLoss) {
  auto g = test::rng(5);
  Variable p(Tensor::randn({2, 4}, g), true);
  Tensor t = Tensor::randn({2, 4}, g);
  gradcheck([&] { return mse_loss(p, t); }, {p});
}

TEST(Gradcheck, WeightedMseLoss) {
  auto g = test::rng(55);
  Variable p(Tensor::randn({2, 4}, g), true);
  Tensor t = Tensor::randn({2, 4}, g);
  Tensor w = Tensor::rand({2, 4}, g, 0.5f, 4.f);
  gradcheck([&] { return weighted_mse_loss(p, t, w); }, {p});
}

TEST(WeightedMse, ReducesToMseForUnitWeights) {
  auto g = test::rng(56);
  Variable p(Tensor::randn({3, 3}, g), false);
  Tensor t = Tensor::randn({3, 3}, g);
  Variable a = mse_loss(p, t);
  Variable b = weighted_mse_loss(p, t, Tensor::ones({3, 3}));
  EXPECT_NEAR(a.value()[0], b.value()[0], 1e-6f);
}

// Property sweep: conv2d forward/backward consistent across kernel, stride,
// padding combinations (adjoint identity <conv(x),y> == <x, conv_grad(y)>).
class ConvGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ConvGeometry, GradcheckHolds) {
  const auto [k, s, p] = GetParam();
  auto g = test::rng(100 + k * 9 + s * 3 + p);
  Variable x(Tensor::randn({1, 2, 8, 8}, g), true);
  Variable w(Tensor::randn({2, 2, k, k}, g, 0.f, 0.4f), true);
  test::gradcheck(
      [&, s = s, p = p] {
        return mean(conv2d(x, w, Variable(), s, p));
      },
      {x, w});
}

INSTANTIATE_TEST_SUITE_P(Grid, ConvGeometry,
                         ::testing::Values(std::tuple{1, 1, 0},
                                           std::tuple{3, 1, 1},
                                           std::tuple{3, 2, 1},
                                           std::tuple{4, 2, 1},
                                           std::tuple{5, 1, 2},
                                           std::tuple{4, 4, 0}));

TEST(Conv2d, KnownResult) {
  // 1x1x3x3 input, 1x1x2x2 kernel of ones, stride 1, no padding:
  // each output = sum of 2x2 window.
  Variable x(Tensor({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9}), false);
  Variable w(Tensor({1, 1, 2, 2}, {1, 1, 1, 1}), false);
  Variable out = conv2d(x, w, Variable(), 1, 0);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.value()[0], 12.f);
  EXPECT_FLOAT_EQ(out.value()[1], 16.f);
  EXPECT_FLOAT_EQ(out.value()[2], 24.f);
  EXPECT_FLOAT_EQ(out.value()[3], 28.f);
}

TEST(Conv2d, PaddingAndStride) {
  Variable x(Tensor::ones({1, 1, 4, 4}), false);
  Variable w(Tensor::ones({1, 1, 3, 3}), false);
  Variable out = conv2d(x, w, Variable(), 2, 1);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  // Top-left window covers 2x2 of ones (padded corners).
  EXPECT_FLOAT_EQ(out.value()[0], 4.f);
}

TEST(Conv2d, BiasApplied) {
  Variable x(Tensor::zeros({1, 2, 2, 2}), false);
  Variable w(Tensor::zeros({3, 2, 1, 1}), false);
  Variable b(Tensor({3}, {1.f, 2.f, 3.f}), false);
  Variable out = conv2d(x, w, b, 1, 0);
  EXPECT_FLOAT_EQ(out.value().at({0, 0, 0, 0}), 1.f);
  EXPECT_FLOAT_EQ(out.value().at({0, 2, 1, 1}), 3.f);
}

TEST(Gradcheck, Conv2d) {
  auto g = test::rng(6);
  Variable x(Tensor::randn({2, 2, 5, 5}, g), true);
  Variable w(Tensor::randn({3, 2, 3, 3}, g, 0.f, 0.5f), true);
  Variable b(Tensor::randn({3}, g), true);
  gradcheck([&] { return mean(conv2d(x, w, b, 1, 1)); }, {x, w, b});
  gradcheck([&] { return mean(conv2d(x, w, b, 2, 1)); }, {x, w, b});
}

TEST(ConvTranspose2d, ShapeAndAdjointOfConv) {
  // conv_transpose with the same weight is the adjoint of conv:
  // <conv(x), y> == <x, convT(y)>.
  auto g = test::rng(7);
  const int64_t s = 2, p = 1, k = 4;
  Tensor wt = Tensor::randn({2, 3, k, k}, g);  // [Cin=2, Cout=3] transposed view
  Variable x(Tensor::randn({1, 3, 8, 8}, g), false);  // conv input: 3 channels
  // conv weight [Cout=2? ...] -- use wt as convT weight [Cin=2,Cout=3]:
  // convT maps 2->3 channels; its adjoint conv maps 3->2 with weight
  // [2,3,k,k] viewed as conv weight [Cout=2,Cin=3].
  Variable xt(Tensor::randn({1, 2, 4, 4}, g), false);
  Variable w(wt, false);
  Variable y = conv_transpose2d(xt, w, Variable(), s, p);
  EXPECT_EQ(y.shape(), (Shape{1, 3, 8, 8}));

  Variable z = conv2d(x, w, Variable(), s, p);  // weight [2,3,k,k] as conv
  EXPECT_EQ(z.shape(), (Shape{1, 2, 4, 4}));

  double lhs = 0, rhs = 0;
  for (int64_t i = 0; i < z.value().numel(); ++i) {
    lhs += static_cast<double>(z.value()[i]) * xt.value()[i];
  }
  for (int64_t i = 0; i < y.value().numel(); ++i) {
    rhs += static_cast<double>(y.value()[i]) * x.value()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::abs(lhs)));
}

TEST(Gradcheck, ConvTranspose2d) {
  auto g = test::rng(8);
  Variable x(Tensor::randn({1, 2, 3, 3}, g), true);
  Variable w(Tensor::randn({2, 3, 4, 4}, g, 0.f, 0.4f), true);
  Variable b(Tensor::randn({3}, g), true);
  gradcheck([&] { return mean(conv_transpose2d(x, w, b, 2, 1)); }, {x, w, b});
}

TEST(AvgPool2d, ForwardAndGradcheck) {
  Variable x(Tensor({1, 1, 2, 2}, {1, 2, 3, 4}), false);
  Variable y = avg_pool2d(x, 2);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y.value()[0], 2.5f);

  auto g = test::rng(9);
  Variable z(Tensor::randn({2, 2, 4, 4}, g), true);
  gradcheck([&] { return mean(mul(avg_pool2d(z, 2), avg_pool2d(z, 2))); }, {z});
}

TEST(AvgPool2d, RejectsNonDivisibleExtent) {
  Variable x(Tensor::zeros({1, 1, 5, 4}), false);
  EXPECT_THROW(avg_pool2d(x, 2), std::invalid_argument);
}

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  auto g = test::rng(10);
  Variable x(Tensor::randn({4, 2, 8, 8}, g, 3.f, 2.f), false);
  Variable gamma(Tensor::ones({2}), false);
  Variable beta(Tensor::zeros({2}), false);
  Tensor rm = Tensor::zeros({2}), rv = Tensor::ones({2});
  Variable y = batch_norm2d(x, gamma, beta, rm, rv, true, 0.1f, 1e-5f);
  // Per-channel mean ~0, var ~1.
  const int64_t plane = 64, n = 4;
  for (int64_t c = 0; c < 2; ++c) {
    double mean = 0, var = 0;
    for (int64_t b = 0; b < n; ++b) {
      const float* p = y.value().data() + (b * 2 + c) * plane;
      for (int64_t i = 0; i < plane; ++i) mean += p[i];
    }
    mean /= n * plane;
    for (int64_t b = 0; b < n; ++b) {
      const float* p = y.value().data() + (b * 2 + c) * plane;
      for (int64_t i = 0; i < plane; ++i) var += (p[i] - mean) * (p[i] - mean);
    }
    var /= n * plane;
    EXPECT_NEAR(mean, 0.0, 1e-3);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
  // Running stats moved toward batch stats.
  EXPECT_NEAR(rm[0], 0.1f * 3.f, 0.15f);
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  Variable x(Tensor::full({1, 1, 2, 2}, 10.f), false);
  Variable gamma(Tensor::ones({1}), false);
  Variable beta(Tensor::zeros({1}), false);
  Tensor rm = Tensor::full({1}, 10.f), rv = Tensor::ones({1});
  Variable y = batch_norm2d(x, gamma, beta, rm, rv, false, 0.1f, 1e-5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(y.value()[i], 0.f, 1e-4f);
}

TEST(Gradcheck, BatchNormTraining) {
  auto g = test::rng(11);
  Variable x(Tensor::randn({2, 2, 3, 3}, g), true);
  Variable gamma(Tensor::rand({2}, g, 0.5f, 1.5f), true);
  Variable beta(Tensor::randn({2}, g), true);
  gradcheck(
      [&] {
        Tensor rm = Tensor::zeros({2}), rv = Tensor::ones({2});
        Variable y = batch_norm2d(x, gamma, beta, rm, rv, true, 0.1f, 1e-5f);
        return mean(mul(y, y));
      },
      {x, gamma, beta}, 1e-2f, 4e-2f);
}

TEST(Gradcheck, BatchNormEval) {
  auto g = test::rng(12);
  Variable x(Tensor::randn({2, 2, 3, 3}, g), true);
  Variable gamma(Tensor::rand({2}, g, 0.5f, 1.5f), true);
  Variable beta(Tensor::randn({2}, g), true);
  Tensor rm = Tensor::randn({2}, g);
  Tensor rv = Tensor::rand({2}, g, 0.5f, 2.f);
  gradcheck(
      [&] {
        Tensor rm2 = rm.clone(), rv2 = rv.clone();
        Variable y = batch_norm2d(x, gamma, beta, rm2, rv2, false, 0.1f, 1e-5f);
        return mean(mul(y, y));
      },
      {x, gamma, beta});
}

// -- Elementwise stages ----------------------------------------------------------
// leaky_relu, tanh and no-grad eval batch_norm2d compute through the one
// stage loop a fused conv epilogue runs (tensor/gemm.h apply_gemm_post).
// These tests pin that loop to each op's scalar definition, bit for bit.

// Index of the first element whose bits differ, or -1.
int64_t first_bit_mismatch(const float* a, const float* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (std::memcmp(a + i, b + i, sizeof(float)) != 0) return i;
  }
  return -1;
}

TEST(ElementwiseStage, LeakyMatchesScalarDefinitionBitwise) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kSub = std::numeric_limits<float>::denorm_min();
  constexpr float kMin = std::numeric_limits<float>::min();
  const float specials[] = {0.f,   -0.f,     1.f,      -1.f,     -2.5f,
                            kInf,  -kInf,    kSub,     -kSub,    -7 * kSub,
                            3e38f, -3e38f,   -1e-30f,  kMin / 2, -kMin / 2};
  // Long enough for the vectorized body and a ragged tail.
  std::vector<float> vals;
  for (int rep = 0; rep < 5; ++rep) {
    for (float v : specials) vals.push_back(rep % 2 == 0 ? v : 3.f * v);
  }
  const int64_t n = static_cast<int64_t>(vals.size());
  const Tensor x({n}, vals);
  for (float slope : {0.f, 0.01f, 0.2f, -0.5f}) {
    std::vector<float> want;
    for (float v : vals) want.push_back(v < 0 ? v * slope : v);
    Tensor walked;
    {
      NoGradGuard no_grad;
      walked = leaky_relu(Variable(x, false), slope).value();
    }
    const Tensor trained = leaky_relu(Variable(x, true), slope).value();
    EXPECT_EQ(first_bit_mismatch(walked.data(), want.data(), n), -1)
        << "slope " << slope;
    EXPECT_EQ(first_bit_mismatch(trained.data(), want.data(), n), -1)
        << "slope " << slope;
  }
}

TEST(ElementwiseStage, TanhMatchesStdTanhBitwise) {
  auto g = test::rng(41);
  Tensor x = Tensor::randn({3, 37}, g, 0.f, 4.f);
  x[0] = 0.f;
  x[1] = -0.f;
  x[2] = std::numeric_limits<float>::infinity();
  x[3] = -std::numeric_limits<float>::infinity();
  x[4] = std::numeric_limits<float>::denorm_min();
  std::vector<float> want(static_cast<size_t>(x.numel()));
  for (int64_t i = 0; i < x.numel(); ++i) want[i] = std::tanh(x[i]);
  {
    NoGradGuard no_grad;
    const Tensor got = tanh(Variable(x, false)).value();
    EXPECT_EQ(first_bit_mismatch(got.data(), want.data(), x.numel()), -1);
  }
  const Tensor got = tanh(Variable(x, true)).value();
  EXPECT_EQ(first_bit_mismatch(got.data(), want.data(), x.numel()), -1);
}

TEST(ElementwiseStage, NoGradEvalBatchNormMatchesGradPathAndNaiveLoop) {
  auto g = test::rng(42);
  const int64_t n = 2, c = 3, h = 5, w = 7, plane = h * w;
  const float eps = 1e-5f;
  const Tensor xt = Tensor::randn({n, c, h, w}, g, 0.5f, 2.f);
  Variable gamma(Tensor::rand({c}, g, 0.5f, 1.5f), true);
  Variable beta(Tensor::randn({c}, g), true);
  const Tensor rm = Tensor::randn({c}, g);
  const Tensor rv = Tensor::rand({c}, g, 0.5f, 2.f);

  Tensor naive({n, c, h, w});
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float is = 1.f / std::sqrt(rv[ch] + eps);
      for (int64_t i = 0; i < plane; ++i) {
        const int64_t at = (b * c + ch) * plane + i;
        const float xh = (xt[at] - rm[ch]) * is;
        naive[at] = gamma.value()[ch] * xh + beta.value()[ch];
      }
    }
  }

  Tensor rm1 = rm.clone(), rv1 = rv.clone();
  const Tensor graded =
      batch_norm2d(Variable(xt, true), gamma, beta, rm1, rv1, false, 0.1f, eps)
          .value();
  Tensor fast;
  {
    NoGradGuard no_grad;
    Tensor rm2 = rm.clone(), rv2 = rv.clone();
    fast = batch_norm2d(Variable(xt, false), gamma, beta, rm2, rv2, false,
                        0.1f, eps)
               .value();
  }
  EXPECT_EQ(first_bit_mismatch(fast.data(), graded.data(), naive.numel()), -1);
  EXPECT_EQ(first_bit_mismatch(fast.data(), naive.data(), naive.numel()), -1);
}

// -- Spectral ops -------------------------------------------------------------

TEST(Spectral, RfftIrfftRoundTripVariable) {
  auto g = test::rng(13);
  Variable x(Tensor::randn({1, 1, 8, 8}, g), false);
  CVariable spec = rfft2v(x);
  Variable back = irfft2v(spec, 8);
  EXPECT_LT(test::max_abs_diff(back.value(), x.value()), 1e-4f);
}

TEST(Gradcheck, RfftIrfftChain) {
  auto g = test::rng(14);
  Variable x(Tensor::randn({1, 1, 4, 4}, g), true);
  gradcheck(
      [&] {
        CVariable spec = rfft2v(x);
        Variable y = irfft2v(spec, 4);
        return mean(mul(y, y));
      },
      {x});
}

TEST(Gradcheck, TruncatePadChain) {
  auto g = test::rng(15);
  Variable x(Tensor::randn({1, 1, 6, 6}, g), true);
  gradcheck(
      [&] {
        CVariable spec = rfft2v(x);  // [1,1,6,4]
        CVariable t = ctruncate(spec, 2, 2);
        CVariable p = cpad(t, 6, 4);
        Variable y = irfft2v(p, 6);
        return mean(mul(y, y));
      },
      {x});
}

TEST(Spectral, TruncatePadKeepsLowFrequencies) {
  auto g = test::rng(16);
  Variable x(Tensor::randn({1, 1, 8, 8}, g), false);
  CVariable spec = rfft2v(x);
  CVariable round = cpad(ctruncate(spec, 8, 5), 8, 5);
  // Full-size truncation is the identity.
  EXPECT_LT(test::max_abs_diff(round.re.value(), spec.re.value()), 1e-6f);
  EXPECT_LT(test::max_abs_diff(round.im.value(), spec.im.value()), 1e-6f);
}

TEST(Gradcheck, CliftAndModeMatmul) {
  auto g = test::rng(17);
  Variable vre(Tensor::randn({2, 2, 3, 3}, g), true);
  Variable vim(Tensor::randn({2, 2, 3, 3}, g), true);
  Variable wre(Tensor::randn({2, 3}, g), true);
  Variable wim(Tensor::randn({2, 3}, g), true);
  gradcheck(
      [&] {
        CVariable out = clift({vre, vim}, {wre, wim});
        return mean(add(mul(out.re, out.re), mul(out.im, out.im)));
      },
      {vre, vim, wre, wim});

  Variable mre(Tensor::randn({2, 3, 3, 3}, g), true);
  Variable mim(Tensor::randn({2, 3, 3, 3}, g), true);
  gradcheck(
      [&] {
        CVariable out = cmode_matmul({vre, vim}, {mre, mim});
        return mean(add(mul(out.re, out.re), mul(out.im, out.im)));
      },
      {vre, vim, mre, mim});
}

TEST(Spectral, CliftKnownValue) {
  // v = 1+i (single element), w = 2-i -> out = (1+i)(2-i) = 3+i.
  Variable vre(Tensor::ones({1, 1, 1, 1}), false);
  Variable vim(Tensor::ones({1, 1, 1, 1}), false);
  Variable wre(Tensor({1, 1}, {2.f}), false);
  Variable wim(Tensor({1, 1}, {-1.f}), false);
  CVariable out = clift({vre, vim}, {wre, wim});
  EXPECT_FLOAT_EQ(out.re.value()[0], 3.f);
  EXPECT_FLOAT_EQ(out.im.value()[0], 1.f);
}

}  // namespace
}  // namespace litho::ag
