// Tests for the packed tiled GEMM engine and the implicit-im2col
// convolution path: golden parity against naive references over
// randomized shapes (including sub-tile, prime and k=0 extents), epilogue
// semantics, the spectral mixing kernel, float workspace pooling, and
// cross-thread-count bitwise determinism of conv2d forward/backward.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "runtime/thread_pool.h"
#include "runtime/workspace.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernels.h"
#include "tensor/prepack.h"
#include "tensor/tensor.h"
#include "test_util.h"

namespace litho {
namespace {

// Naive k-ordered references. The engine promises the same per-element
// accumulation order, so parity should be exact at default build flags —
// but the tolerance below allows for multiply-add fusion differences under
// -DDOINN_NATIVE_ARCH=ON (-march=native enables FMA contraction, which may
// apply differently to this loop and the engine's kernels).
void ref_gemm(GemmLayout layout, const float* a, const float* b, float* c,
              int64_t m, int64_t k, int64_t n, bool accumulate = false,
              bool subtract = false, const float* bias = nullptr) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[i * n + j] : 0.f;
      for (int64_t kk = 0; kk < k; ++kk) {
        float av, bv;
        switch (layout) {
          case GemmLayout::kNN:
            av = a[i * k + kk];
            bv = b[kk * n + j];
            break;
          case GemmLayout::kTN:
            av = a[kk * m + i];
            bv = b[kk * n + j];
            break;
          default:  // kNT
            av = a[i * k + kk];
            bv = b[j * k + kk];
            break;
        }
        if (subtract) {
          acc -= av * bv;
        } else {
          acc += av * bv;
        }
      }
      c[i * n + j] = acc + (bias ? bias[i] : 0.f);
    }
  }
}

float tol_for(int64_t k) {
  // Zero at default flags; the scale term keeps the native-arch CI job
  // (FMA contraction) honest without hiding real bugs.
  return 1e-5f * static_cast<float>(std::max<int64_t>(k, 1));
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, AllLayoutsMatchNaive) {
  const auto [m, k, n] = GetParam();
  auto g = test::rng(static_cast<uint32_t>(m * 7919 + k * 131 + n));
  for (GemmLayout layout :
       {GemmLayout::kNN, GemmLayout::kTN, GemmLayout::kNT}) {
    Shape ashape = layout == GemmLayout::kTN ? Shape{k, m} : Shape{m, k};
    Shape bshape = layout == GemmLayout::kNT ? Shape{n, k} : Shape{k, n};
    Tensor a = Tensor::randn(ashape, g);
    Tensor b = Tensor::randn(bshape, g);
    Tensor c({m, n}), ref({m, n});
    packed_gemm(layout, a.data(), b.data(), c.data(), m, k, n);
    ref_gemm(layout, a.data(), b.data(), ref.data(), m, k, n);
    EXPECT_LE(test::max_abs_diff(c, ref), tol_for(k))
        << "layout " << static_cast<int>(layout) << " shape " << m << "x" << k
        << "x" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GemmShapes,
    ::testing::Values(
        // Smaller than one 4x8 micro-tile in every dimension.
        std::tuple{1, 1, 1}, std::tuple{3, 2, 5}, std::tuple{2, 7, 3},
        // Primes around the tile/block boundaries.
        std::tuple{7, 13, 17}, std::tuple{11, 37, 29}, std::tuple{13, 97, 31},
        // Exact tile multiples and the parallel block boundary.
        std::tuple{8, 64, 256}, std::tuple{16, 32, 257}, std::tuple{4, 8, 512},
        // k = 0: beta-0 semantics must still zero C.
        std::tuple{5, 0, 9}, std::tuple{1, 0, 1},
        // Deep K exercising multiple kGemmKC steps and the fused-pack path.
        std::tuple{9, 1031, 61}, std::tuple{32, 600, 300}));

TEST(Gemm, KZeroOverwritesDirtyOutput) {
  Tensor c = Tensor::full({3, 4}, 7.f);
  Tensor a({3, 0}), b({0, 4});
  gemm(a.data(), b.data(), c.data(), 3, 0, 4);
  for (int64_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 0.f);
}

TEST(Gemm, EpilogueAccumulateSubtractBias) {
  auto g = test::rng(11);
  const int64_t m = 6, k = 23, n = 19;
  Tensor a = Tensor::randn({m, k}, g), b = Tensor::randn({k, n}, g);
  Tensor bias = Tensor::randn({m}, g);

  Tensor c = Tensor::ones({m, n});
  Tensor ref = Tensor::ones({m, n});
  GemmEpilogue acc;
  acc.accumulate = true;
  packed_gemm(GemmLayout::kNN, a.data(), b.data(), c.data(), m, k, n, acc);
  ref_gemm(GemmLayout::kNN, a.data(), b.data(), ref.data(), m, k, n, true);
  EXPECT_LE(test::max_abs_diff(c, ref), tol_for(k));

  GemmEpilogue sub;
  sub.accumulate = true;
  sub.subtract = true;
  packed_gemm(GemmLayout::kNN, a.data(), b.data(), c.data(), m, k, n, sub);
  ref_gemm(GemmLayout::kNN, a.data(), b.data(), ref.data(), m, k, n, true,
           true);
  EXPECT_LE(test::max_abs_diff(c, ref), tol_for(k));

  GemmEpilogue be;
  be.bias = bias.data();
  packed_gemm(GemmLayout::kNN, a.data(), b.data(), c.data(), m, k, n, be);
  ref_gemm(GemmLayout::kNN, a.data(), b.data(), ref.data(), m, k, n, false,
           false, bias.data());
  EXPECT_LE(test::max_abs_diff(c, ref), tol_for(k));
}

TEST(Gemm, PrepackedColBlockApiMatchesFullGemm) {
  auto g = test::rng(5);
  const int64_t m = 12, k = 70, n = 333;
  Tensor a = Tensor::randn({m, k}, g), b = Tensor::randn({k, n}, g);
  Tensor full({m, n}), blocked({m, n});
  packed_gemm(GemmLayout::kNN, a.data(), b.data(), full.data(), m, k, n);

  const PackedA pa(GemmLayout::kNN, a.data(), m, k);
  const StridedBPacker bp(b.data(), n, false);
  for (int64_t blk = 0; blk < gemm_col_blocks(n); ++blk) {
    gemm_col_block(pa, bp, n, blk, blocked.data());
  }
  EXPECT_EQ(test::max_abs_diff(full, blocked), 0.f);

  // On-the-fly A packing must agree bitwise with the pre-packed path.
  Tensor onfly({m, n});
  for (int64_t blk = 0; blk < gemm_col_blocks(n); ++blk) {
    gemm_col_block(GemmLayout::kNN, a.data(), m, k, bp, n, blk, onfly.data());
  }
  EXPECT_EQ(test::max_abs_diff(full, onfly), 0.f);
}

TEST(Gemm, BitwiseDeterministicAcrossThreadCounts) {
  auto g = test::rng(17);
  const int64_t m = 21, k = 130, n = 1030;
  Tensor a = Tensor::randn({m, k}, g), b = Tensor::randn({k, n}, g);
  Tensor c1({m, n}), c8({m, n});
  {
    runtime::ThreadPool serial(1);
    runtime::ScopedPool sp(&serial);
    packed_gemm(GemmLayout::kNN, a.data(), b.data(), c1.data(), m, k, n);
  }
  {
    runtime::ThreadPool wide(8);
    runtime::ScopedPool sp(&wide);
    packed_gemm(GemmLayout::kNN, a.data(), b.data(), c8.data(), m, k, n);
  }
  EXPECT_EQ(test::max_abs_diff(c1, c8), 0.f);
}

TEST(Gemm, LegacyEntryPointsStillAgree) {
  auto g = test::rng(23);
  const int64_t m = 10, k = 40, n = 55;
  Tensor a = Tensor::randn({m, k}, g), b = Tensor::randn({k, n}, g);
  Tensor ref({m, n});
  gemm(a.data(), b.data(), ref.data(), m, k, n);

  Tensor at = a.transpose2d(), c1({m, n});
  gemm_at_b(at.data(), b.data(), c1.data(), m, k, n);
  EXPECT_LE(test::max_abs_diff(ref, c1), tol_for(k));

  Tensor bt = b.transpose2d(), c2({m, n});
  gemm_a_bt(a.data(), bt.data(), c2.data(), m, k, n);
  EXPECT_LE(test::max_abs_diff(ref, c2), tol_for(k));
}

// The runtime dispatcher serves only the widest runnable tier, which would
// otherwise leave the narrower tables untested on every wide-ISA runner.
// Feed every tier the host can run identical hand-packed panels and require
// exact agreement with the baseline tier and a k-ordered reference — this
// is also the direct statement of the "AVX2 without FMA rounds like scalar"
// claim the dispatcher's bitwise contract rests on.
TEST(Gemm, BaselineAndDispatchedKernelTablesAgreeBitwise) {
  auto g = test::rng(67);
  const int64_t klen = 37;
  Tensor a = Tensor::randn({klen, kGemmMR}, g);   // packed A panel, k-major
  Tensor b = Tensor::randn({klen, kGemmNR}, g);   // packed B micro-panel
  Tensor bias = Tensor::randn({kGemmMR}, g);
  // Strided B source for the paired kernels: two adjacent micro-panels per
  // row, plus slack so the row stride is not the panel width.
  const int64_t bstride = 3 * kGemmNR;
  Tensor bsrc = Tensor::randn({klen, bstride}, g);
  const float* b0 = bsrc.data();
  const float* b1 = bsrc.data() + kGemmNR;

  Tensor ref({kGemmMR, kGemmNR});
  for (int64_t r = 0; r < kGemmMR; ++r) {
    for (int64_t j = 0; j < kGemmNR; ++j) {
      float acc = 0.f;
      for (int64_t kk = 0; kk < klen; ++kk) {
        acc += a[kk * kGemmMR + r] * b[kk * kGemmNR + j];
      }
      ref[r * kGemmNR + j] = acc + bias[r];
    }
  }

  // In the portable build no table may fuse multiply-adds, so they must
  // agree exactly. Under -march=native (DOINN_NATIVE_ARCH) the baseline
  // TU's generic body may legally FMA-contract while the intrinsic tables
  // never do, so allow rounding-scale slack there.
#if defined(__FMA__)
  const float ktol = tol_for(klen);
#else
  const float ktol = 0.f;
#endif
  const std::vector<const detail::KernelTable*> tiers =
      detail::runnable_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(&detail::kernels(), tiers.front());
  const detail::KernelTable& base = *tiers.back();
  EXPECT_STREQ(base.name, "baseline");
  EXPECT_STREQ(gemm_kernel_tier(), detail::kernels().name);

  Tensor c_base({kGemmMR, kGemmNR});
  base.add(klen, a.data(), b.data(), kGemmNR, c_base.data(), kGemmNR,
           /*init=*/true, bias.data());
  EXPECT_LE(test::max_abs_diff(c_base, ref), tol_for(klen));
  Tensor e_base = Tensor::full({kGemmMR, kGemmNR}, -1.f);
  base.add_edge(klen, a.data(), b.data(), kGemmNR, e_base.data(), kGemmNR, 3,
                5, /*init=*/true, nullptr);
  Tensor s_base = Tensor::ones({kGemmMR, kGemmNR});
  base.sub(klen, a.data(), b.data(), kGemmNR, s_base.data(), kGemmNR,
           /*init=*/false, nullptr);

  // Two baseline single-tile calls over the strided panels: the reference
  // for every paired entry (C is MR x 2*NR, row stride 2*NR).
  const int64_t ldc = 2 * kGemmNR;
  auto two_singles = [&](detail::KernelTable::Fn fn, float start, bool init,
                         const float* bias_p) {
    Tensor c = Tensor::full({kGemmMR, ldc}, start);
    fn(klen, a.data(), b0, bstride, c.data(), ldc, init, bias_p);
    fn(klen, a.data(), b1, bstride, c.data() + kGemmNR, ldc, init, bias_p);
    return c;
  };
  const Tensor pair_add_ref = two_singles(base.add, 0.f, true, bias.data());
  const Tensor pair_sub_ref = two_singles(base.sub, 2.f, false, nullptr);

  // Indirect pair: B row kk is the 2*NR floats at xbase + rows[kk].off, with
  // offsets scattered on both sides of the base, as im2col taps are. The
  // reference is two baseline add calls over panels packed from the same
  // offsets.
  Tensor xsrc = Tensor::randn({1024}, g);
  const float* xbase = xsrc.data() + 512;
  std::vector<Im2colStep> rows(static_cast<size_t>(klen));
  std::uniform_int_distribution<int64_t> offd(-512, 512 - 2 * kGemmNR);
  for (Im2colStep& r : rows) r = {offd(g)};
  Tensor ind0({klen, kGemmNR}), ind1({klen, kGemmNR});
  for (int64_t kk = 0; kk < klen; ++kk) {
    for (int64_t j = 0; j < kGemmNR; ++j) {
      ind0[kk * kGemmNR + j] = xbase[rows[kk].off + j];
      ind1[kk * kGemmNR + j] = xbase[rows[kk].off + kGemmNR + j];
    }
  }
  auto two_packed_adds = [&](float start, bool init, const float* bias_p) {
    Tensor c = Tensor::full({kGemmMR, ldc}, start);
    base.add(klen, a.data(), ind0.data(), kGemmNR, c.data(), ldc, init,
             bias_p);
    base.add(klen, a.data(), ind1.data(), kGemmNR, c.data() + kGemmNR, ldc,
             init, bias_p);
    return c;
  };
  const Tensor ind_ref = two_packed_adds(0.f, true, bias.data());
  const Tensor ind_resume_ref = two_packed_adds(2.f, false, nullptr);

  for (const detail::KernelTable* tier : tiers) {
    SCOPED_TRACE(tier->name);
    const detail::KernelTable& t = *tier;
    Tensor c({kGemmMR, kGemmNR});
    t.add(klen, a.data(), b.data(), kGemmNR, c.data(), kGemmNR,
          /*init=*/true, bias.data());
    EXPECT_LE(test::max_abs_diff(c_base, c), ktol);

    // Edge variant: a ragged 3 x 5 sub-tile must agree the same way.
    Tensor e = Tensor::full({kGemmMR, kGemmNR}, -1.f);
    t.add_edge(klen, a.data(), b.data(), kGemmNR, e.data(), kGemmNR, 3, 5,
               /*init=*/true, nullptr);
    EXPECT_LE(test::max_abs_diff(e_base, e), ktol);

    // Subtract variant.
    Tensor sv = Tensor::ones({kGemmMR, kGemmNR});
    t.sub(klen, a.data(), b.data(), kGemmNR, sv.data(), kGemmNR,
          /*init=*/false, nullptr);
    EXPECT_LE(test::max_abs_diff(s_base, sv), ktol);

    // Paired entries (wide tiers only) == two baseline single-tile calls.
    if (t.add_pair != nullptr) {
      Tensor p({kGemmMR, ldc});
      t.add_pair(klen, a.data(), b0, b1, bstride, p.data(), ldc,
                 /*init=*/true, bias.data());
      EXPECT_LE(test::max_abs_diff(pair_add_ref, p), ktol);
    }
    if (t.sub_pair != nullptr) {
      Tensor p = Tensor::full({kGemmMR, ldc}, 2.f);
      t.sub_pair(klen, a.data(), b0, b1, bstride, p.data(), ldc,
                 /*init=*/false, nullptr);
      EXPECT_LE(test::max_abs_diff(pair_sub_ref, p), ktol);
    }
    // Every tier provides the indirect pair.
    ASSERT_NE(t.add_pair_ind, nullptr);
    {
      Tensor p({kGemmMR, ldc});
      t.add_pair_ind(klen, a.data(), xbase, rows.data(), p.data(), ldc,
                     /*init=*/true, bias.data());
      EXPECT_LE(test::max_abs_diff(ind_ref, p), ktol);
      Tensor q = Tensor::full({kGemmMR, ldc}, 2.f);
      t.add_pair_ind(klen, a.data(), xbase, rows.data(), q.data(), ldc,
                     /*init=*/false, nullptr);
      EXPECT_LE(test::max_abs_diff(ind_resume_ref, q), ktol);
    }
    if (t.add_pair_pack != nullptr) {
      Tensor p({kGemmMR, ldc});
      Tensor pack0 = Tensor::full({klen, kGemmNR}, -7.f);
      Tensor pack1 = Tensor::full({klen, kGemmNR}, -7.f);
      t.add_pair_pack(klen, a.data(), b0, b1, bstride, pack0.data(),
                      pack1.data(), p.data(), ldc, /*init=*/true,
                      bias.data());
      EXPECT_LE(test::max_abs_diff(pair_add_ref, p), ktol);
      // The packed panels it writes on the way past are the source rows.
      for (int64_t kk = 0; kk < klen; ++kk) {
        for (int64_t j = 0; j < kGemmNR; ++j) {
          ASSERT_EQ(pack0[kk * kGemmNR + j], b0[kk * bstride + j]) << kk;
          ASSERT_EQ(pack1[kk * kGemmNR + j], b1[kk * bstride + j]) << kk;
        }
      }
    }
  }
}

// -- Convolution through the implicit-im2col path -----------------------------

Tensor naive_conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
                    int64_t stride, int64_t padding) {
  const int64_t n = x.size(0), cin = x.size(1), h = x.size(2), ww = x.size(3);
  const int64_t cout = w.size(0), kh = w.size(2);
  const int64_t oh = ag::conv_out_size(h, kh, stride, padding);
  const int64_t ow = ag::conv_out_size(ww, kh, stride, padding);
  Tensor out({n, cout, oh, ow});
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t co = 0; co < cout; ++co) {
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          double acc = bias.numel() ? bias[co] : 0.0;
          for (int64_t ci = 0; ci < cin; ++ci) {
            for (int64_t ky = 0; ky < kh; ++ky) {
              for (int64_t kx = 0; kx < kh; ++kx) {
                const int64_t iy = oy * stride + ky - padding;
                const int64_t ix = ox * stride + kx - padding;
                if (iy < 0 || iy >= h || ix < 0 || ix >= ww) continue;
                acc += static_cast<double>(
                           x[((s * cin + ci) * h + iy) * ww + ix]) *
                       w[((co * cin + ci) * kh + ky) * kh + kx];
              }
            }
          }
          out[((s * cout + co) * oh + oy) * ow + ox] =
              static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

TEST(ConvGemm, ForwardMatchesNaiveConvolution) {
  auto g = test::rng(31);
  struct Case {
    int64_t n, cin, cout, hw, k, stride, pad;
  };
  const std::vector<Case> cases = {
      {2, 3, 5, 12, 3, 1, 1},   // 3x3 same-size
      {1, 4, 6, 13, 4, 2, 1},   // strided downsample, odd extent
      {3, 2, 4, 9, 1, 1, 0},    // 1x1 fast path
      {1, 1, 2, 7, 3, 1, 0},    // no padding
      {2, 5, 3, 8, 3, 1, 2},    // padding wider than usual
  };
  for (const Case& c : cases) {
    Tensor x = Tensor::randn({c.n, c.cin, c.hw, c.hw}, g);
    Tensor w = Tensor::randn({c.cout, c.cin, c.k, c.k}, g, 0.f, 0.5f);
    Tensor bias = Tensor::randn({c.cout}, g);
    const ag::Variable xv(x), wv(w), bv(bias);
    const Tensor out = ag::conv2d(xv, wv, bv, c.stride, c.pad).value();
    const Tensor ref = naive_conv2d(x, w, bias, c.stride, c.pad);
    EXPECT_LE(test::max_abs_diff(out, ref),
              tol_for(c.cin * c.k * c.k) * 4.f)
        << "case hw=" << c.hw << " k=" << c.k << " stride=" << c.stride;
  }
}

TEST(ConvGemm, ForwardBackwardBitwiseDeterministicAcrossThreadCounts) {
  auto g = test::rng(41);
  Tensor x = Tensor::randn({3, 6, 20, 20}, g);
  Tensor w = Tensor::randn({8, 6, 3, 3}, g, 0.f, 0.3f);
  Tensor bias = Tensor::randn({8}, g);

  auto run = [&](int threads, Tensor* gx, Tensor* gw, Tensor* gb) {
    runtime::ThreadPool pool(threads);
    runtime::ScopedPool sp(&pool);
    ag::Variable xv(x.clone(), /*requires_grad=*/true);
    ag::Variable wv(w.clone(), /*requires_grad=*/true);
    ag::Variable bv(bias.clone(), /*requires_grad=*/true);
    ag::Variable out = ag::conv2d(xv, wv, bv, 1, 1);
    ag::Variable loss = ag::sum(out);
    loss.backward();
    *gx = xv.grad().clone();
    *gw = wv.grad().clone();
    *gb = bv.grad().clone();
    return out.value().clone();
  };

  Tensor gx1, gw1, gb1, gx8, gw8, gb8;
  const Tensor o1 = run(1, &gx1, &gw1, &gb1);
  const Tensor o8 = run(8, &gx8, &gw8, &gb8);
  EXPECT_EQ(test::max_abs_diff(o1, o8), 0.f);
  EXPECT_EQ(test::max_abs_diff(gx1, gx8), 0.f);
  EXPECT_EQ(test::max_abs_diff(gw1, gw8), 0.f);
  EXPECT_EQ(test::max_abs_diff(gb1, gb8), 0.f);
}

TEST(ConvGemm, ConvTransposeDeterministicAcrossThreadCounts) {
  auto g = test::rng(43);
  Tensor x = Tensor::randn({2, 5, 9, 9}, g);
  Tensor w = Tensor::randn({5, 4, 4, 4}, g, 0.f, 0.3f);
  Tensor bias = Tensor::randn({4}, g);

  auto run = [&](int threads, Tensor* gx, Tensor* gw) {
    runtime::ThreadPool pool(threads);
    runtime::ScopedPool sp(&pool);
    ag::Variable xv(x.clone(), true), wv(w.clone(), true), bv(bias.clone());
    ag::Variable out = ag::conv_transpose2d(xv, wv, bv, 2, 1);
    ag::sum(out).backward();
    *gx = xv.grad().clone();
    *gw = wv.grad().clone();
    return out.value().clone();
  };
  Tensor gx1, gw1, gx8, gw8;
  const Tensor o1 = run(1, &gx1, &gw1);
  const Tensor o8 = run(8, &gx8, &gw8);
  EXPECT_EQ(test::max_abs_diff(o1, o8), 0.f);
  EXPECT_EQ(test::max_abs_diff(gx1, gx8), 0.f);
  EXPECT_EQ(test::max_abs_diff(gw1, gw8), 0.f);
}

// The prepacked fp32 conv feeds stride-1 convs with K <= kGemmKC and
// M <= kGemmMC to the indirect micro-kernel straight from the input plane,
// and packs only the column runs that cross an output row or touch the
// padding. Sweep the shapes where that split moves — kernel/padding
// (k3 p0 makes ow != w), widths around the 16-pixel run, ragged and
// multi-tile M, plus M = 65 and K = 513 which must keep the packed path —
// and require bitwise equality with ag::conv2d, which always packs. The
// inputs are exact-size tensors, so a sanitizer build flags any read
// past an input plane.
TEST(ConvGemm, PrepackedIndirectFeedBitwiseMatchesConv2dSweep) {
  auto g = test::rng(59);
  struct KP {
    int64_t k, pad;
  };
  struct Mk {
    int64_t m, cin;
  };
  const KP kps[] = {{3, 1}, {5, 2}, {3, 0}};
  const int64_t widths[] = {12, 16, 24, 40, 96, 128};
  const Mk mks[] = {{1, 4}, {5, 4}, {8, 3}, {16, 4}, {64, 2}, {65, 4}};
  const int64_t h = 9;
  auto bitwise_equal = [](const Tensor& a, const Tensor& b) {
    return a.same_shape(b) &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) * static_cast<size_t>(a.numel())) == 0;
  };
  auto check = [&](int64_t n, int64_t cin, int64_t m, int64_t k, int64_t pad,
                   int64_t w) {
    SCOPED_TRACE("n=" + std::to_string(n) + " cin=" + std::to_string(cin) +
                 " m=" + std::to_string(m) + " k=" + std::to_string(k) +
                 " pad=" + std::to_string(pad) + " w=" + std::to_string(w));
    const Tensor x = Tensor::randn({n, cin, h, w}, g);
    const Tensor wt = Tensor::randn({m, cin, k, k}, g, 0.f, 0.3f);
    const Tensor bias = Tensor::randn({m}, g);
    const ag::Variable xv(x), wv(wt), bv(bias);
    const Tensor ref = ag::conv2d(xv, wv, bv, 1, pad).value();
    const auto packed = std::make_shared<const PackedWeight>(
        GemmLayout::kNN, wt.data(), m, cin * k * k, Precision::kFp32);
    for (int threads : {1, 3}) {
      runtime::ThreadPool pool(threads);
      runtime::ScopedPool sp(&pool);
      const Tensor out =
          ag::conv2d_prepacked(xv, wv, packed, bv, 1, pad).value();
      EXPECT_TRUE(bitwise_equal(ref, out)) << "threads=" << threads;
    }
  };
  for (const int64_t n : {int64_t{1}, int64_t{3}}) {
    for (const KP& kp : kps) {
      for (const int64_t w : widths) {
        for (const Mk& mk : mks) check(n, mk.cin, mk.m, kp.k, kp.pad, w);
      }
    }
    // K = 57 * 3 * 3 = 513: one past a single K step.
    check(n, 57, 8, 3, 1, 40);
  }
}

// -- Spectral mixing kernel ---------------------------------------------------

TEST(CmodeMix, MatchesNaivePerModeContraction) {
  auto g = test::rng(53);
  const int64_t b = 2, ci = 5, co = 3, xy = 77;  // odd sizes off the i-block
  Tensor vr = Tensor::randn({b * ci * xy}, g), vi = Tensor::randn({b * ci * xy}, g);
  Tensor wr = Tensor::randn({ci * co * xy}, g), wi = Tensor::randn({ci * co * xy}, g);
  Tensor zr({b * co * xy}), zi({b * co * xy});
  cmode_mix(b, ci, co, xy, vr.data(), vi.data(), wr.data(), wi.data(),
            zr.data(), zi.data());
  for (int64_t bb = 0; bb < b; ++bb) {
    for (int64_t o = 0; o < co; ++o) {
      for (int64_t p = 0; p < xy; ++p) {
        double ar = 0.0, ai = 0.0;
        for (int64_t i = 0; i < ci; ++i) {
          const double xr = vr[(bb * ci + i) * xy + p];
          const double xi = vi[(bb * ci + i) * xy + p];
          const double yr = wr[(i * co + o) * xy + p];
          const double yi = wi[(i * co + o) * xy + p];
          ar += xr * yr - xi * yi;
          ai += xr * yi + xi * yr;
        }
        EXPECT_NEAR(zr[(bb * co + o) * xy + p], ar, 1e-4);
        EXPECT_NEAR(zi[(bb * co + o) * xy + p], ai, 1e-4);
      }
    }
  }
}

TEST(CmodeMix, BitwiseDeterministicAcrossThreadCounts) {
  auto g = test::rng(59);
  const int64_t b = 3, ci = 9, co = 4, xy = 128;
  Tensor vr = Tensor::randn({b * ci * xy}, g), vi = Tensor::randn({b * ci * xy}, g);
  Tensor wr = Tensor::randn({ci * co * xy}, g), wi = Tensor::randn({ci * co * xy}, g);
  Tensor zr1({b * co * xy}), zi1({b * co * xy});
  Tensor zr8({b * co * xy}), zi8({b * co * xy});
  {
    runtime::ThreadPool serial(1);
    runtime::ScopedPool sp(&serial);
    cmode_mix(b, ci, co, xy, vr.data(), vi.data(), wr.data(), wi.data(),
              zr1.data(), zi1.data());
  }
  {
    runtime::ThreadPool wide(8);
    runtime::ScopedPool sp(&wide);
    cmode_mix(b, ci, co, xy, vr.data(), vi.data(), wr.data(), wi.data(),
              zr8.data(), zi8.data());
  }
  EXPECT_EQ(test::max_abs_diff(zr1, zr8), 0.f);
  EXPECT_EQ(test::max_abs_diff(zi1, zi8), 0.f);
}

// -- Float workspace pool -----------------------------------------------------

TEST(FloatWorkspacePool, ReusesReleasedBuffers) {
  runtime::FloatWorkspacePool& pool = runtime::FloatWorkspacePool::instance();
  pool.clear();
  { runtime::FloatWorkspace ws(1000); }
  const auto before = pool.stats();
  { runtime::FloatWorkspace ws(900); }  // same power-of-two class
  const auto after = pool.stats();
  EXPECT_EQ(after.acquires, before.acquires + 1);
  EXPECT_EQ(after.reuses, before.reuses + 1);
  pool.clear();
}

// While a LeaseCache is installed, the thread's leases of every element
// type go back to it, and a repeated lease sequence is served from it alone
// with the same buffers; only its first pass takes buffers from the pools.
// A buffer that would take the cache past its byte budget goes back to the
// pool.
TEST(FloatWorkspacePool, LeaseCacheServesTheThreadsLeases) {
  runtime::FloatWorkspacePool& pool = runtime::FloatWorkspacePool::instance();
  runtime::WorkspacePool& cpool = runtime::WorkspacePool::instance();
  pool.clear();
  runtime::LeaseCache cache;
  const float* first = nullptr;
  for (int pass = 0; pass < 3; ++pass) {
    const auto f0 = pool.stats();
    const auto c0 = cpool.stats();
    {
      runtime::ScopedLeaseCache scope(&cache);
      EXPECT_EQ(runtime::ScopedLeaseCache::current(), &cache);
      runtime::FloatWorkspace big(5000);
      { runtime::FloatWorkspace small(100); }
      { runtime::Workspace complex(64); }
      if (pass == 0) first = big.data();
      EXPECT_EQ(big.data(), first) << "pass " << pass;
    }
    if (pass > 0) {
      EXPECT_EQ(pool.stats().acquires, f0.acquires) << "pass " << pass;
      EXPECT_EQ(cpool.stats().acquires, c0.acquires) << "pass " << pass;
    }
  }
  EXPECT_EQ(runtime::ScopedLeaseCache::current(), nullptr);

  const size_t huge = runtime::LeaseCache::kMaxCachedBytes / sizeof(float) + 1;
  {
    runtime::ScopedLeaseCache scope(&cache);
    runtime::FloatWorkspace ws(huge);
  }
  const auto h0 = pool.stats();
  { runtime::FloatWorkspace ws(huge); }
  EXPECT_EQ(pool.stats().reuses, h0.reuses + 1);
  pool.clear();
}

TEST(FloatWorkspacePool, IndependentFromComplexPool) {
  runtime::FloatWorkspacePool::instance().clear();
  runtime::WorkspacePool::instance().clear();
  const auto c0 = runtime::WorkspacePool::instance().stats();
  { runtime::FloatWorkspace ws(64); }
  const auto c1 = runtime::WorkspacePool::instance().stats();
  EXPECT_EQ(c0.acquires, c1.acquires);  // float leases don't touch it
}

}  // namespace
}  // namespace litho
