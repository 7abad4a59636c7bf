// Tests for load-time weight prepacking and the int8 inference path
// (tensor/prepack.h): fp32 prepacked panels must be bitwise identical
// to the per-call packing path, both precision modes must keep the engine's
// cross-thread-count bitwise-determinism contract, the int8 micro kernels
// of every runnable tier must agree with the baseline tier, and int8
// inference on a trained checkpoint must stay within a contour-accuracy
// bound of fp32. An int8 engine packs every conv int8 in every
// configuration, so autotune (kernel knobs only) never changes its bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/doinn.h"
#include "core/metrics.h"
#include "core/trainer.h"
#include "runtime/engine.h"
#include "runtime/graph_exec.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernels.h"
#include "tensor/prepack.h"
#include "test_util.h"

namespace litho {
namespace {

core::DoinnConfig tiny_config() {
  core::DoinnConfig cfg = core::DoinnConfig::small();
  cfg.tile = 64;
  cfg.modes = 4;
  cfg.gp_channels = 4;
  return cfg;
}

Tensor random_mask(int64_t side, uint32_t seed) {
  auto rng = test::rng(seed);
  Tensor mask = Tensor::rand({side, side}, rng);
  mask.apply_([](float v) { return v >= 0.6f ? 1.f : 0.f; });
  return mask;
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

// -- Precision flag -----------------------------------------------------------

TEST(Precision, FlagRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(parse_precision("fp32"), Precision::kFp32);
  EXPECT_EQ(parse_precision("int8"), Precision::kInt8);
  EXPECT_STREQ(precision_name(Precision::kFp32), "fp32");
  EXPECT_STREQ(precision_name(Precision::kInt8), "int8");
  EXPECT_THROW(parse_precision("fp16"), std::invalid_argument);
  EXPECT_THROW(parse_precision("bf16"), std::invalid_argument);
}

// -- PackedWeight layouts -----------------------------------------------------

TEST(PackedWeight, Fp32PanelsBitwiseMatchPackedA) {
  auto rng = test::rng(3);
  const int64_t m = 13, k = 37;  // ragged m-tile, K not a multiple of 2
  Tensor a = Tensor::randn({m, k}, rng);
  for (GemmLayout layout : {GemmLayout::kNN, GemmLayout::kTN}) {
    // kTN consumes a as aᵀ: logical extents swap.
    const int64_t lm = layout == GemmLayout::kNN ? m : k;
    const int64_t lk = layout == GemmLayout::kNN ? k : m;
    PackedA per_call(layout, a.data(), lm, lk);
    PackedWeight load_time(layout, a.data(), lm, lk, Precision::kFp32);
    const int64_t tiles = (lm + kGemmMR - 1) / kGemmMR;
    EXPECT_EQ(std::memcmp(per_call.view().buf, load_time.fp32_view().buf,
                          sizeof(float) * tiles * kGemmMR * lk),
              0);
  }
}

TEST(PackedWeight, Int8RowScalesAndPanelsMatchReference) {
  auto rng = test::rng(7);
  const int64_t m = 6, k = 9;  // ragged tile, K % 4 == 1 (zero-padded quad)
  Tensor a = Tensor::randn({m, k}, rng);
  PackedWeight pw(GemmLayout::kNN, a.data(), m, k, Precision::kInt8);
  ASSERT_EQ(pw.k_quads(), 3);
  for (int64_t i = 0; i < m; ++i) {
    float mx = 0.f;
    for (int64_t kk = 0; kk < k; ++kk) {
      mx = std::max(mx, std::abs(a[i * k + kk]));
    }
    EXPECT_EQ(pw.row_scales()[i], mx / 127.f) << "row " << i;
    const float inv = mx > 0.f ? 127.f / mx : 0.f;
    const int8_t* panel = pw.i8_panel(i / kGemmMR);
    const int64_t r = i % kGemmMR;
    int32_t sum = 0;
    for (int64_t kk = 0; kk < k; ++kk) {
      const auto q = static_cast<int8_t>(std::lrintf(a[i * k + kk] * inv));
      EXPECT_EQ(panel[(kk / 4) * kGemmMR * 4 + r * 4 + (kk % 4)], q)
          << "row " << i << " k " << kk;
      sum += q;
    }
    // The recorded row sum (which cancels the +128 activation shift) must
    // total exactly the quantized bytes.
    EXPECT_EQ(pw.row_sums()[i], sum) << "row " << i;
    // K % 4 == 1: the last three slots of the final quad are zero padding.
    for (int64_t pad = k % 4; pad < 4; ++pad) {
      EXPECT_EQ(panel[(k / 4) * kGemmMR * 4 + r * 4 + pad], 0);
    }
  }
}

// -- Kernel dispatch parity (every runnable tier vs baseline) ---------------

TEST(QuantKernels, DispatchedI8KernelsBitwiseMatchBaseline) {
  auto rng = test::rng(11);
  const int64_t klen = 21;  // K % 4 == 1: exercises the padded final quad
  const int64_t kquads = (klen + 3) / 4;
  Tensor af = Tensor::randn({kGemmMR, klen}, rng);
  Tensor bf = Tensor::randn({klen, kGemmNR}, rng);
  PackedWeight pw(GemmLayout::kNN, af.data(), kGemmMR, klen, Precision::kInt8);

  const std::vector<const detail::KernelTable*> tiers =
      detail::runnable_tiers();
  const detail::KernelTable& base = *tiers.back();

  const float inv_b = 127.f / max_abs(bf.data(), bf.numel());
  std::vector<uint8_t> qb_base(kquads * 32, 0);
  base.i8_quant(bf.data(), klen, inv_b, qb_base.data());
  // Padded k slots hold the zero-point, never raw zero.
  EXPECT_EQ(qb_base[(klen / 4) * 32 + 0 * 4 + klen % 4], 128);

  // The kernels accumulate exact int32 partial sums on top of whatever the
  // caller parked — seed a nonzero park to exercise that contract.
  std::vector<int32_t> acc_seed(kGemmMR * kGemmNR);
  for (size_t i = 0; i < acc_seed.size(); ++i) {
    acc_seed[i] = static_cast<int32_t>(i) * 11 - 40;
  }
  std::vector<int32_t> acc_base = acc_seed;
  base.i8(kquads, pw.i8_panel(0), qb_base.data(), acc_base.data(), kGemmNR);
  EXPECT_NE(std::memcmp(acc_base.data(), acc_seed.data(),
                        sizeof(int32_t) * acc_base.size()),
            0);  // the kernel actually accumulated something

  // Paired-kernel reference: two baseline single-tile calls (second B panel
  // packed back to back at bp + kquads*32; here both tiles reuse qb_base).
  std::vector<uint8_t> qb2(2 * kquads * 32);
  std::copy(qb_base.begin(), qb_base.end(), qb2.begin());
  std::copy(qb_base.begin(), qb_base.end(), qb2.begin() + kquads * 32);
  std::vector<int32_t> acc_two(kGemmMR * 2 * kGemmNR, 5);
  base.i8(kquads, pw.i8_panel(0), qb2.data(), acc_two.data(), 2 * kGemmNR);
  base.i8(kquads, pw.i8_panel(0), qb2.data() + kquads * 32,
          acc_two.data() + kGemmNR, 2 * kGemmNR);

  for (const detail::KernelTable* tier : tiers) {
    SCOPED_TRACE(tier->name);
    std::vector<uint8_t> qb(kquads * 32, 0);
    tier->i8_quant(bf.data(), klen, inv_b, qb.data());
    EXPECT_EQ(std::memcmp(qb_base.data(), qb.data(), qb_base.size()), 0);

    std::vector<int32_t> acc = acc_seed;
    tier->i8(kquads, pw.i8_panel(0), qb_base.data(), acc.data(), kGemmNR);
    EXPECT_EQ(std::memcmp(acc_base.data(), acc.data(),
                          sizeof(int32_t) * acc_base.size()),
              0);

    // Paired kernel == two single-tile calls, bit for bit.
    std::vector<int32_t> acc_pair(kGemmMR * 2 * kGemmNR, 5);
    tier->i8x2(kquads, pw.i8_panel(0), qb2.data(), acc_pair.data());
    EXPECT_EQ(std::memcmp(acc_pair.data(), acc_two.data(),
                          sizeof(int32_t) * acc_pair.size()),
              0);
  }
}

// -- Column-block GEMM entry points -------------------------------------------

TEST(QuantGemm, Int8ColBlockMatchesScalarReference) {
  auto rng = test::rng(17);
  const int64_t m = 11, k = 21, n = 13;  // ragged everywhere, odd K
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor bias = Tensor::randn({m}, rng);
  PackedWeight pw(GemmLayout::kNN, a.data(), m, k, Precision::kInt8);
  StridedBPacker bp(b.data(), n, /*transposed=*/false);

  const float bmax = max_abs(b.data(), k * n);
  const float inv_b = 127.f / bmax;
  std::vector<float> combined(m);
  for (int64_t i = 0; i < m; ++i) {
    combined[i] = pw.row_scales()[i] * (bmax / 127.f);
  }
  Tensor c({m, n});
  ASSERT_EQ(gemm_col_blocks(n), 1);
  gemm_col_block_i8(pw, bp, inv_b, combined.data(), n, /*block=*/0, c.data(),
                    bias.data());

  // Scalar reference over independently re-quantized operands. Integer
  // accumulation is exact, so only the final fp32 dequant (one multiply,
  // one add) can differ — allow a couple of ulps for FMA contraction.
  for (int64_t i = 0; i < m; ++i) {
    float mx = 0.f;
    for (int64_t kk = 0; kk < k; ++kk) {
      mx = std::max(mx, std::abs(a[i * k + kk]));
    }
    const float mx_inv = mx > 0.f ? 127.f / mx : 0.f;
    for (int64_t j = 0; j < n; ++j) {
      int64_t acc = 0;
      for (int64_t kk = 0; kk < k; ++kk) {
        const long qa = std::lrintf(a[i * k + kk] * mx_inv);
        const long qb = std::lrintf(b[kk * n + j] * inv_b);
        acc += qa * qb;
      }
      const float want = static_cast<float>(acc) * combined[i] + bias[i];
      EXPECT_NEAR(c[i * n + j], want,
                  1e-5f * std::max(1.f, std::abs(want)))
          << "element (" << i << ", " << j << ")";
    }
  }

  // And the whole block is bitwise repeatable.
  Tensor c2({m, n});
  gemm_col_block_i8(pw, bp, inv_b, combined.data(), n, 0, c2.data(),
                    bias.data());
  EXPECT_EQ(test::max_abs_diff(c, c2), 0.f);
}

TEST(QuantGemm, Int8TracksFp32WithinQuantizationError) {
  auto rng = test::rng(19);
  const int64_t m = 16, k = 600, n = 32;  // K spans two kGemmKC chunks
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  PackedWeight pw(GemmLayout::kNN, a.data(), m, k, Precision::kInt8);
  StridedBPacker bp(b.data(), n, false);

  Tensor ref({m, n});
  PackedA pa(GemmLayout::kNN, a.data(), m, k);
  gemm_col_block(pa, bp, n, 0, ref.data());

  const float bmax = max_abs(b.data(), k * n);
  std::vector<float> combined(m);
  for (int64_t i = 0; i < m; ++i) {
    combined[i] = pw.row_scales()[i] * (bmax / 127.f);
  }
  Tensor c({m, n});
  gemm_col_block_i8(pw, bp, 127.f / bmax, combined.data(), n, 0, c.data(),
                    nullptr);
  // Rounding error per product is <= scale/2 each side; the k-sum stays
  // well under 2% of the output magnitude for randn operands at this K.
  const float mag = std::max(1.f, max_abs(ref.data(), ref.numel()));
  EXPECT_LT(test::max_abs_diff(c, ref), 0.02f * mag);
}

// -- Engine-level parity and determinism --------------------------------------

TEST(Prepack, Fp32ForwardBitwiseMatchesPerCallPath) {
  core::DoinnConfig cfg = tiny_config();
  auto rng = test::rng(29);
  core::Doinn model(cfg, rng);
  model.set_training(false);
  const Tensor mask = random_mask(cfg.tile, 31);
  const Tensor per_call = core::predict_contour(model, mask);
  model.prepack_forward(Precision::kFp32);
  const Tensor prepacked = core::predict_contour(model, mask);
  EXPECT_EQ(test::max_abs_diff(per_call, prepacked), 0.f);
}

TEST(Prepack, EveryPrecisionBitwiseEqualAcrossThreadCountsAndBatchSplit) {
  core::DoinnConfig cfg = tiny_config();
  std::vector<Tensor> masks;
  for (uint32_t s = 40; s < 43; ++s) masks.push_back(random_mask(cfg.tile, s));
  for (Precision p : {Precision::kFp32, Precision::kInt8}) {
    runtime::EngineOptions serial_opts;
    serial_opts.num_threads = 1;
    serial_opts.precision = p;
    runtime::EngineOptions wide_opts;
    wide_opts.num_threads = 4;
    wide_opts.precision = p;
    runtime::InferenceEngine serial(cfg, /*seed=*/77, serial_opts);
    runtime::InferenceEngine wide(cfg, /*seed=*/77, wide_opts);
    const std::vector<Tensor> a = serial.predict_batch(masks);
    const std::vector<Tensor> b = wide.predict_batch(masks);
    ASSERT_EQ(a.size(), masks.size());
    for (size_t i = 0; i < masks.size(); ++i) {
      EXPECT_EQ(test::max_abs_diff(a[i], b[i]), 0.f)
          << precision_name(p) << " mask " << i;
      // Batch composition must not matter either: int8 activation scales
      // are per-sample, so a solo predict sees the same quantization.
      EXPECT_EQ(test::max_abs_diff(wide.predict(masks[i]), b[i]), 0.f)
          << precision_name(p) << " solo mask " << i;
    }
  }
}

// An int8 engine packs every conv int8 whatever else is configured: with
// autotune on or off, and in a replica over the primary's shared model.
// Autotune picks bitwise-neutral kernel knobs only, so contours (tile batch
// and every step of the compiled large path) agree byte for byte.
TEST(Prepack, Int8EnginePacksEveryConvInt8WithAutotuneOnOrOff) {
  const core::DoinnConfig cfg = tiny_config();
  auto rng = test::rng(61);
  core::Doinn model(cfg, rng);
  const std::string path = "test_precision_int8_ckpt.bin";
  core::save_doinn(path, model);
  runtime::EngineOptions tuned_opts;
  tuned_opts.num_threads = 2;
  tuned_opts.precision = Precision::kInt8;
  tuned_opts.autotune = true;
  runtime::EngineOptions untuned_opts = tuned_opts;
  untuned_opts.autotune = false;
  runtime::InferenceEngine tuned(path, tuned_opts);
  runtime::InferenceEngine untuned(path, untuned_opts);
  std::remove(path.c_str());
  runtime::InferenceEngine replica(tuned.shared_model(), tuned_opts);

  std::vector<Tensor> masks;
  for (uint32_t s = 70; s < 74; ++s) masks.push_back(random_mask(cfg.tile, s));
  Tensor example({1, 1, cfg.tile, cfg.tile});
  std::copy(masks[0].data(), masks[0].data() + masks[0].numel(),
            example.data());

  // The capture is an op walk, so its result also pins the raw logits.
  Tensor want_logits;
  for (runtime::InferenceEngine* eng : {&untuned, &tuned, &replica}) {
    const std::shared_ptr<core::Doinn> m = eng->shared_model();
    Tensor logits;
    std::shared_ptr<ag::CapturedGraph> g = runtime::capture_graph(
        {example},
        [&m](const std::vector<ag::Variable>& v) { return m->forward(v[0]); },
        &logits);
    int convs = 0;
    for (const ag::CaptureNode& node : g->nodes) {
      if (!node.conv.valid) continue;
      ++convs;
      EXPECT_EQ(node.conv.prec, Precision::kInt8)
          << node.kind << " m " << node.conv.m << " k " << node.conv.k
          << " l " << node.conv.l;
    }
    EXPECT_GT(convs, 0);
    if (eng == &untuned) want_logits = logits;
    EXPECT_TRUE(bytes_equal(want_logits, logits));
  }

  const std::vector<Tensor> ref = untuned.predict_batch(masks);
  const std::vector<Tensor> got = tuned.predict_batch(masks);
  const std::vector<Tensor> got_replica = replica.predict_batch(masks);
  ASSERT_EQ(ref.size(), masks.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    EXPECT_TRUE(bytes_equal(ref[i], got[i])) << "tile mask " << i;
    EXPECT_TRUE(bytes_equal(ref[i], got_replica[i]))
        << "replica tile mask " << i;
  }

  // Capture, validated replay, then plain replay of the large LP+IR plan.
  const Tensor large = random_mask(2 * cfg.tile, 75);
  for (int call = 0; call < 3; ++call) {
    const Tensor want = untuned.predict(large);
    EXPECT_TRUE(bytes_equal(want, tuned.predict(large)))
        << "large call " << call;
    EXPECT_TRUE(bytes_equal(want, replica.predict(large)))
        << "replica large call " << call;
  }
}

// -- Contour accuracy of int8 on a trained checkpoint -------------------------

TEST(Prepack, ReducedPrecisionContourAccuracyOnTrainedCheckpoint) {
  core::DoinnConfig cfg = tiny_config();
  // Synthetic mask-to-mask dataset: enough structure for the loss to leave
  // the all-background solution, cheap enough to train in-process.
  core::ContourDataset data;
  for (uint32_t s = 0; s < 6; ++s) {
    Tensor mask = random_mask(cfg.tile, 300 + s);
    data.masks.push_back(mask);
    data.resists.push_back(mask.clone());
  }
  auto rng = test::rng(55);
  core::Doinn model(cfg, rng);
  core::TrainConfig tcfg;
  tcfg.epochs = 8;
  tcfg.batch_size = 2;
  tcfg.lr = 5e-3f;
  tcfg.lr_step = 4;
  core::train_model(model, data, tcfg);

  const std::string path = "test_precision_ckpt.bin";
  core::save_doinn(path, model);
  runtime::EngineOptions fp32_opts, int8_opts;
  fp32_opts.num_threads = 2;
  int8_opts = fp32_opts;
  int8_opts.precision = Precision::kInt8;
  runtime::InferenceEngine fp32(path, fp32_opts);
  runtime::InferenceEngine int8(path, int8_opts);
  std::remove(path.c_str());

  std::vector<core::SegmentationMetrics> int8_m;
  for (const Tensor& mask : data.masks) {
    const Tensor ref = fp32.predict(mask);
    ASSERT_GT(ref.sum(), 0.f);  // trained model prints something
    int8_m.push_back(core::evaluate_contours(int8.predict(mask), ref));
  }
  // The int8 engine packs every conv int8 (autotune is on here and picks
  // kernel knobs only), so this compares an all-int8 model against fp32.
  // Int8 may only move contour pixels near the print threshold: the
  // binarized outputs must stay nearly coincident with the fp32 engine's.
  EXPECT_GT(core::average(int8_m).miou, 0.85);
}

}  // namespace
}  // namespace litho
