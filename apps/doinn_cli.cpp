// doinn_cli — command-line front end for the DOINN lithography stack.
//
//   doinn_cli generate  --kind via|dense|metal --tile 128 --seed 1
//                       [--opc 4] --out mask.pgm [--clip-out clip.lclip]
//   doinn_cli simulate  --mask mask.pgm [--pixel 16] [--defocus 0]
//                       --out-prefix out/sim        (writes aerial + contour)
//   doinn_cli opc       --clip clip.lclip [--pixel 16] [--iterations 12]
//                       --out mask.pgm
//   doinn_cli train     --kind via|dense|metal [--count 32] [--tile 128]
//                       [--epochs 8] --out weights.bin
//   doinn_cli predict   --weights weights.bin --mask mask.pgm --out contour.pgm
//                       [--threads N]   (N=0: DOINN_NUM_THREADS / hardware)
//                       [--precision fp32|int8]   (inference storage)
//                       [--no-graph-exec] [--no-autotune]
//                       (--no-graph-exec disables the compiled static-graph
//                       executor; --no-autotune skips the load-time tuning
//                       of kernel knobs only and never changes output bits;
//                       an int8 model packs every conv int8)
//   doinn_cli mrc       --mask mask.pgm [--pixel 16] [--min-feature 48]
//                       [--min-gap 48]   (mask rule check; exit 1 on violations)
//
// Masks are 8-bit PGM images; clips use the LCLIP text format
// (src/layout/clip_io.h). Model checkpoints embed the DoinnConfig so
// `predict` needs no extra flags. For a long-lived serving process over the
// same checkpoints see apps/doinn_serve.cpp.
#include <cstdio>
#include <string>

#include "args.h"
#include "core/dataset.h"
#include "core/doinn.h"
#include "core/trainer.h"
#include "io/io.h"
#include "layout/clip_io.h"
#include "opc/mrc.h"
#include "opc/opc.h"
#include "runtime/engine.h"

using namespace litho;

namespace {

using apps::Args;

core::DatasetKind parse_kind(const std::string& kind) {
  if (kind == "via") return core::DatasetKind::kViaSparse;
  if (kind == "dense") return core::DatasetKind::kViaDense;
  if (kind == "metal") return core::DatasetKind::kMetal;
  throw std::runtime_error("unknown kind: " + kind + " (via|dense|metal)");
}

optics::LithoSimulator make_sim(double pixel_nm, double defocus_nm = 0.0) {
  optics::OpticalConfig cfg;
  cfg.pixel_nm = pixel_nm;
  cfg.defocus_nm = defocus_nm;
  cfg.kernel_grid = std::max<int64_t>(
      48, static_cast<int64_t>(cfg.optical_diameter_nm() / pixel_nm) + 8);
  cfg.kernel_count = 12;
  return optics::LithoSimulator(cfg, optics::compute_socs_kernels(cfg));
}

int cmd_generate(const Args& args) {
  const auto kind = parse_kind(args.get("kind"));
  const int64_t tile = args.get_int("tile", 128);
  const auto sim = make_sim(args.get_double("pixel", 16.0));
  Tensor mask = core::generate_mask(
      sim, kind, tile, static_cast<uint32_t>(args.get_int("seed", 1)),
      args.get_int("opc", 4));
  io::write_pgm(args.get("out"), mask);
  std::printf("wrote %s (%lld x %lld px, density %.1f%%)\n",
              args.get("out").c_str(), static_cast<long long>(tile),
              static_cast<long long>(tile), 100.f * mask.mean());
  return 0;
}

int cmd_simulate(const Args& args) {
  const double pixel = args.get_double("pixel", 16.0);
  const auto sim = make_sim(pixel, args.get_double("defocus", 0.0));
  Tensor mask;
  if (args.get("mask", "-") != "-") {
    mask = io::read_pgm(args.get("mask"));
  } else {
    const layout::Clip clip = layout::read_clip(args.get("clip"));
    mask = layout::rasterize(clip, pixel);
  }
  const Tensor aerial = sim.aerial(mask);
  const Tensor contour = sim.resist(aerial);
  const std::string prefix = args.get("out-prefix");
  io::write_pgm(prefix + "_aerial.pgm", aerial, 0.f, 0.f);
  io::write_pgm(prefix + "_contour.pgm", contour);
  std::printf("wrote %s_aerial.pgm and %s_contour.pgm (printed %.0f px)\n",
              prefix.c_str(), prefix.c_str(), contour.sum());
  return 0;
}

int cmd_opc(const Args& args) {
  const double pixel = args.get_double("pixel", 16.0);
  const auto sim = make_sim(pixel);
  const layout::Clip clip = layout::read_clip(args.get("clip"));
  opc::OpcEngine engine(sim, opc::OpcParams{});
  const auto iters = engine.run(clip, args.get_int("iterations", 12));
  std::printf("EPE: %.2f nm -> %.2f nm over %zu iterations\n",
              iters.front().mean_abs_epe, iters.back().mean_abs_epe,
              iters.size() - 1);
  io::write_pgm(args.get("out"), iters.back().mask);
  std::printf("wrote %s\n", args.get("out").c_str());
  return 0;
}

int cmd_train(const Args& args) {
  const double pixel = args.get_double("pixel", 16.0);
  const auto sim = make_sim(pixel);
  core::DatasetSpec spec;
  spec.kind = parse_kind(args.get("kind"));
  spec.count = args.get_int("count", 32);
  spec.tile_px = args.get_int("tile", 128);
  spec.seed = static_cast<uint32_t>(args.get_int("seed", 1));
  spec.opc_iterations = args.get_int("opc", 4);
  std::printf("generating %lld training clips...\n",
              static_cast<long long>(spec.count));
  const core::ContourDataset data = core::build_dataset(sim, spec);

  core::DoinnConfig cfg = core::DoinnConfig::small();
  cfg.tile = spec.tile_px;
  // Small tiles have fewer retainable modes; clamp to the half-spectrum.
  cfg.modes = std::min({cfg.modes, cfg.gp_grid(), cfg.gp_spec_w()});
  std::mt19937 rng(static_cast<uint32_t>(args.get_int("init-seed", 42)));
  core::Doinn model(cfg, rng);
  std::printf("DOINN: %lld parameters\n",
              static_cast<long long>(model.num_parameters()));

  core::TrainConfig tcfg;
  tcfg.epochs = args.get_int("epochs", 8);
  tcfg.batch_size = args.get_int("batch", 2);
  tcfg.on_epoch = [](int64_t e, double loss) {
    std::printf("  epoch %lld  loss %.4f\n", static_cast<long long>(e), loss);
    std::fflush(stdout);
  };
  core::train_model(model, data, tcfg);

  core::save_doinn(args.get("out"), model);
  std::printf("wrote %s\n", args.get("out").c_str());
  return 0;
}

int cmd_predict(const Args& args) {
  if (args.has("int8-policy")) {
    std::fprintf(stderr,
                 "error: --int8-policy was removed; an int8 model packs "
                 "every conv int8\n");
    return 2;
  }
  runtime::EngineOptions opts;
  opts.num_threads = static_cast<int>(args.get_int("threads", 0));
  opts.precision = parse_precision(args.get("precision", "fp32"));
  opts.use_graph_executor = !args.get_bool("no-graph-exec");
  opts.autotune = !args.get_bool("no-autotune");
  runtime::InferenceEngine engine(args.get("weights"), opts);

  Tensor mask = io::read_pgm(args.get("mask"));
  if (mask.size(0) > engine.config().tile ||
      mask.size(1) > engine.config().tile) {
    std::printf("using the large-tile scheme (%lld px tile model, %d threads)\n",
                static_cast<long long>(engine.config().tile),
                engine.pool().size());
  }
  const Tensor contour = engine.predict(mask);
  io::write_pgm(args.get("out"), contour);
  std::printf("wrote %s (printed %.0f px)\n", args.get("out").c_str(),
              contour.sum());
  return 0;
}

int cmd_mrc(const Args& args) {
  const Tensor mask = io::read_pgm(args.get("mask"));
  opc::MrcRules rules;
  rules.min_feature_nm = args.get_double("min-feature", 48.0);
  rules.min_gap_nm = args.get_double("min-gap", 48.0);
  const auto violations =
      opc::check_mask_rules(mask, args.get_double("pixel", 16.0), rules);
  if (violations.empty()) {
    std::printf("MRC clean (min feature %.0f nm, min gap %.0f nm)\n",
                rules.min_feature_nm, rules.min_gap_nm);
    return 0;
  }
  std::printf("%zu MRC violations:\n", violations.size());
  const size_t show = std::min<size_t>(violations.size(), 20);
  for (size_t i = 0; i < show; ++i) {
    const opc::MrcViolation& v = violations[i];
    std::printf("  %s %s at (%lld, %lld): %.0f nm\n",
                v.kind == opc::MrcViolation::Kind::kFeature ? "feature" : "gap",
                v.horizontal ? "run-x" : "run-y",
                static_cast<long long>(v.row_px),
                static_cast<long long>(v.col_px), v.extent_nm);
  }
  if (violations.size() > show) {
    std::printf("  ... and %zu more\n", violations.size() - show);
  }
  return 1;
}

void usage() {
  std::printf(
      "usage: doinn_cli <generate|simulate|opc|train|predict|mrc> [--flags]\n"
      "see the header comment of apps/doinn_cli.cpp for details\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Args args(argc, argv, /*start=*/2);
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "opc") return cmd_opc(args);
    if (cmd == "train") return cmd_train(args);
    if (cmd == "predict") return cmd_predict(args);
    if (cmd == "mrc") return cmd_mrc(args);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
