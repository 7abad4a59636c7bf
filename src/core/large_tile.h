// Large-tile simulation scheme (paper Section 3.2, eqs. (12)-(14)).
//
// A DOINN trained on H x W tiles degrades on s-times-larger inputs because
// the Fourier Unit weights were trained for the k lowest modes of the small
// tile. The scheme cuts the large mask into training-size clips with HALF
// overlap, runs the GP path per clip, stitches the CORE region of each
// clip's feature map back into a large feature grid, and runs the (fully
// convolutional) LP + IR paths on the full tile.
//
// The per-clip GP passes are embarrassingly parallel: every clip reads the
// shared (eval-mode, hence immutable) model and writes a disjoint core
// region of the stitched grid. Passing a runtime::ThreadPool fans them out
// across workers, each with its own clip scratch buffer; the result is
// bitwise identical to the serial path for any thread count.
#pragma once

#include <functional>

#include "core/doinn.h"
#include "runtime/thread_pool.h"

namespace litho::core {

/// Runs DOINN inference on masks larger than the training tile.
class LargeTilePredictor {
 public:
  explicit LargeTilePredictor(Doinn& model);

  /// Optional override for the per-clip GP pass of stitched_gp: called with
  /// one [1, 1, tile, tile] clip raster (the buffer is reused across clips —
  /// implementations must copy, not alias) and must return the clip's
  /// [1, gp_channels, tile/pool, tile/pool] feature map, bitwise identical
  /// to model.gp_features on the same clip. The inference engine installs an
  /// executor-backed fn here so the clip fan-out replays its compiled GP
  /// plan instead of re-walking the op graph clip by clip.
  using GpClipFn = std::function<Tensor(const Tensor& clip)>;
  void set_gp_clip_fn(GpClipFn fn) { gp_clip_fn_ = std::move(fn); }

  /// Large-tile prediction with the stitching scheme ("DOINN-LT").
  /// @p mask is a 2-D raster whose side is a multiple of tile/2 and at
  /// least tile. Returns the tanh output map (same size). With @p pool the
  /// per-clip GP passes run in parallel.
  Tensor predict(const Tensor& mask, runtime::ThreadPool* pool = nullptr) const;

  /// Plain prediction: feeds the whole tile through the default pipeline
  /// ("DOINN" row of Table 4, the degraded baseline).
  Tensor predict_plain(const Tensor& mask) const;

  /// Stitched GP features for a large mask: [1, C, H/8, W/8]. With @p pool
  /// the half-overlap clips are processed concurrently.
  ag::Variable stitched_gp(const Tensor& mask,
                           runtime::ThreadPool* pool = nullptr) const;

 private:
  Doinn& model_;
  GpClipFn gp_clip_fn_;
};

}  // namespace litho::core
