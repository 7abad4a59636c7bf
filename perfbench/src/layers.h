// The traced `layers` run: replays one workload's seeded inputs and
// schedule through each layer boundary in turn and records spans (kept in
// memory, written once as Chrome-trace JSON) plus per-layer timings.
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct LayersConfig {
  uint32_t seed = 1;
  double seconds = 10.0;
  std::string serve_bin;
  std::string workdir;
};

/// Runs, in order: the socket against a doinn_serve child; the codec;
/// Scheduler::try_submit (EnginePool::try_submit for replicated workloads)
/// on an in-process engine with the server's flags; predict_batch and
/// predict_large; the model's largest conv GEMMs in fp32 and int8; the GP
/// FFT pair. Appends the raw observations to @p j, including the plan
/// counts before and after the timed scheduler replay, and writes the
/// spans to <workdir>/trace.json.
void run_layers(const Workload& w, const LayersConfig& cfg, Json& j);

}  // namespace perfbench
