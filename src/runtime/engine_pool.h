// Multi-model, multi-replica serving pool with shared prepacked weights.
//
// The serving core of every doinn_serve process: one or several models (a
// registry file maps model names to checkpoints; --weights is a one-line
// registry) and one or several replicas of each.
// Replicas exist for head-of-line isolation: a replica busy with a
// large-tile request doesn't stall the other replicas' queues. They are
// cheap because every replica of a model shares ONE core::Doinn — the
// primary replica loads the checkpoint, switches it to eval, and prepacks
// the weights; the others are built from InferenceEngine's shared-model
// constructor and never touch the model. N replicas therefore cost ~1x
// weight memory (asserted in tests/test_engine_pool.cpp via
// PackedWeight::total_allocated_bytes) plus per-replica arenas.
//
// Routing: requests carry a model name (empty = the pool's default model);
// within a model the pool picks the replica with the smallest queue depth,
// breaking ties round-robin. Composition never affects bits — every
// replica runs the same immutable weights through the same deterministic
// kernels — so routing is purely a latency policy.
//
// Observability: each replica's scheduler registers its metrics under
// "pool.<model>.r<k>." in the shared registry, the pool adds
// "pool.<model>.requests" / "pool.<model>.rejected" totals, and replica
// dispatch trace spans carry the model name.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/engine.h"
#include "runtime/metrics_registry.h"
#include "runtime/scheduler.h"
#include "tensor/tensor.h"

namespace litho::runtime {

/// One line of a model registry: which checkpoint to serve under which
/// name, at what precision, with how many replicas.
struct ModelSpec {
  std::string name;
  std::string checkpoint;
  litho::Precision precision = litho::Precision::kFp32;
  int replicas = 1;
};

/// Parses a model-registry file. Format, one model per line:
///
///   <name> <checkpoint-path> [precision] [replicas]
///
/// where precision is fp32|int8 (default fp32) and replicas >= 1
/// (default 1). Blank lines and lines starting with '#' are skipped.
/// Model names must be non-empty, unique, and free of whitespace (they
/// travel in protocol frames and metric names). Throws
/// std::invalid_argument on any malformed line (duplicate name, bad
/// precision, replicas < 1, trailing junk) and std::runtime_error when the
/// file can't be opened. Checkpoint paths are validated later, when
/// EnginePool loads them.
std::vector<ModelSpec> parse_model_registry(const std::string& path);

/// parse_model_registry on in-memory text (tests, error-path coverage).
std::vector<ModelSpec> parse_model_registry_text(const std::string& text);

/// Per-model aggregate of the replica schedulers' counters.
struct ModelStats {
  std::string name;
  int replicas = 0;
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t rejected = 0;
  int64_t batches = 0;
};

/// Pool-wide tuning: the per-replica engine/scheduler knobs plus routing
/// defaults. engine.precision is overridden per model from its ModelSpec;
/// scheduler.metrics/metric_prefix/trace_model are overridden per replica.
struct EnginePoolOptions {
  EngineOptions engine;
  SchedulerOptions scheduler;
  /// Model served when a request names none (v1 protocol frames, v2 frames
  /// with an empty name). Empty = the registry's first model.
  std::string default_model;
  /// Registry for the pool.* metrics and every replica scheduler. nullptr
  /// = a pool-private registry.
  MetricsRegistry* metrics = nullptr;
};

/// Owns per-model replica sets of Scheduler + InferenceEngine and routes
/// named requests to the least-loaded replica. Thread-safe after
/// construction: the model table is immutable and replica scheduling is
/// internally synchronized.
class EnginePool {
 public:
  /// Loads every spec's checkpoint (primary replica) and builds the
  /// remaining replicas from the primary's shared model. Throws
  /// std::invalid_argument for an empty spec list, a duplicate model name,
  /// replicas < 1, or a default_model that names no spec; checkpoint load
  /// failures propagate from core::load_doinn.
  EnginePool(const std::vector<ModelSpec>& specs, EnginePoolOptions opts = {});
  ~EnginePool();

  EnginePool(const EnginePool&) = delete;
  EnginePool& operator=(const EnginePool&) = delete;

  /// Non-blocking submit to @p model ("" = default): std::nullopt when the
  /// chosen replica's queue is full — the socket front end maps that to
  /// BUSY. Throws std::invalid_argument for unknown model names.
  std::optional<std::future<Tensor>> try_submit(const std::string& model,
                                                Tensor mask,
                                                uint64_t request_id);

  bool has_model(const std::string& name) const;
  const std::string& default_model() const { return default_model_; }
  /// Checkpoint config of @p model ("" = default); requests above
  /// config().tile take the large-tile path on whichever replica wins.
  const core::DoinnConfig& config(const std::string& model) const;
  /// The engine serving replica @p replica of @p model (tests use this to
  /// assert weight sharing via shared_model()).
  const InferenceEngine& engine(const std::string& model, int replica) const;
  int replica_count(const std::string& model) const;

  /// Per-model totals summed over replicas, in registry order.
  std::vector<ModelStats> model_stats() const;
  /// Registry holding pool.* and every replica's metrics.
  MetricsRegistry& metrics() const { return *metrics_; }

  /// Drains every replica scheduler (idempotent; also run by the dtor).
  void shutdown();

 private:
  struct Replica {
    std::unique_ptr<InferenceEngine> engine;
    std::unique_ptr<Scheduler> scheduler;
  };
  struct Model {
    std::string name;
    std::vector<Replica> replicas;
    std::atomic<uint64_t> rr{0};  // round-robin tie-break cursor
    Counter* requests = nullptr;  // pool.<name>.requests
    Counter* rejected = nullptr;  // pool.<name>.rejected
  };

  Model& resolve(const std::string& model);
  const Model& resolve(const std::string& model) const;
  Scheduler& pick_replica(Model& m);

  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  std::vector<std::unique_ptr<Model>> models_;      // registry order
  std::map<std::string, Model*> by_name_;
  std::string default_model_;
};

}  // namespace litho::runtime
