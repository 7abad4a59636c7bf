#include "runtime/engine_pool.h"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace litho::runtime {

namespace {

[[noreturn]] void registry_error(int line_no, const std::string& line,
                                 const std::string& what) {
  throw std::invalid_argument("model registry line " +
                              std::to_string(line_no) + " (\"" + line +
                              "\"): " + what);
}

std::vector<ModelSpec> parse_registry_stream(std::istream& in) {
  std::vector<ModelSpec> specs;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments, then whitespace-split the remainder.
    const size_t hash = line.find('#');
    std::istringstream fields(hash == std::string::npos
                                  ? line
                                  : line.substr(0, hash));
    ModelSpec spec;
    if (!(fields >> spec.name)) continue;  // blank / comment-only line
    if (!(fields >> spec.checkpoint)) {
      registry_error(line_no, line, "missing checkpoint path");
    }
    std::string precision_word;
    if (fields >> precision_word) {
      try {
        spec.precision = parse_precision(precision_word);
      } catch (const std::invalid_argument&) {
        registry_error(line_no, line,
                       "bad precision \"" + precision_word +
                           "\" (want fp32|int8)");
      }
      std::string replicas_word;
      if (fields >> replicas_word) {
        try {
          size_t used = 0;
          spec.replicas = std::stoi(replicas_word, &used);
          if (used != replicas_word.size()) throw std::invalid_argument("");
        } catch (const std::exception&) {
          registry_error(line_no, line,
                         "bad replica count \"" + replicas_word + "\"");
        }
        if (spec.replicas < 1) {
          registry_error(line_no, line, "replica count must be >= 1");
        }
        std::string extra;
        if (fields >> extra) {
          registry_error(line_no, line,
                         "trailing field \"" + extra + "\"");
        }
      }
    }
    for (const ModelSpec& prev : specs) {
      if (prev.name == spec.name) {
        registry_error(line_no, line,
                       "duplicate model name \"" + spec.name + "\"");
      }
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace

std::vector<ModelSpec> parse_model_registry(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open model registry: " + path);
  }
  return parse_registry_stream(in);
}

std::vector<ModelSpec> parse_model_registry_text(const std::string& text) {
  std::istringstream in(text);
  return parse_registry_stream(in);
}

EnginePool::EnginePool(const std::vector<ModelSpec>& specs,
                       EnginePoolOptions opts)
    : owned_metrics_(opts.metrics != nullptr ? nullptr : new MetricsRegistry),
      metrics_(opts.metrics != nullptr ? opts.metrics
                                       : owned_metrics_.get()) {
  if (specs.empty()) {
    throw std::invalid_argument("EnginePool: empty model list");
  }
  for (const ModelSpec& spec : specs) {
    if (spec.name.empty()) {
      throw std::invalid_argument("EnginePool: empty model name");
    }
    if (by_name_.count(spec.name) != 0) {
      throw std::invalid_argument("EnginePool: duplicate model name \"" +
                                  spec.name + "\"");
    }
    if (spec.replicas < 1) {
      throw std::invalid_argument("EnginePool: model \"" + spec.name +
                                  "\" needs >= 1 replicas");
    }
    auto model = std::make_unique<Model>();
    model->name = spec.name;
    model->requests = &metrics_->counter("pool." + spec.name + ".requests");
    model->rejected = &metrics_->counter("pool." + spec.name + ".rejected");

    EngineOptions eng_opts = opts.engine;
    eng_opts.precision = spec.precision;
    for (int r = 0; r < spec.replicas; ++r) {
      Replica replica;
      if (r == 0) {
        // Primary replica: loads the checkpoint, flips the model to eval,
        // and prepacks every conv at the model's precision.
        replica.engine =
            std::make_unique<InferenceEngine>(spec.checkpoint, eng_opts);
      } else {
        // Secondary replicas share the primary's model object: same weight
        // tensors, same PackedWeight panels, zero additional weight bytes.
        replica.engine = std::make_unique<InferenceEngine>(
            model->replicas.front().engine->shared_model(), eng_opts);
      }
      SchedulerOptions sched_opts = opts.scheduler;
      sched_opts.metrics = metrics_;
      sched_opts.metric_prefix =
          "pool." + spec.name + ".r" + std::to_string(r) + ".";
      sched_opts.trace_model = spec.name;
      replica.scheduler =
          std::make_unique<Scheduler>(*replica.engine, sched_opts);
      model->replicas.push_back(std::move(replica));
    }
    by_name_.emplace(spec.name, model.get());
    models_.push_back(std::move(model));
  }

  default_model_ = opts.default_model.empty() ? specs.front().name
                                              : opts.default_model;
  if (by_name_.count(default_model_) == 0) {
    throw std::invalid_argument("EnginePool: default model \"" +
                                default_model_ + "\" is not in the registry");
  }
}

EnginePool::~EnginePool() { shutdown(); }

EnginePool::Model& EnginePool::resolve(const std::string& model) {
  const auto it = by_name_.find(model.empty() ? default_model_ : model);
  if (it == by_name_.end()) {
    throw std::invalid_argument("EnginePool: unknown model \"" + model +
                                "\"");
  }
  return *it->second;
}

const EnginePool::Model& EnginePool::resolve(const std::string& model) const {
  return const_cast<EnginePool*>(this)->resolve(model);
}

Scheduler& EnginePool::pick_replica(Model& m) {
  // Least queue depth; round-robin among the minima so single-depth ties
  // (the common idle case) still spread across replicas. The snapshot is
  // advisory — depths move under us — but any replica is correct
  // (determinism is routing-independent), so staleness only costs balance.
  const size_t n = m.replicas.size();
  const uint64_t start = m.rr.fetch_add(1, std::memory_order_relaxed);
  size_t best = 0;
  int64_t best_depth = std::numeric_limits<int64_t>::max();
  for (size_t i = 0; i < n; ++i) {
    const size_t idx = (start + i) % n;
    const int64_t depth = m.replicas[idx].scheduler->queue_depth();
    if (depth < best_depth) {
      best = idx;
      best_depth = depth;
    }
  }
  return *m.replicas[best].scheduler;
}

std::optional<std::future<Tensor>> EnginePool::try_submit(
    const std::string& model, Tensor mask, uint64_t request_id) {
  Model& m = resolve(model);
  m.requests->add();
  auto future = pick_replica(m).try_submit(std::move(mask), request_id);
  if (!future.has_value()) m.rejected->add();
  return future;
}

bool EnginePool::has_model(const std::string& name) const {
  return by_name_.count(name.empty() ? default_model_ : name) != 0;
}

const core::DoinnConfig& EnginePool::config(const std::string& model) const {
  return resolve(model).replicas.front().engine->config();
}

const InferenceEngine& EnginePool::engine(const std::string& model,
                                          int replica) const {
  const Model& m = resolve(model);
  if (replica < 0 || static_cast<size_t>(replica) >= m.replicas.size()) {
    throw std::out_of_range("EnginePool: replica index out of range");
  }
  return *m.replicas[static_cast<size_t>(replica)].engine;
}

int EnginePool::replica_count(const std::string& model) const {
  return static_cast<int>(resolve(model).replicas.size());
}

std::vector<ModelStats> EnginePool::model_stats() const {
  std::vector<ModelStats> out;
  out.reserve(models_.size());
  for (const auto& m : models_) {
    ModelStats s;
    s.name = m->name;
    s.replicas = static_cast<int>(m->replicas.size());
    for (const Replica& r : m->replicas) {
      const SchedulerStats rs = r.scheduler->stats();
      s.submitted += rs.submitted;
      s.completed += rs.completed;
      s.failed += rs.failed;
      s.rejected += rs.rejected;
      s.batches += rs.batches + rs.large;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void EnginePool::shutdown() {
  for (const auto& m : models_) {
    for (const Replica& r : m->replicas) r.scheduler->shutdown();
  }
}

}  // namespace litho::runtime
