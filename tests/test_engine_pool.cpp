// Tests for the multi-model engine pool: registry parsing (including every
// malformed-line class), model routing, unknown-model handling on both the
// API and the wire, bitwise identity of replica serving vs a single
// engine under randomized concurrent submits, and the N-replicas-1x-weights
// sharing guarantee (PackedWeight byte accounting + shared_ptr identity).
#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/doinn.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "runtime/engine.h"
#include "runtime/engine_pool.h"
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

/// Writes a tiny fresh-weight checkpoint and returns its path (cwd, cleaned
/// up by remove_checkpoint).
std::string write_checkpoint(uint32_t seed, const std::string& name) {
  core::DoinnConfig cfg = tiny_config();
  auto rng = test::rng(seed);
  core::Doinn model(cfg, rng);
  const std::string path = "test_engine_pool_" + name + ".bin";
  core::save_doinn(path, model);
  return path;
}

void remove_checkpoint(const std::string& path) { std::remove(path.c_str()); }

/// Pool options every test shares: single-threaded replicas and no
/// autotuning (bitwise-neutral, keeps N engine builds fast).
runtime::EnginePoolOptions fast_pool_options() {
  runtime::EnginePoolOptions opts;
  opts.engine.num_threads = 1;
  opts.engine.autotune = false;
  return opts;
}

/// EnginePool::try_submit for tests whose queues stay far below capacity:
/// a BUSY there is a failure, reported as an exception.
std::future<Tensor> submit(runtime::EnginePool& pool, const std::string& model,
                           const Tensor& mask, uint64_t request_id) {
  auto future = pool.try_submit(model, mask, request_id);
  if (!future.has_value()) throw std::runtime_error("unexpected BUSY");
  return std::move(*future);
}

// -- registry parsing ---------------------------------------------------------

TEST(ModelRegistry, ParsesFieldsDefaultsAndComments) {
  const auto specs = runtime::parse_model_registry_text(
      "# comment line\n"
      "\n"
      "alpha alpha.bin\n"
      "beta beta.bin int8\n"
      "gamma gamma.bin int8 3   # trailing comment\n");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "alpha");
  EXPECT_EQ(specs[0].checkpoint, "alpha.bin");
  EXPECT_EQ(specs[0].precision, Precision::kFp32);
  EXPECT_EQ(specs[0].replicas, 1);
  EXPECT_EQ(specs[1].precision, Precision::kInt8);
  EXPECT_EQ(specs[1].replicas, 1);
  EXPECT_EQ(specs[2].name, "gamma");
  EXPECT_EQ(specs[2].precision, Precision::kInt8);
  EXPECT_EQ(specs[2].replicas, 3);
}

TEST(ModelRegistry, RejectsMalformedLines) {
  // Missing checkpoint path.
  EXPECT_THROW(runtime::parse_model_registry_text("loner\n"),
               std::invalid_argument);
  // Duplicate model names.
  EXPECT_THROW(
      runtime::parse_model_registry_text("a a.bin\nb b.bin\na again.bin\n"),
      std::invalid_argument);
  // Bad precision words, including the retired bf16.
  EXPECT_THROW(runtime::parse_model_registry_text("a a.bin fp64\n"),
               std::invalid_argument);
  EXPECT_THROW(runtime::parse_model_registry_text("a a.bin bf16\n"),
               std::invalid_argument);
  // Bad replica counts: zero, negative, non-numeric, trailing junk digits.
  EXPECT_THROW(runtime::parse_model_registry_text("a a.bin fp32 0\n"),
               std::invalid_argument);
  EXPECT_THROW(runtime::parse_model_registry_text("a a.bin fp32 -2\n"),
               std::invalid_argument);
  EXPECT_THROW(runtime::parse_model_registry_text("a a.bin fp32 two\n"),
               std::invalid_argument);
  EXPECT_THROW(runtime::parse_model_registry_text("a a.bin fp32 2x\n"),
               std::invalid_argument);
  // Trailing fifth field.
  EXPECT_THROW(runtime::parse_model_registry_text("a a.bin fp32 2 extra\n"),
               std::invalid_argument);
}

TEST(ModelRegistry, MissingFileThrows) {
  EXPECT_THROW(
      runtime::parse_model_registry("/tmp/litho_no_such_registry.txt"),
      std::runtime_error);
}

TEST(EnginePool, BadCheckpointPathThrows) {
  std::vector<runtime::ModelSpec> specs(1);
  specs[0].name = "ghost";
  specs[0].checkpoint = "/tmp/litho_no_such_checkpoint.bin";
  EXPECT_THROW(runtime::EnginePool(specs, fast_pool_options()),
               std::runtime_error);
}

TEST(EnginePool, RejectsBadSpecsAndDefaults) {
  EXPECT_THROW(runtime::EnginePool({}, fast_pool_options()),
               std::invalid_argument);

  const std::string ckpt = write_checkpoint(11, "specs");
  std::vector<runtime::ModelSpec> dup(2);
  dup[0].name = dup[1].name = "same";
  dup[0].checkpoint = dup[1].checkpoint = ckpt;
  EXPECT_THROW(runtime::EnginePool(dup, fast_pool_options()),
               std::invalid_argument);

  std::vector<runtime::ModelSpec> specs(1);
  specs[0].name = "only";
  specs[0].checkpoint = ckpt;
  runtime::EnginePoolOptions opts = fast_pool_options();
  opts.default_model = "absent";
  EXPECT_THROW(runtime::EnginePool(specs, opts), std::invalid_argument);
  remove_checkpoint(ckpt);
}

// -- routing ------------------------------------------------------------------

TEST(EnginePool, RoutesRequestsToTheNamedModel) {
  const std::string ckpt_a = write_checkpoint(21, "route_a");
  const std::string ckpt_b = write_checkpoint(22, "route_b");
  std::vector<runtime::ModelSpec> specs(2);
  specs[0].name = "a";
  specs[0].checkpoint = ckpt_a;
  specs[1].name = "b";
  specs[1].checkpoint = ckpt_b;
  runtime::EnginePool pool(specs, fast_pool_options());
  EXPECT_EQ(pool.default_model(), "a");
  EXPECT_TRUE(pool.has_model("b"));
  EXPECT_FALSE(pool.has_model("c"));

  // Per-model references from independent single engines over the same
  // checkpoints: routing must reproduce them bitwise, and the two models
  // must actually differ (different seeds) so a misroute would be caught.
  runtime::EngineOptions eng_opts = fast_pool_options().engine;
  runtime::InferenceEngine ref_a(ckpt_a, eng_opts);
  runtime::InferenceEngine ref_b(ckpt_b, eng_opts);
  const Tensor mask = random_mask(64, 3);
  const Tensor want_a = ref_a.predict(mask);
  const Tensor want_b = ref_b.predict(mask);
  ASSERT_NE(test::max_abs_diff(want_a, want_b), 0.f)
      << "models must differ for routing to be observable";

  EXPECT_EQ(test::max_abs_diff(submit(pool, "a", mask, 1).get(), want_a), 0.f);
  EXPECT_EQ(test::max_abs_diff(submit(pool, "b", mask, 2).get(), want_b), 0.f);
  // Empty model name = the default model.
  EXPECT_EQ(test::max_abs_diff(submit(pool, "", mask, 3).get(), want_a), 0.f);

  EXPECT_THROW(pool.try_submit("zeta", mask, 4), std::invalid_argument);

  // Per-model pool counters saw the traffic.
  EXPECT_EQ(pool.metrics().counter("pool.a.requests").value(), 2);
  EXPECT_EQ(pool.metrics().counter("pool.b.requests").value(), 1);
  const auto stats = pool.model_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "a");
  EXPECT_EQ(stats[0].completed, 2);
  EXPECT_EQ(stats[1].completed, 1);

  pool.shutdown();
  remove_checkpoint(ckpt_a);
  remove_checkpoint(ckpt_b);
}

// -- replica identity ---------------------------------------------------------

TEST(EnginePool, ReplicaServingIsBitwiseIdenticalUnderConcurrentLoad) {
  const std::string ckpt = write_checkpoint(31, "replica");
  std::vector<runtime::ModelSpec> specs(1);
  specs[0].name = "m";
  specs[0].checkpoint = ckpt;
  specs[0].replicas = 3;
  runtime::EnginePool pool(specs, fast_pool_options());
  ASSERT_EQ(pool.replica_count("m"), 3);

  runtime::InferenceEngine reference(ckpt, fast_pool_options().engine);

  // Randomized concurrent submits: several client threads race masks into
  // the pool with jittered timing, so batches form across replicas in a
  // schedule this test cannot predict. Every contour must still match the
  // single-engine reference bitwise.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::vector<Tensor>> got(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&pool, &got, t] {
      std::mt19937 delay_rng(1000u + static_cast<uint32_t>(t));
      std::uniform_int_distribution<int> jitter_us(0, 400);
      std::vector<std::future<Tensor>> futures;
      futures.reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(jitter_us(delay_rng)));
        const uint32_t seed =
            static_cast<uint32_t>(t * kPerThread + i + 100);
        futures.push_back(submit(
            pool, "m", random_mask(64, seed),
            static_cast<uint64_t>(t * kPerThread + i + 1)));
      }
      for (auto& f : futures) got[static_cast<size_t>(t)].push_back(f.get());
    });
  }
  for (std::thread& c : clients) c.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const uint32_t seed = static_cast<uint32_t>(t * kPerThread + i + 100);
      const Tensor want = reference.predict(random_mask(64, seed));
      EXPECT_EQ(test::max_abs_diff(got[static_cast<size_t>(t)]
                                       [static_cast<size_t>(i)],
                                   want),
                0.f)
          << "thread " << t << " request " << i;
    }
  }
  pool.shutdown();
  remove_checkpoint(ckpt);
}

// -- weight sharing -----------------------------------------------------------

TEST(EnginePool, ReplicasShareOnePrepackedWeightSet) {
  const std::string ckpt = write_checkpoint(41, "share");

  // Packed-weight bytes added by a single-replica pool of this model...
  const int64_t before_single = PackedWeight::total_allocated_bytes();
  std::vector<runtime::ModelSpec> specs(1);
  specs[0].name = "m";
  specs[0].checkpoint = ckpt;
  specs[0].replicas = 1;
  {
    runtime::EnginePool single(specs, fast_pool_options());
    (void)single;
  }
  const int64_t single_bytes =
      PackedWeight::total_allocated_bytes() - before_single;
  ASSERT_GT(single_bytes, 0) << "loading a model must pack weights";

  // ...must equal the bytes added by a 4-replica pool: replicas 1..3 share
  // the primary's model object and never rebuild the panels. (The counter
  // is monotone, so this measures allocation work, not live bytes —
  // exactly the per-replica cost being asserted away.)
  const int64_t before_pool = PackedWeight::total_allocated_bytes();
  specs[0].replicas = 4;
  runtime::EnginePool pool(specs, fast_pool_options());
  const int64_t pool_bytes =
      PackedWeight::total_allocated_bytes() - before_pool;
  EXPECT_EQ(pool_bytes, single_bytes)
      << "N replicas must pack weights exactly once (got " << pool_bytes
      << " bytes for 4 replicas vs " << single_bytes << " for 1)";

  // The sharing is literal: every replica engine holds the same Doinn.
  const auto& model0 = pool.engine("m", 0).shared_model();
  for (int r = 1; r < 4; ++r) {
    EXPECT_EQ(pool.engine("m", r).shared_model().get(), model0.get());
  }
  EXPECT_GE(model0.use_count(), 4);

  pool.shutdown();
  remove_checkpoint(ckpt);
}

// -- wire-level routing -------------------------------------------------------

/// Pool + server + loop thread, the multi-model twin of test_net's
/// LoopbackServer.
class PoolLoopbackServer {
 public:
  explicit PoolLoopbackServer(const std::vector<runtime::ModelSpec>& specs)
      : pool_(specs, fast_pool_options()),
        server_(pool_, net::ServerOptions{}),
        loop_([this] { server_.run(); }) {}

  ~PoolLoopbackServer() {
    server_.stop();
    if (loop_.joinable()) loop_.join();
    pool_.shutdown();
  }

  runtime::EnginePool& pool() { return pool_; }
  net::Server& server() { return server_; }
  uint16_t port() const { return server_.port(); }

 private:
  runtime::EnginePool pool_;
  net::Server server_;
  std::thread loop_;
};

TEST(EnginePool, ServerRoutesByModelFieldAndLegacyFramesHitTheDefault) {
  // Seeds shared with RoutesRequestsToTheNamedModel: that test proves the
  // pair is distinguishable through binarization.
  const std::string ckpt_a = write_checkpoint(21, "wire_a");
  const std::string ckpt_b = write_checkpoint(22, "wire_b");
  std::vector<runtime::ModelSpec> specs(2);
  specs[0].name = "a";
  specs[0].checkpoint = ckpt_a;
  specs[1].name = "b";
  specs[1].checkpoint = ckpt_b;
  PoolLoopbackServer fixture(specs);

  // Binarized contours of two untrained models can coincide for a given
  // mask, so search a few masks for one the models disagree on — without
  // that, a misroute would be invisible.
  Tensor mask, want_a, want_b;
  bool distinguishable = false;
  for (uint32_t seed = 1; seed <= 32 && !distinguishable; ++seed) {
    mask = random_mask(64, seed);
    want_a = submit(fixture.pool(), "a", mask, 900 + seed).get();
    want_b = submit(fixture.pool(), "b", mask, 950 + seed).get();
    distinguishable = test::max_abs_diff(want_a, want_b) != 0.f;
  }
  ASSERT_TRUE(distinguishable)
      << "no mask distinguishes the two models; pick new seeds";

  net::Client client("127.0.0.1", fixture.port());
  // v2 frames with explicit models route to each model.
  EXPECT_EQ(test::max_abs_diff(client.predict(1, mask, "a"), want_a), 0.f);
  EXPECT_EQ(test::max_abs_diff(client.predict(2, mask, "b"), want_b), 0.f);
  // v2 with an empty name and a legacy v1 frame both hit the default.
  EXPECT_EQ(test::max_abs_diff(client.predict(3, mask, ""), want_a), 0.f);
  EXPECT_EQ(test::max_abs_diff(client.predict(4, mask), want_a), 0.f);

  // Unknown model: a request-level ERROR frame naming the model, and the
  // connection stays open for the next (valid) request.
  client.send_predict(5, mask, "nope");
  const net::Reply reply = client.read_reply();
  EXPECT_EQ(reply.type, net::FrameType::kError);
  EXPECT_EQ(reply.request_id, 5u);
  EXPECT_NE(reply.error.find("unknown model"), std::string::npos);
  EXPECT_NE(reply.error.find("nope"), std::string::npos);
  EXPECT_EQ(test::max_abs_diff(client.predict(6, mask, "b"), want_b), 0.f);

  const net::ServerStats stats = fixture.server().stats();
  EXPECT_EQ(stats.requests_ok, 5);
  EXPECT_EQ(stats.requests_error, 1);
  EXPECT_EQ(stats.protocol_errors, 0);

  remove_checkpoint(ckpt_a);
  remove_checkpoint(ckpt_b);
}

}  // namespace
}  // namespace litho
