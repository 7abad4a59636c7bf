// Tests for the socket front end: wire-format encode/decode (including the
// quantization that keeps socket contours bitwise identical to local
// predictions written with write_pgm), and loopback end-to-end runs
// against a live Server over a one-model EnginePool — single request,
// concurrent clients, BUSY backpressure under a saturated queue, protocol
// errors (garbage and oversize frames), and SHUTDOWN-frame drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/doinn.h"
#include "io/io.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "runtime/engine.h"
#include "runtime/engine_pool.h"
#include "runtime/scheduler.h"
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

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(NetProtocol, HeaderRoundTrip) {
  net::FrameHeader header;
  header.type = net::FrameType::kContour;
  header.request_id = 0x0123456789ABCDEFull;
  header.payload_bytes = 4242;
  std::vector<uint8_t> wire;
  net::encode_header(header, wire);
  ASSERT_EQ(wire.size(), net::kHeaderBytes);
  net::FrameHeader decoded;
  ASSERT_TRUE(net::decode_header(wire.data(), decoded));
  EXPECT_EQ(decoded.version, net::kVersion);
  EXPECT_EQ(decoded.type, net::FrameType::kContour);
  EXPECT_EQ(decoded.request_id, header.request_id);
  EXPECT_EQ(decoded.payload_bytes, header.payload_bytes);
}

TEST(NetProtocol, HeaderRejectsCorruption) {
  net::FrameHeader header;
  header.type = net::FrameType::kPredict;
  header.request_id = 7;
  header.payload_bytes = 16;
  std::vector<uint8_t> wire;
  net::encode_header(header, wire);
  net::FrameHeader decoded;

  auto corrupted = wire;
  corrupted[0] ^= 0xFF;  // magic
  EXPECT_FALSE(net::decode_header(corrupted.data(), decoded));
  corrupted = wire;
  corrupted[4] = net::kVersion + 1;
  EXPECT_FALSE(net::decode_header(corrupted.data(), decoded));
  corrupted = wire;
  corrupted[5] = 0;  // type below kPredict
  EXPECT_FALSE(net::decode_header(corrupted.data(), decoded));
  corrupted = wire;
  corrupted[5] = 99;  // type above kShutdown
  EXPECT_FALSE(net::decode_header(corrupted.data(), decoded));
  corrupted = wire;
  corrupted[6] = 1;  // reserved bytes must be zero
  EXPECT_FALSE(net::decode_header(corrupted.data(), decoded));
  corrupted = wire;
  // payload_bytes beyond the cap
  const uint32_t huge = net::kMaxPayloadBytes + 1;
  for (int i = 0; i < 4; ++i) {
    corrupted[16 + i] = static_cast<uint8_t>((huge >> (8 * i)) & 0xFF);
  }
  EXPECT_FALSE(net::decode_header(corrupted.data(), decoded));
}

TEST(NetProtocol, ImageRoundTripPreservesAllQuantizedLevels) {
  // A 16x16 ramp covering every 8-bit level, built with read_pgm's exact
  // arithmetic (level * (1/255.f), not level/255.f — they differ by 1 ulp
  // for some levels): encode (write_pgm's quantization) then decode
  // (read_pgm's scaling) must reproduce every float bitwise. This is what
  // makes socket-mode tensors identical to tensors read from PGM files.
  Tensor image({16, 16});
  const float scale = 1.f / 255.f;
  for (int64_t i = 0; i < 256; ++i) {
    image[i] = static_cast<float>(i) * scale;
  }
  std::vector<uint8_t> payload;
  net::encode_image(image, payload);
  ASSERT_EQ(payload.size(), 12u + 256u);
  Tensor decoded;
  ASSERT_TRUE(net::decode_image(payload.data(), payload.size(), decoded));
  ASSERT_EQ(decoded.size(0), 16);
  ASSERT_EQ(decoded.size(1), 16);
  EXPECT_EQ(test::max_abs_diff(decoded, image), 0.f);

  // And re-encoding yields the identical bytes (stable fixed point).
  std::vector<uint8_t> payload2;
  net::encode_image(decoded, payload2);
  EXPECT_EQ(payload, payload2);
}

TEST(NetProtocol, ImageDecodeRejectsMalformedPayloads) {
  Tensor decoded;
  std::vector<uint8_t> payload;
  net::encode_image(Tensor({4, 4}, 0.5f), payload);
  EXPECT_TRUE(net::decode_image(payload.data(), payload.size(), decoded));
  // Truncated payload, zero dims, and size mismatches all fail cleanly.
  EXPECT_FALSE(net::decode_image(payload.data(), 11, decoded));
  EXPECT_FALSE(net::decode_image(payload.data(), payload.size() - 1, decoded));
  auto zero_h = payload;
  zero_h[0] = zero_h[1] = zero_h[2] = zero_h[3] = 0;
  EXPECT_FALSE(net::decode_image(zero_h.data(), zero_h.size(), decoded));
  auto zero_maxval = payload;
  zero_maxval[8] = zero_maxval[9] = 0;
  EXPECT_FALSE(
      net::decode_image(zero_maxval.data(), zero_maxval.size(), decoded));
}

TEST(NetProtocol, PredictPayloadVersionsRoundTrip) {
  const Tensor mask = random_mask(16, 12);
  std::string model;
  Tensor decoded;
  net::FrameHeader header;

  // v1: bare image payload, empty model, legacy version byte on the wire.
  const std::vector<uint8_t> v1 = net::make_predict_frame(9, mask);
  ASSERT_TRUE(net::decode_header(v1.data(), header));
  EXPECT_EQ(header.version, net::kVersionLegacy);
  model = "stale";
  ASSERT_TRUE(net::decode_predict_payload(header.version,
                                          v1.data() + net::kHeaderBytes,
                                          header.payload_bytes, model,
                                          decoded));
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(test::max_abs_diff(decoded, mask), 0.f);

  // v2: model-name prefix + the same image payload.
  const std::vector<uint8_t> v2 = net::make_predict_frame(9, mask, "resist");
  ASSERT_TRUE(net::decode_header(v2.data(), header));
  EXPECT_EQ(header.version, net::kVersion);
  ASSERT_TRUE(net::decode_predict_payload(header.version,
                                          v2.data() + net::kHeaderBytes,
                                          header.payload_bytes, model,
                                          decoded));
  EXPECT_EQ(model, "resist");
  EXPECT_EQ(test::max_abs_diff(decoded, mask), 0.f);

  // Oversize model names never make it onto the wire.
  EXPECT_THROW(net::make_predict_frame(
                   1, mask, std::string(net::kMaxModelNameBytes + 1, 'x')),
               std::invalid_argument);
}

TEST(NetProtocol, PredictPayloadRejectsMalformedModelPrefix) {
  const Tensor mask = random_mask(8, 13);
  const std::vector<uint8_t> frame = net::make_predict_frame(1, mask, "ab");
  const uint8_t* payload = frame.data() + net::kHeaderBytes;
  const size_t size = frame.size() - net::kHeaderBytes;
  std::string model;
  Tensor decoded;

  // Unknown payload version.
  EXPECT_FALSE(
      net::decode_predict_payload(3, payload, size, model, decoded));
  // Prefix truncated below its own 4-byte sub-header.
  EXPECT_FALSE(
      net::decode_predict_payload(net::kVersion, payload, 3, model, decoded));
  // model_len pointing past the payload.
  std::vector<uint8_t> bad(payload, payload + size);
  bad[0] = 0xFF;
  bad[1] = 0x00;  // model_len = 255 > remaining bytes
  EXPECT_FALSE(net::decode_predict_payload(net::kVersion, bad.data(),
                                           bad.size(), model, decoded));
  // model_len above the protocol cap.
  bad.assign(payload, payload + size);
  bad[0] = 0xFF;
  bad[1] = 0xFF;
  EXPECT_FALSE(net::decode_predict_payload(net::kVersion, bad.data(),
                                           bad.size(), model, decoded));
  // Nonzero reserved bits in the prefix.
  bad.assign(payload, payload + size);
  bad[2] = 1;
  EXPECT_FALSE(net::decode_predict_payload(net::kVersion, bad.data(),
                                           bad.size(), model, decoded));
}

TEST(NetProtocol, HeaderAcceptsExactlyTheTwoKnownVersions) {
  std::vector<uint8_t> wire;
  net::encode_header(net::FrameHeader{}, wire);
  net::FrameHeader decoded;
  for (int v = 0; v <= 255; ++v) {
    wire[4] = static_cast<uint8_t>(v);
    const bool ok = net::decode_header(wire.data(), decoded);
    if (v == net::kVersion || v == net::kVersionLegacy) {
      EXPECT_TRUE(ok) << "version " << v;
      EXPECT_EQ(decoded.version, v);
    } else {
      EXPECT_FALSE(ok) << "version " << v;
    }
  }
}

TEST(NetProtocol, EveryTruncationOfAPredictFrameIsRejectedCleanly) {
  // Exhaustive short-read sweep over both frame versions: every proper
  // prefix either fails decode_header (when even the header is cut) or
  // fails the payload decoder — never reads past the buffer (the sanitizer
  // CI jobs are the oracle for that) and never "succeeds" on a partial
  // frame.
  const Tensor mask = random_mask(8, 14);
  for (const bool v2 : {false, true}) {
    const std::vector<uint8_t> frame =
        v2 ? net::make_predict_frame(3, mask, "m") : net::make_predict_frame(3, mask);
    for (size_t len = net::kHeaderBytes; len < frame.size(); ++len) {
      net::FrameHeader header;
      ASSERT_TRUE(net::decode_header(frame.data(), header));
      // A framed transport would wait for payload_bytes; feed the decoder
      // the truncated payload directly, as a corrupted peer would.
      std::vector<uint8_t> partial(frame.begin() + net::kHeaderBytes,
                                   frame.begin() + static_cast<ptrdiff_t>(len));
      std::string model;
      Tensor decoded;
      EXPECT_FALSE(net::decode_predict_payload(header.version, partial.data(),
                                               partial.size(), model, decoded))
          << (v2 ? "v2" : "v1") << " prefix of " << len << " bytes";
    }
  }
}

TEST(NetProtocol, SeededCorruptionCorpusNeverBreaksTheDecoder) {
  // Randomized corruption corpus over both frame versions: bit flips,
  // truncations, oversize length fields, version skew, and pure garbage.
  // The decoder must stay memory-safe (ASan/UBSan CI runs this test) and
  // every successful decode must satisfy the payload invariants. The seed
  // is fixed so a failure reproduces exactly.
  std::mt19937 rng(0xD01AB5u);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  const Tensor mask = random_mask(12, 15);

  for (int iter = 0; iter < 4000; ++iter) {
    // Start from a valid frame of either version.
    std::vector<uint8_t> frame;
    if (rng() % 2 == 0) {
      frame = net::make_predict_frame(iter, mask);
    } else {
      const size_t name_len = rng() % 9;
      std::string name(name_len, ' ');
      for (char& c : name) c = static_cast<char>(byte_dist(rng));
      frame = net::make_predict_frame(iter, mask, name);
    }

    switch (rng() % 5) {
      case 0: {  // 1..8 random bit flips
        const int flips = 1 + static_cast<int>(rng() % 8);
        for (int f = 0; f < flips; ++f) {
          frame[rng() % frame.size()] ^= static_cast<uint8_t>(1u << (rng() % 8));
        }
        break;
      }
      case 1: {  // truncation (keep at least the header for the decode path)
        frame.resize(net::kHeaderBytes + rng() % (frame.size() - net::kHeaderBytes + 1));
        break;
      }
      case 2: {  // oversize / mismatched length field
        const uint32_t bogus = net::kMaxPayloadBytes + 1 + rng() % 1000;
        for (int i = 0; i < 4; ++i) {
          frame[16 + static_cast<size_t>(i)] =
              static_cast<uint8_t>((bogus >> (8 * i)) & 0xFF);
        }
        break;
      }
      case 3: {  // version skew
        frame[4] = static_cast<uint8_t>(byte_dist(rng));
        break;
      }
      case 4: {  // replace everything with garbage
        for (uint8_t& b : frame) b = static_cast<uint8_t>(byte_dist(rng));
        break;
      }
    }

    net::FrameHeader header;
    if (!net::decode_header(frame.data(), header)) continue;
    // Header still parsed: run the payload decoder over whatever bytes are
    // actually present (a real transport would cap at payload_bytes).
    const size_t have = std::min<size_t>(frame.size() - net::kHeaderBytes,
                                         header.payload_bytes);
    std::string model = "poison";
    Tensor decoded;
    if (net::decode_predict_payload(header.version,
                                    frame.data() + net::kHeaderBytes, have,
                                    model, decoded)) {
      // Survivors must still satisfy every protocol invariant.
      ASSERT_EQ(decoded.dim(), 2);
      ASSERT_GT(decoded.size(0), 0);
      ASSERT_GT(decoded.size(1), 0);
      ASSERT_LE(model.size(), net::kMaxModelNameBytes);
    }
  }
}

/// A one-model EnginePool over a temp checkpoint, served by a Server on a
/// background thread and torn down in reverse order — the serving core of
/// doinn_serve --weights. reference() is an independent engine over the
/// same checkpoint.
class LoopbackServer {
 public:
  explicit LoopbackServer(runtime::SchedulerOptions sched_opts = {},
                          net::ServerOptions server_opts = {})
      : checkpoint_(write_checkpoint()),
        reference_(checkpoint_, runtime::EngineOptions{1}),
        pool_(one_model(checkpoint_), pool_options(sched_opts)),
        server_(pool_, server_opts),
        loop_([this] { server_.run(); }) {}

  ~LoopbackServer() {
    server_.stop();
    join();
    pool_.shutdown();
    std::remove(checkpoint_.c_str());
  }

  runtime::InferenceEngine& reference() { return reference_; }
  net::Server& server() { return server_; }
  uint16_t port() const { return server_.port(); }
  void join() {
    if (loop_.joinable()) loop_.join();
  }

 private:
  static std::string write_checkpoint() {
    auto rng = test::rng(17);
    const core::Doinn model(tiny_config(), rng);
    const std::string path = "test_net_loopback.bin";
    core::save_doinn(path, model);
    return path;
  }
  static std::vector<runtime::ModelSpec> one_model(const std::string& ckpt) {
    runtime::ModelSpec spec;
    spec.name = "default";
    spec.checkpoint = ckpt;
    return {spec};
  }
  static runtime::EnginePoolOptions pool_options(
      const runtime::SchedulerOptions& sched_opts) {
    runtime::EnginePoolOptions opts;
    opts.engine = runtime::EngineOptions{1};
    opts.scheduler = sched_opts;
    return opts;
  }

  std::string checkpoint_;
  runtime::InferenceEngine reference_;
  runtime::EnginePool pool_;
  net::Server server_;
  std::thread loop_;
};

TEST(NetServer, SingleRequestMatchesManifestModeBitwise) {
  LoopbackServer fixture;
  const Tensor mask = random_mask(64, 5);
  const Tensor expected = fixture.reference().predict(mask);

  net::Client client("127.0.0.1", fixture.port());
  const Tensor contour = client.predict(42, mask);

  // The contour crossed the wire quantized exactly like write_pgm, so
  // writing it must produce the byte-identical PGM a local predict writes.
  const std::string socket_path = "/tmp/litho_net_socket.pgm";
  const std::string manifest_path = "/tmp/litho_net_manifest.pgm";
  io::write_pgm(socket_path, contour);
  io::write_pgm(manifest_path, expected);
  const std::string socket_bytes = read_file(socket_path);
  EXPECT_FALSE(socket_bytes.empty());
  EXPECT_EQ(socket_bytes, read_file(manifest_path));
  std::remove(socket_path.c_str());
  std::remove(manifest_path.c_str());

  const net::ServerStats stats = fixture.server().stats();
  EXPECT_EQ(stats.requests_ok, 1);
  EXPECT_EQ(stats.requests_error, 0);
  EXPECT_EQ(stats.protocol_errors, 0);
}

TEST(NetServer, ConcurrentClientsAllGetCorrectContours) {
  LoopbackServer fixture;
  constexpr int kClients = 4;
  constexpr int kPerClient = 3;
  std::vector<Tensor> masks;
  std::vector<Tensor> expected;
  for (int i = 0; i < kClients * kPerClient; ++i) {
    masks.push_back(random_mask(64, 100 + static_cast<uint32_t>(i)));
    expected.push_back(fixture.reference().predict(masks.back()));
  }

  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        net::Client client("127.0.0.1", fixture.port());
        for (int r = 0; r < kPerClient; ++r) {
          const size_t i = static_cast<size_t>(c * kPerClient + r);
          const Tensor got = client.predict(i + 1, masks[i]);
          if (test::max_abs_diff(got, expected[i]) != 0.f) {
            failures[c] = "request " + std::to_string(i) + " mismatched";
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }
  const net::ServerStats stats = fixture.server().stats();
  EXPECT_EQ(stats.requests_ok, kClients * kPerClient);
  EXPECT_EQ(stats.connections_accepted, kClients);
}

TEST(NetServer, FullQueueYieldsBusyRepliesNotBlockingOrDrops) {
  // A 1-deep queue draining through single predicts cannot absorb a
  // pipelined burst: the overflow must come back as BUSY frames — every
  // request gets exactly one reply, nothing blocks, nothing is dropped.
  runtime::SchedulerOptions sched_opts;
  sched_opts.max_batch = 1;
  sched_opts.queue_cap = 1;
  sched_opts.max_delay_us = 0;
  LoopbackServer fixture(sched_opts);

  const Tensor mask = random_mask(64, 9);
  const Tensor expected = fixture.reference().predict(mask);
  net::Client client("127.0.0.1", fixture.port());

  constexpr int kBurst = 32;
  for (uint64_t i = 1; i <= kBurst; ++i) client.send_predict(i, mask);
  int contours = 0, busy = 0;
  for (int i = 0; i < kBurst; ++i) {
    net::Reply reply = client.read_reply();
    if (reply.type == net::FrameType::kBusy) {
      ++busy;
    } else if (reply.type == net::FrameType::kContour) {
      ++contours;
      EXPECT_EQ(test::max_abs_diff(reply.contour, expected), 0.f);
    } else {
      FAIL() << "unexpected reply type " << static_cast<int>(reply.type);
    }
  }
  EXPECT_EQ(contours + busy, kBurst);
  EXPECT_GT(contours, 0);
  EXPECT_GT(busy, 0) << "a 1-deep queue absorbed a 32-request burst";
  const net::ServerStats stats = fixture.server().stats();
  EXPECT_EQ(stats.requests_ok, contours);
  EXPECT_EQ(stats.busy_rejected, busy);
  EXPECT_EQ(stats.dropped_replies, 0);
}

TEST(NetServer, GarbageFrameGetsErrorReplyAndClose) {
  LoopbackServer fixture;
  net::Client client("127.0.0.1", fixture.port());
  std::vector<uint8_t> garbage(64, 0xAB);
  client.send_raw(garbage.data(), garbage.size());
  net::Reply reply = client.read_reply();
  EXPECT_EQ(reply.type, net::FrameType::kError);
  EXPECT_FALSE(reply.error.empty());
  // The server closes after a protocol error; the next read sees EOF.
  EXPECT_THROW(client.read_reply(), std::runtime_error);
  EXPECT_EQ(fixture.server().stats().protocol_errors, 1);
}

TEST(NetServer, OversizeFrameGetsErrorReplyAndClose) {
  LoopbackServer fixture;
  net::Client client("127.0.0.1", fixture.port());
  // A syntactically valid header whose payload length exceeds the cap.
  net::FrameHeader header;
  header.type = net::FrameType::kPredict;
  header.request_id = 1;
  header.payload_bytes = net::kMaxPayloadBytes + 1;
  std::vector<uint8_t> wire;
  net::encode_header(header, wire);
  client.send_raw(wire.data(), wire.size());
  net::Reply reply = client.read_reply();
  EXPECT_EQ(reply.type, net::FrameType::kError);
  EXPECT_THROW(client.read_reply(), std::runtime_error);
  EXPECT_EQ(fixture.server().stats().protocol_errors, 1);
}

TEST(NetServer, MalformedImagePayloadGetsErrorReplyAndClose) {
  LoopbackServer fixture;
  net::Client client("127.0.0.1", fixture.port());
  // Valid header, but the payload is too short to be an image.
  net::FrameHeader header;
  header.type = net::FrameType::kPredict;
  header.request_id = 3;
  header.payload_bytes = 4;
  std::vector<uint8_t> wire;
  net::encode_header(header, wire);
  wire.insert(wire.end(), {1, 2, 3, 4});
  client.send_raw(wire.data(), wire.size());
  net::Reply reply = client.read_reply();
  EXPECT_EQ(reply.type, net::FrameType::kError);
  EXPECT_EQ(reply.request_id, 3u);
  EXPECT_THROW(client.read_reply(), std::runtime_error);
}

TEST(NetServer, IdleConnectionReapedWhileActiveOneSurvives) {
  net::ServerOptions server_opts;
  server_opts.idle_timeout_ms = 200;
  LoopbackServer fixture({}, server_opts);
  const Tensor mask = random_mask(64, 31);
  const Tensor expected = fixture.reference().predict(mask);

  net::Client idle("127.0.0.1", fixture.port());
  net::Client active("127.0.0.1", fixture.port());
  // Drive traffic on `active` well past the timeout; `idle` sends nothing.
  // Each round trip restamps the active connection's activity clock.
  bool reaped = false;
  for (int i = 0; i < 60 && !reaped; ++i) {
    const Tensor got = active.predict(static_cast<uint64_t>(i) + 1, mask);
    ASSERT_EQ(test::max_abs_diff(got, expected), 0.f);
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    reaped = fixture.server().stats().idle_reaped > 0;
  }
  EXPECT_TRUE(reaped) << "idle connection never reaped";
  EXPECT_EQ(fixture.server().stats().idle_reaped, 1);
  // The reaped socket was closed server-side: the next read hits EOF.
  EXPECT_THROW(idle.read_reply(), std::runtime_error);
  // The trafficking connection is untouched and still serves.
  const Tensor got = active.predict(999, mask);
  EXPECT_EQ(test::max_abs_diff(got, expected), 0.f);
}

TEST(NetServer, ShutdownFrameDrainsInFlightRequestsThenStops) {
  LoopbackServer fixture;
  const Tensor mask = random_mask(64, 21);
  const Tensor expected = fixture.reference().predict(mask);
  net::Client client("127.0.0.1", fixture.port());
  // Predict pipelined ahead of the shutdown: the reply must still arrive.
  client.send_predict(77, mask);
  client.send_shutdown();
  net::Reply reply = client.read_reply();
  ASSERT_EQ(reply.type, net::FrameType::kContour);
  EXPECT_EQ(reply.request_id, 77u);
  EXPECT_EQ(test::max_abs_diff(reply.contour, expected), 0.f);
  fixture.join();  // run() must return on its own
  EXPECT_TRUE(fixture.server().shutdown_requested());
}

}  // namespace
}  // namespace litho
