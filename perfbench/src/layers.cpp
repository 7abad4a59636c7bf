#include "layers.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "autograd/capture.h"
#include "autograd/variable.h"
#include "fft/fft.h"
#include "net/protocol.h"
#include "runtime/engine.h"
#include "runtime/engine_pool.h"
#include "runtime/graph_exec.h"
#include "runtime/metrics_registry.h"
#include "runtime/scheduler.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/prepack.h"

namespace perfbench {

using litho::Tensor;
namespace net = litho::net;
namespace rt = litho::runtime;

namespace {

/// Spans recorded around the calls into each layer: name, start, end,
/// parent span and request id. Pass-level spans nest on one thread and are
/// written as complete ("X") events; per-request spans overlap, so they
/// are written as async begin/end pairs keyed by request id.
class SpanLog {
 public:
  int begin(const std::string& name, int parent) {
    spans_.push_back({name, now_ms(), 0.0, parent, -1, false});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<size_t>(id)].end = now_ms(); }
  void request(const std::string& name, double start, double end, int parent,
               int64_t request_id) {
    spans_.push_back({name, start, end, parent, request_id, true});
  }
  void write(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"traceEvents\":[";
    bool first = true;
    char buf[512];
    for (const Span& s : spans_) {
      const std::string parent =
          s.parent >= 0 ? spans_[static_cast<size_t>(s.parent)].name : "";
      if (s.async) {
        for (int edge = 0; edge < 2; ++edge) {
          std::snprintf(buf, sizeof(buf),
                        "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"%s\","
                        "\"pid\":1,\"tid\":2,\"ts\":%.3f,\"id\":%lld,"
                        "\"args\":{\"parent\":\"%s\",\"request_id\":%lld}}",
                        first ? "" : ",", s.name.c_str(), edge ? "e" : "b",
                        (edge ? s.end : s.start) * 1e3,
                        static_cast<long long>(s.request), parent.c_str(),
                        static_cast<long long>(s.request));
          f << buf;
          first = false;
        }
      } else {
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                      "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"parent\":\"%s\"}}",
                      first ? "" : ",", s.name.c_str(), s.start * 1e3,
                      (s.end - s.start) * 1e3, parent.c_str());
        f << buf;
        first = false;
      }
    }
    f << "]}\n";
    if (!f) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Span {
    std::string name;
    double start, end;
    int parent;
    int64_t request;
    bool async;
  };
  std::vector<Span> spans_;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median wall time of @p reps calls of @p fn in ms, each call under a
/// child span of @p parent.
double time_ms(SpanLog& log, int parent, const std::string& name, int reps,
               const std::function<void()>& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const int s = log.begin(name, parent);
    const double t0 = now_ms();
    fn();
    t.push_back(now_ms() - t0);
    log.end(s);
  }
  return median(t);
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

using SubmitFn =
    std::function<std::optional<std::future<Tensor>>(uint64_t, const Tensor&)>;

/// The socket workload's closed loop against an in-process submit
/// function: the same seeded masks and the same total number of requests
/// in flight. A waiter thread resolves futures in submission order, as the
/// server's completion thread does.
LoadResult replay(const Workload& w, const Inputs& in, double seconds,
                  uint32_t seed, const SubmitFn& submit) {
  std::mt19937_64 rng(seed);
  LoadResult r;
  r.t0_ms = now_ms();
  r.stop_ms = r.t0_ms + seconds * 1e3;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<size_t, std::future<Tensor>>> pending;
  bool closing = false;
  int inflight = 0;
  const int window = w.connections * w.window;

  std::thread waiter([&] {
    std::vector<uint8_t> got;
    for (;;) {
      std::pair<size_t, std::future<Tensor>> item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || closing; });
        if (pending.empty()) return;
        item = std::move(pending.front());
        pending.pop_front();
      }
      int status = kOk;
      int mask = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        mask = r.requests[item.first].mask;
      }
      try {
        const Tensor c = item.second.get();
        got.clear();
        net::encode_image(c, got);
        status = got == in.expected[static_cast<size_t>(mask)] ? kOk
                                                                : kMismatch;
      } catch (const std::exception&) {
        status = kError;
      }
      const double done = now_ms();
      std::lock_guard<std::mutex> lock(mu);
      r.requests[item.first].status = status;
      r.requests[item.first].done_ms = done;
      --inflight;
      cv.notify_all();
    }
  });

  auto send = [&](size_t idx) {
    const Tensor* mask;
    {
      std::lock_guard<std::mutex> lock(mu);
      mask = &in.masks[static_cast<size_t>(r.requests[idx].mask)];
      r.requests[idx].start_ms = now_ms();
    }
    std::optional<std::future<Tensor>> f = submit(idx, *mask);
    std::lock_guard<std::mutex> lock(mu);
    if (!f) {
      r.requests[idx].status = kBusy;
      r.requests[idx].done_ms = now_ms();
      return;
    }
    ++inflight;
    pending.emplace_back(idx, std::move(*f));
    cv.notify_all();
  };

  while (now_ms() < r.stop_ms) {
    size_t idx;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return inflight < window; });
      Request q;
      q.mask = pick_mask(w, rng);
      r.requests.push_back(q);
      idx = r.requests.size() - 1;
    }
    send(idx);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closing = true;
    cv.notify_all();
  }
  waiter.join();
  r.t_end_ms = now_ms();
  return r;
}

struct GemmShape {
  int64_t m, k, l;
  std::string name() const {
    return std::to_string(m) + "x" + std::to_string(k) + "x" +
           std::to_string(l);
  }
};

/// The @p count conv GEMMs with the most multiply-adds in a batch-8 tile
/// forward of @p model, read off the executor's capture of that forward.
std::vector<GemmShape> top_conv_gemms(litho::core::Doinn& model, int count) {
  const int64_t tile = model.config().tile;
  const auto graph = rt::capture_graph(
      Tensor({8, 1, tile, tile}),
      [&](const litho::ag::Variable& v) { return model.forward(v); });
  std::set<std::tuple<int64_t, int64_t, int64_t>> seen;
  std::vector<GemmShape> shapes;
  for (const litho::ag::CaptureNode& node : graph->nodes) {
    if (!node.conv.valid) continue;
    const auto key = std::make_tuple(node.conv.m, node.conv.k, node.conv.l);
    if (seen.insert(key).second) {
      shapes.push_back({node.conv.m, node.conv.k, node.conv.l});
    }
  }
  std::stable_sort(shapes.begin(), shapes.end(),
                   [](const GemmShape& a, const GemmShape& b) {
                     return a.m * a.k * a.l > b.m * b.k * b.l;
                   });
  shapes.resize(std::min<size_t>(shapes.size(), static_cast<size_t>(count)));
  return shapes;
}

}  // namespace

void run_layers(const Workload& w, const LayersConfig& cfg, Json& j) {
  SpanLog log;
  const int root = log.begin("layers", -1);
  j.num("calib_before_ms", calib_probe_ms());
  const std::string ckpt = cfg.workdir + "/weights.bin";
  write_checkpoint(ckpt);
  const Inputs in = make_inputs(w, cfg.seed, ckpt);
  const litho::Precision prec = litho::parse_precision(w.precision);

  // 1. The socket, against the same subprocess server as the timed runs.
  {
    const int span = log.begin("layers.socket", root);
    const std::string metrics_path = cfg.workdir + "/server_metrics.json";
    const std::vector<std::string> argv =
        server_argv(w, cfg.serve_bin, cfg.workdir, ckpt, metrics_path);
    j.str("server_flags", join_flags(argv));
    ServerProcess server(argv, cfg.workdir + "/server.log");
    // Warm-up and priming replies are checked too; any failure there
    // counts with the mismatches.
    const int warm_failed = warm_up(w, in, server.port());
    j.num("warmup_mismatch", warm_failed + prime(w, in, server.port(), cfg.seed));
    const double cpu0 = server.cpu_ms();
    const LoadResult load =
        run_load(w, in, server.port(), cfg.seconds, cfg.seed, 0);
    j.num("server_cpu_ms", server.cpu_ms() - cpu0);
    j.num("server_exit", server.shutdown());
    log.end(span);
    for (size_t i = 0; i < load.requests.size(); ++i) {
      const Request& q = load.requests[i];
      log.request("net.request", q.start_ms, q.done_ms, span,
                  static_cast<int64_t>(i));
    }
    put_load(j, "socket", load);
    j.raw("server_metrics", read_file(metrics_path));
  }

  // 2. The codec: frame encode and payload decode per mask shape.
  {
    const int span = log.begin("layers.codec", root);
    j.begin_object("codec_us");
    const std::pair<const char*, int64_t> shapes[] = {{"tile", kModelTile},
                                                      {"large", 4 * kModelTile}};
    for (const auto& [label, px] : shapes) {
      const Tensor mask = seeded_mask(px, 0, cfg.seed);
      const int reps = px > kModelTile ? 40 : 400;
      std::vector<uint8_t> frame;
      auto encode = [&] {
        frame = w.model.empty() ? net::make_predict_frame(1, mask)
                                : net::make_predict_frame(1, mask, w.model);
      };
      const double enc =
          time_ms(log, span, std::string("net.encode.") + label, reps, encode);
      std::string model;
      Tensor decoded;
      const double dec = time_ms(
          log, span, std::string("net.decode.") + label, reps, [&] {
            if (!net::decode_predict_payload(
                    frame[4], frame.data() + net::kHeaderBytes,
                    frame.size() - net::kHeaderBytes, model, decoded)) {
              throw std::runtime_error("codec round trip failed");
            }
          });
      j.num((std::string("encode.") + label).c_str(), enc * 1e3);
      j.num((std::string("decode.") + label).c_str(), dec * 1e3);
    }
    j.end_object();
    log.end(span);
  }

  rt::EngineOptions eo;
  eo.num_threads = w.threads;
  eo.precision = prec;
  eo.autotune = false;

  // 3. Scheduler::try_submit (EnginePool::try_submit with replicas) on an
  // in-process engine with the server's flags and the same schedule.
  {
    const int span = log.begin("layers.sched", root);
    LoadResult sched_load;
    int64_t plans_before = 0, plans_after = 0, fallbacks = 0;
    j.begin_object("sched");
    if (w.replicas == 1) {
      rt::InferenceEngine engine(ckpt, eo);
      if (w.px > kModelTile) {
        engine.predict(in.masks[0]);
      } else {
        for (int b = 1; b <= 8; ++b) {
          engine.predict_batch(std::vector<Tensor>(
              in.masks.begin(), in.masks.begin() + b));
        }
      }
      rt::Scheduler sched(engine, rt::SchedulerOptions{});
      plans_before = engine.plan_count();
      sched_load = replay(w, in, cfg.seconds, cfg.seed,
                          [&](uint64_t id, const Tensor& m) {
                            return sched.try_submit(m, id);
                          });
      sched.shutdown();
      plans_after = engine.plan_count();
      fallbacks = engine.plan_fallbacks();
      const rt::SchedulerStats s = sched.stats();
      j.num("batches", static_cast<double>(s.batches + s.large));
      j.num("batched_requests",
            static_cast<double>(s.batched_requests + s.large));
      j.num("queue_depth_max", static_cast<double>(s.max_queue_depth));
      j.num("effective_delay_us", static_cast<double>(s.effective_delay_us));
      j.num("rejected", static_cast<double>(s.rejected));
      j.begin_array("replica_requests").num(static_cast<double>(s.submitted));
      j.end_array();
      j.num("pool_rejected", 0);
    } else {
      rt::MetricsRegistry registry;
      rt::ModelSpec spec;
      spec.name = w.model;
      spec.checkpoint = ckpt;
      spec.precision = prec;
      spec.replicas = w.replicas;
      rt::EnginePoolOptions po;
      po.engine = eo;
      po.metrics = &registry;
      rt::EnginePool pool({spec}, po);
      auto plans = [&] {
        int64_t n = 0;
        for (int r = 0; r < w.replicas; ++r) {
          n += pool.engine(w.model, r).plan_count();
        }
        return n;
      };
      // Bursts of replicas x b split into about b per replica; repeat
      // until every replica holds a plan per batch size.
      uint64_t id = 1ull << 40;
      for (int round = 0; round < 8 && plans() < 8 * w.replicas; ++round) {
        for (int b = 1; b <= 8; ++b) {
          std::vector<std::future<Tensor>> fs;
          for (int k = 0; k < b * w.replicas; ++k) {
            auto f = pool.try_submit(
                w.model, in.masks[static_cast<size_t>(k % w.unique_masks)],
                id++);
            if (f) fs.push_back(std::move(*f));
          }
          for (auto& f : fs) f.get();
        }
      }
      plans_before = plans();
      sched_load = replay(w, in, cfg.seconds, cfg.seed,
                          [&](uint64_t rid, const Tensor& m) {
                            return pool.try_submit(w.model, m, rid);
                          });
      pool.shutdown();
      plans_after = plans();
      double batches = 0, batched = 0, depth = 0, delay = 0, rejected = 0;
      j.begin_array("replica_requests");
      for (int r = 0; r < w.replicas; ++r) {
        const std::string p = "pool." + w.model + ".r" + std::to_string(r) + ".";
        batches += static_cast<double>(
            registry.counter(p + "batches_dispatched").value());
        batched += static_cast<double>(
            registry.counter(p + "batched_requests").value());
        depth = std::max(depth, static_cast<double>(
                                    registry.gauge(p + "queue_depth_max").value()));
        delay = std::max(delay, static_cast<double>(
                                    registry.gauge(p + "effective_delay_us").value()));
        rejected += static_cast<double>(
            registry.counter(p + "requests_rejected").value());
        j.num(static_cast<double>(
            registry.counter(p + "requests_submitted").value()));
        fallbacks += pool.engine(w.model, r).plan_fallbacks();
      }
      j.end_array();
      j.num("batches", batches).num("batched_requests", batched);
      j.num("queue_depth_max", depth).num("effective_delay_us", delay);
      j.num("rejected", rejected);
      j.num("pool_rejected", static_cast<double>(
                                 registry.counter("pool." + w.model + ".rejected")
                                     .value()));
    }
    j.num("plans_before", static_cast<double>(plans_before));
    j.num("plans_after", static_cast<double>(plans_after));
    j.num("plan_fallbacks", static_cast<double>(fallbacks));
    j.end_object();
    log.end(span);
    for (size_t i = 0; i < sched_load.requests.size(); ++i) {
      const Request& q = sched_load.requests[i];
      log.request("sched.request", q.start_ms, q.done_ms, span,
                  static_cast<int64_t>(i));
    }
    put_load(j, "sched_requests", sched_load);
  }

  // 4. predict_batch at every batch size the scheduler can produce and
  // predict_large, fp32, plus the int8 engine at the small batches.
  std::shared_ptr<litho::core::Doinn> fp32_model;
  {
    const int span = log.begin("layers.engine", root);
    rt::EngineOptions fo = eo;
    fo.precision = litho::Precision::kFp32;
    std::unique_ptr<rt::InferenceEngine> engine;
    const double load_ms = time_ms(log, span, "engine.load", 3, [&] {
      engine.reset();
      engine = std::make_unique<rt::InferenceEngine>(ckpt, fo);
    });
    j.num("engine_load_ms", load_ms);
    std::vector<Tensor> tiles;
    for (int i = 0; i < 8; ++i) tiles.push_back(seeded_mask(kModelTile, i, cfg.seed));
    const Tensor window = seeded_mask(4 * kModelTile, 0, cfg.seed);
    for (int b = 1; b <= 8; ++b) {
      engine->predict_batch(std::vector<Tensor>(tiles.begin(), tiles.begin() + b));
    }
    engine->predict_large(window);
    j.begin_array("batch_ms");
    for (int b = 1; b <= 8; ++b) {
      const std::vector<Tensor> batch(tiles.begin(), tiles.begin() + b);
      j.num(time_ms(log, span, "engine.predict_batch.b" + std::to_string(b),
                    5, [&] { engine->predict_batch(batch); }));
    }
    j.end_array();
    j.num("heap_allocs_per_batch",
          static_cast<double>(rt::MetricsRegistry::global()
                                  .gauge("engine.heap_allocs_per_batch")
                                  .value()));
    j.num("large_ms", time_ms(log, span, "engine.predict_large", 3,
                              [&] { engine->predict_large(window); }));
    fp32_model = engine->shared_model();
    engine.reset();

    rt::EngineOptions io = eo;
    io.precision = litho::Precision::kInt8;
    rt::InferenceEngine i8(ckpt, io);
    j.begin_array("i8_batch_ms");
    for (int b = 1; b <= 2; ++b) {
      const std::vector<Tensor> batch(tiles.begin(), tiles.begin() + b);
      i8.predict_batch(batch);
      j.num(time_ms(log, span, "engine.i8_predict_batch.b" + std::to_string(b),
                    7, [&] { i8.predict_batch(batch); }));
    }
    j.end_array();
    log.end(span);
  }

  // 5. The GEMM and FFT calls on the model's shapes, on a pool of the
  // server's width.
  {
    const int span = log.begin("layers.kernels", root);
    rt::ThreadPool pool(w.threads);
    rt::ScopedPool scope(&pool);
    std::mt19937 rng(cfg.seed);
    const int64_t batch = 8;
    j.begin_array("gemm");
    for (const GemmShape& s : top_conv_gemms(*fp32_model, 3)) {
      const Tensor a = Tensor::randn({s.m, s.k}, rng);
      const Tensor b = Tensor::randn({s.k, s.l}, rng);
      Tensor c({batch, s.m, s.l});
      const litho::StridedBPacker bp(b.data(), s.l, /*transposed=*/false);
      const int64_t blocks = litho::gemm_col_blocks(s.l);
      const litho::PackedWeight w32(litho::GemmLayout::kNN, a.data(), s.m,
                                    s.k, litho::Precision::kFp32);
      const double fp32_ms =
          time_ms(log, span, "gemm.fp32." + s.name(), 7, [&] {
            pool.parallel_for(batch * blocks, [&](int64_t lo, int64_t hi) {
              for (int64_t t = lo; t < hi; ++t) {
                litho::gemm_col_block(w32.fp32_view(), bp, s.l, t % blocks,
                                      c.data() + (t / blocks) * s.m * s.l);
              }
            });
          });
      const litho::PackedWeight w8(litho::GemmLayout::kNN, a.data(), s.m, s.k,
                                   litho::Precision::kInt8);
      std::vector<float> scales(static_cast<size_t>(s.m));
      const double int8_ms =
          time_ms(log, span, "gemm.int8." + s.name(), 7, [&] {
            // Per-sample activation scan and scale fold, as the int8 conv
            // does before its column blocks.
            const float bmax = litho::max_abs(b.data(), s.k * s.l);
            const float inv_b = bmax > 0.f ? 127.f / bmax : 0.f;
            for (int64_t i = 0; i < s.m; ++i) {
              scales[static_cast<size_t>(i)] = w8.row_scales()[i] * (bmax / 127.f);
            }
            pool.parallel_for(batch * blocks, [&](int64_t lo, int64_t hi) {
              for (int64_t t = lo; t < hi; ++t) {
                litho::gemm_col_block_i8(w8, bp, inv_b, scales.data(), s.l,
                                         t % blocks,
                                         c.data() + (t / blocks) * s.m * s.l,
                                         nullptr);
              }
            });
          });
      j.begin_object();
      j.str("shape", s.name()).num("m", static_cast<double>(s.m));
      j.num("k", static_cast<double>(s.k)).num("l", static_cast<double>(s.l));
      j.num("batch", static_cast<double>(batch));
      j.num("fp32_ms", fp32_ms).num("int8_ms", int8_ms);
      j.end_object();
    }
    j.end_array();

    // rfft2 of the pooled input and irfft2 of the mixed spectrum, both on
    // the GP grid of a batch-8 forward.
    const litho::core::DoinnConfig& mc = fp32_model->config();
    const int64_t g = mc.gp_grid(), gw = mc.gp_spec_w();
    const int64_t planes_in = batch, planes_out = batch * mc.gp_channels;
    const Tensor src = Tensor::randn({planes_in, g, g}, rng);
    Tensor re({planes_out, g, gw}), im({planes_out, g, gw});
    Tensor spec_re = Tensor::randn({planes_out, g, gw}, rng);
    Tensor spec_im = Tensor::randn({planes_out, g, gw}, rng);
    Tensor dst({planes_out, g, g});
    const double fft_ms = time_ms(log, span, "fft.gp.b8", 101, [&] {
      litho::fft::rfft2_into(src.data(), re.data(), im.data(), planes_in, g, g);
      litho::fft::irfft2_into(spec_re.data(), spec_im.data(), dst.data(),
                              planes_out, g, g);
    });
    j.num("fft_gp_us", fft_ms * 1e3);
    j.num("fft_grid", static_cast<double>(g));
    j.num("fft_channels", static_cast<double>(mc.gp_channels));
    log.end(span);
  }

  j.num("calib_after_ms", calib_probe_ms());
  log.end(root);
  const std::string trace_path = cfg.workdir + "/trace.json";
  log.write(trace_path);
  j.str("trace", trace_path);
}

}  // namespace perfbench
