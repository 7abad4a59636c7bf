// Serving throughput: dynamic-batching scheduler vs the serial request
// loop, plus the engine's thread-scaling curve and the tracing-overhead
// gate.
//
//   bench_serve_throughput [--quick] [--trace-out trace.json]
//
// The headline comparison runs 8 closed-loop clients (each submits one
// request, waits for the contour, submits the next) against the same
// InferenceEngine two ways:
//
//   serial    — every client calls engine.predict() directly, one forward
//               pass per request: the pre-scheduler doinn_serve model.
//   scheduled — every client goes through runtime::Scheduler, whose
//               dispatcher coalesces concurrent requests into
//               predict_batch calls.
//
// Both modes process the same masks; the benchmark verifies the scheduled
// results are bitwise identical to the serial ones before timing counts.
// Each in-process pass reports the median of 5 repeats.
//
// Pass/fail: in full mode with >= 4 hardware threads scheduled throughput
// must be >= 2x serial: a serial request is one sample with its kernels
// split across the pool, while a scheduled batch runs one sample per pool
// lane, each lane's kernels inline.
// On smaller machines (1-2 cores) total compute is the bound and batching
// can only break even, so the gate is "no regression" (>= 0.85x, leaving
// margin for timer noise). --quick (the CI smoke mode, which also shrinks
// the model and request count) always uses the no-regression gate: shared
// runners have noisy, heterogeneous CPU budgets, and the smoke job's
// contract is "batching never loses throughput", not a speedup target.
// The measured ratio and the applied gate are both recorded in
// BENCH_serve.json for cross-PR tracking.
//
// A third scheduled pass then runs with tracing enabled. It must stay
// bitwise identical (the determinism contract: tracing only observes
// timestamps) and its throughput gates the instrumentation overhead:
// >= 0.95x the untraced scheduled pass in full mode, >= 0.85x in --quick
// (timer noise dominates tiny runs). The recorded spans also yield the
// per-stage latency breakdown (count/p50/p99 per span name) written to
// BENCH_serve.json and, with --trace-out, the full Chrome Trace Event
// file that CI feeds through scripts/trace_summary.py.
//
// A fourth pass runs the same closed-loop clients through the TCP front
// end (src/net/server.h over loopback, default 2 ms batch hold), served as
// doinn_serve --weights serves: a one-model, one-replica EnginePool loaded
// from a checkpoint of the same weights. Every
// contour must be byte-identical on the wire to the quantized serial
// result, throughput must hold >= 0.5x serial (framing + loopback on top
// of the same compute), and the closed-loop p99 latency gates against an
// SLO of 5x the ideal closed-loop round trip (kConcurrency / serial rate)
// with a 100 ms floor for tiny quick-mode runs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "runtime/engine.h"
#include "runtime/engine_pool.h"
#include "runtime/percentile.h"
#include "runtime/scheduler.h"
#include "runtime/trace.h"

using namespace litho;

namespace {

constexpr int kConcurrency = 8;

core::DoinnConfig bench_config(bool quick) {
  core::DoinnConfig cfg = core::DoinnConfig::small();  // 128 px tile
  if (quick) {
    cfg.tile = 64;
    cfg.modes = 4;
    cfg.gp_channels = 4;
  }
  return cfg;
}

Tensor random_mask(int64_t side, uint32_t seed) {
  std::mt19937 rng(seed);
  Tensor mask = Tensor::rand({side, side}, rng);
  mask.apply_([](float v) { return v >= 0.6f ? 1.f : 0.f; });
  return mask;
}

using bench::max_abs_diff;

/// Per-span-name latency summary aggregated from the recorded trace.
struct StageRow {
  std::string name;
  int64_t count = 0;
  double total_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Groups every recorded span (complete and async) by name and summarizes
/// durations. Sorted by total time descending, so the breakdown reads as
/// "where did the wall clock go". @p dropped returns how many events ring
/// wrap overwrote — nonzero means the breakdown covers a trailing window,
/// not the whole pass.
std::vector<StageRow> stage_breakdown(uint64_t& dropped) {
  std::map<std::string, std::vector<double>> by_name;
  dropped = 0;
  for (const runtime::trace::ThreadEvents& te : runtime::trace::snapshot()) {
    dropped += te.dropped;
    for (const runtime::trace::Event& ev : te.events) {
      if (ev.kind == runtime::trace::Kind::kInstant) continue;
      by_name[ev.name].push_back(static_cast<double>(ev.dur_ns) / 1e6);
    }
  }
  std::vector<StageRow> rows;
  for (auto& [name, durs] : by_name) {
    StageRow row;
    row.name = name;
    row.count = static_cast<int64_t>(durs.size());
    for (double d : durs) row.total_ms += d;
    row.p50_ms = runtime::nearest_rank_percentile(durs, 0.50);
    row.p99_ms = runtime::nearest_rank_percentile(durs, 0.99);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const StageRow& a, const StageRow& b) {
    return a.total_ms > b.total_ms;
  });
  return rows;
}

/// Runs kConcurrency closed-loop clients over masks[0..R) kRepeats times;
/// in each repeat every client claims the next unprocessed index, runs
/// process(i), and stores the result. Returns the median requests per
/// second over the repeats — one repeat of a quick run is a handful of
/// batches, too short to time on its own. @p results holds the last
/// repeat's outputs; @p check (if set) sees every repeat's.
constexpr int kRepeats = 5;

template <typename Process>
double closed_loop(const std::vector<Tensor>& masks,
                   std::vector<Tensor>& results, Process&& process,
                   const std::function<void()>& check = {}) {
  std::vector<double> rps;
  for (int rep = 0; rep < kRepeats; ++rep) {
    std::atomic<size_t> next{0};
    const double secs = bench::seconds([&] {
      std::vector<std::thread> clients;
      clients.reserve(kConcurrency);
      for (int c = 0; c < kConcurrency; ++c) {
        clients.emplace_back([&] {
          for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= masks.size()) return;
            results[i] = process(i);
          }
        });
      }
      for (auto& t : clients) t.join();
    });
    rps.push_back(static_cast<double>(masks.size()) / secs);
    if (check) check();
  }
  std::sort(rps.begin(), rps.end());
  return rps[kRepeats / 2];
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    }
  }
  const core::DoinnConfig cfg = bench_config(quick);
  const int hw_threads = runtime::ThreadPool::default_num_threads();
  const size_t requests = quick ? 32 : 64;

  std::vector<Tensor> masks;
  for (uint32_t s = 0; s < requests; ++s) {
    masks.push_back(random_mask(cfg.tile, s));
  }

  runtime::InferenceEngine engine(cfg, /*seed=*/42, runtime::EngineOptions{});

  // -- serial: one forward per request, clients call the engine directly.
  std::vector<Tensor> serial_results(requests);
  const double serial_rps = closed_loop(
      masks, serial_results, [&](size_t i) { return engine.predict(masks[i]); });
  std::fprintf(stderr, "serial: %.2f req/s\n", serial_rps);

  // -- scheduled: same clients, coalesced through the dispatcher.
  runtime::SchedulerOptions sched_opts;
  sched_opts.max_batch = kConcurrency;
  sched_opts.max_delay_us = 2000;
  sched_opts.queue_cap = 4 * kConcurrency;
  runtime::Scheduler scheduler(engine, sched_opts);
  std::vector<Tensor> scheduled_results(requests);
  // Bitwise identity: coalescing must not change a single bit, in any
  // repeat.
  bool identical = true;
  auto same_as_serial = [&](const std::vector<Tensor>& results,
                            const char* what) {
    for (size_t i = 0; i < requests; ++i) {
      if (max_abs_diff(serial_results[i], results[i]) != 0.f) {
        std::fprintf(stderr, "FAIL: request %zu differs %s\n", i, what);
        identical = false;
      }
    }
  };
  const double scheduled_rps = closed_loop(
      masks, scheduled_results,
      [&](size_t i) { return scheduler.submit(masks[i]).get(); },
      [&] { same_as_serial(scheduled_results, "between serial and scheduled"); });
  const runtime::SchedulerStats sched = scheduler.stats();
  scheduler.shutdown();
  std::fprintf(stderr, "scheduled: %.2f req/s (%lld batches, %.2f avg size)\n",
               scheduled_rps, static_cast<long long>(sched.batches),
               sched.batches > 0
                   ? static_cast<double>(sched.batched_requests) /
                         static_cast<double>(sched.batches)
                   : 0.0);

  // -- traced: the scheduled pass again with span recording on. Gates the
  // instrumentation overhead and yields the per-stage breakdown.
  runtime::trace::reset();
  runtime::trace::set_enabled(true);
  double traced_rps;
  std::vector<StageRow> stages;
  uint64_t trace_dropped = 0;
  {
    runtime::Scheduler traced_scheduler(engine, sched_opts);
    std::vector<Tensor> traced_results(requests);
    traced_rps = closed_loop(
        masks, traced_results,
        [&](size_t i) { return traced_scheduler.submit(masks[i]).get(); },
        [&] { same_as_serial(traced_results, "with tracing enabled"); });
    traced_scheduler.shutdown();  // quiesce before reading the rings
    runtime::trace::set_enabled(false);
    stages = stage_breakdown(trace_dropped);
  }
  const double tracing_overhead = traced_rps / scheduled_rps;
  std::fprintf(stderr, "traced: %.2f req/s (%.3fx of untraced)\n", traced_rps,
               tracing_overhead);
  if (!stages.empty()) {
    std::fprintf(stderr, "%-24s %8s %10s %10s %10s\n", "stage", "count",
                 "p50 ms", "p99 ms", "total ms");
    for (const StageRow& s : stages) {
      std::fprintf(stderr, "%-24s %8lld %10.3f %10.3f %10.1f\n",
                   s.name.c_str(), static_cast<long long>(s.count), s.p50_ms,
                   s.p99_ms, s.total_ms);
    }
  }
  if (trace_dropped > 0) {
    std::fprintf(stderr,
                 "note: ring wrap dropped %llu events — the breakdown covers "
                 "a trailing window (raise DOINN_TRACE_BUFFER for full "
                 "coverage)\n",
                 static_cast<unsigned long long>(trace_dropped));
  }
  if (!trace_out.empty()) runtime::trace::write_json(trace_out);

  // -- socket: the same closed loop through the TCP front end. Measures
  // the full ingest -> scheduler -> completion -> write path plus framing
  // and loopback TCP, and gates the closed-loop p99 against the SLO.
  double socket_rps = 0.0;
  double socket_p99_ms = 0.0;
  bool socket_identical = true;
  int64_t socket_busy = 0;
  {
    const std::string checkpoint = "bench_serve_socket.bin";
    core::save_doinn(checkpoint, *engine.shared_model());
    runtime::ModelSpec spec;
    spec.name = "default";
    spec.checkpoint = checkpoint;
    runtime::EnginePoolOptions pool_opts;
    pool_opts.scheduler = sched_opts;
    runtime::EnginePool pool({spec}, pool_opts);
    std::remove(checkpoint.c_str());
    net::Server server(pool, net::ServerOptions{});
    std::thread loop([&] { server.run(); });

    std::vector<Tensor> socket_results(requests);
    std::vector<double> latencies_ms(requests, 0.0);
    std::atomic<size_t> next{0};
    std::atomic<int64_t> busy{0};
    const double secs = bench::seconds([&] {
      std::vector<std::thread> clients;
      clients.reserve(kConcurrency);
      for (int c = 0; c < kConcurrency; ++c) {
        clients.emplace_back([&] {
          net::Client client("127.0.0.1", server.port());
          for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= masks.size()) return;
            const auto t0 = std::chrono::steady_clock::now();
            for (;;) {
              client.send_predict(i + 1, masks[i]);
              net::Reply reply = client.read_reply();
              if (reply.type == net::FrameType::kBusy) {
                // Closed-loop in-flight fits the queue, so BUSY is rare
                // (a dispatch racing the burst); retry after a beat.
                busy.fetch_add(1);
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                continue;
              }
              socket_results[i] = std::move(reply.contour);
              break;
            }
            latencies_ms[i] =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
          }
        });
      }
      for (auto& t : clients) t.join();
    });
    server.stop();
    loop.join();
    pool.shutdown();
    socket_rps = static_cast<double>(requests) / secs;
    socket_busy = busy.load();
    socket_p99_ms = runtime::nearest_rank_percentile(latencies_ms, 0.99);

    // Wire identity: the socket contour re-encodes to exactly the bytes
    // the serial result would produce — the PGM a socket client writes is
    // byte-identical to a local predict's output file.
    for (size_t i = 0; i < requests; ++i) {
      std::vector<uint8_t> socket_wire, serial_wire;
      net::encode_image(socket_results[i], socket_wire);
      net::encode_image(serial_results[i], serial_wire);
      if (socket_wire != serial_wire) {
        std::fprintf(stderr, "FAIL: request %zu differs between socket and "
                             "serial\n", i);
        socket_identical = false;
      }
    }
  }
  // SLO: 5x the ideal closed-loop round trip, floored at 100 ms so tiny
  // quick-mode runs don't gate on scheduler wakeup granularity.
  const double socket_slo_ms = std::max(
      100.0, 5.0 * 1000.0 * kConcurrency / std::max(serial_rps, 1e-9));
  std::fprintf(stderr,
               "socket: %.2f req/s, p99 %.1f ms (SLO %.1f ms), %lld busy "
               "retries\n",
               socket_rps, socket_p99_ms, socket_slo_ms,
               static_cast<long long>(socket_busy));

  // -- thread-scaling curve for the two engine entry points (full mode).
  struct ScaleRow {
    std::string mode;
    int threads;
    double masks_per_s;
  };
  std::vector<ScaleRow> scale_rows;
  if (!quick) {
    std::vector<int> thread_counts = {1, 2, hw_threads};
    std::sort(thread_counts.begin(), thread_counts.end());
    thread_counts.erase(
        std::unique(thread_counts.begin(), thread_counts.end()),
        thread_counts.end());
    std::vector<Tensor> batch(masks.begin(), masks.begin() + kConcurrency);
    const Tensor large = random_mask(2 * cfg.tile, 99);
    for (int threads : thread_counts) {
      runtime::InferenceEngine scaled(cfg, /*seed=*/42,
                                      runtime::EngineOptions{threads});
      auto best_of_3 = [](auto&& fn) {
        fn();  // warm-up
        double best = 1e30;
        for (int i = 0; i < 3; ++i) best = std::min(best, bench::seconds(fn));
        return best;
      };
      scale_rows.push_back(
          {"predict_batch", threads,
           kConcurrency / best_of_3([&] { (void)scaled.predict_batch(batch); })});
      scale_rows.push_back(
          {"predict_large", threads,
           1.0 / best_of_3([&] { (void)scaled.predict_large(large); })});
      std::fprintf(stderr, "measured %d thread(s)\n", threads);
    }
  }

  // With a real pool a batch runs one sample per lane, free of the
  // per-kernel fork/join a lone sample pays, and the scheduler must
  // deliver >= 2x; on 1-2 cores batching can only break even, so the gate
  // degrades to no-regression — as it does in --quick mode, where
  // shared-runner noise makes a speedup target flaky.
  const double required = (!quick && hw_threads >= 4) ? 2.0 : 0.85;
  const double speedup = scheduled_rps / serial_rps;
  // Tracing must cost <= 5% throughput; --quick loosens to 15% because a
  // 32-request run on a shared runner has that much timer noise untraced.
  const double required_overhead = quick ? 0.85 : 0.95;
  // Socket mode re-runs the same compute behind framing + loopback TCP:
  // half of serial throughput is the floor, and the closed-loop p99 must
  // meet the SLO.
  const double required_socket_ratio = 0.5;
  const double socket_ratio = socket_rps / std::max(serial_rps, 1e-9);
  const bool socket_pass = socket_identical &&
                           socket_ratio >= required_socket_ratio &&
                           socket_p99_ms <= socket_slo_ms;
  const bool pass = identical && speedup >= required &&
                    tracing_overhead >= required_overhead && socket_pass;

  std::string json;
  char buf[512];
  auto emit = [&json, &buf](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    json += buf;
  };
  emit("{\n");
  emit("  \"bench\": \"serve_throughput\",\n");
  emit("  \"quick\": %s,\n", quick ? "true" : "false");
  emit("  \"tile_px\": %lld,\n", static_cast<long long>(cfg.tile));
  emit("  \"requests\": %zu,\n", requests);
  emit("  \"concurrency\": %d,\n", kConcurrency);
  emit("  \"hardware_threads\": %d,\n", hw_threads);
  emit("  \"max_batch\": %d,\n", sched_opts.max_batch);
  emit("  \"max_delay_us\": %lld,\n",
       static_cast<long long>(sched_opts.max_delay_us));
  emit("  \"serial_reqs_per_s\": %.3f,\n", serial_rps);
  emit("  \"scheduled_reqs_per_s\": %.3f,\n", scheduled_rps);
  emit("  \"scheduled_speedup\": %.3f,\n", speedup);
  emit("  \"scheduled_batches\": %lld,\n",
       static_cast<long long>(sched.batches));
  emit("  \"scheduled_avg_batch\": %.3f,\n",
       sched.batches > 0 ? static_cast<double>(sched.batched_requests) /
                               static_cast<double>(sched.batches)
                         : 0.0);
  emit("  \"max_queue_depth\": %lld,\n",
       static_cast<long long>(sched.max_queue_depth));
  emit("  \"latency_ms_p50\": %.3f,\n", sched.latency_ms_p50);
  emit("  \"latency_ms_p99\": %.3f,\n", sched.latency_ms_p99);
  emit("  \"socket_reqs_per_s\": %.3f,\n", socket_rps);
  emit("  \"socket_ratio_vs_serial\": %.3f,\n", socket_ratio);
  emit("  \"required_socket_ratio\": %.2f,\n", required_socket_ratio);
  emit("  \"socket_p99_ms\": %.3f,\n", socket_p99_ms);
  emit("  \"socket_slo_ms\": %.3f,\n", socket_slo_ms);
  emit("  \"socket_busy_retries\": %lld,\n",
       static_cast<long long>(socket_busy));
  emit("  \"socket_bitwise_identical\": %s,\n",
       socket_identical ? "true" : "false");
  emit("  \"traced_reqs_per_s\": %.3f,\n", traced_rps);
  emit("  \"trace_dropped_events\": %llu,\n",
       static_cast<unsigned long long>(trace_dropped));
  emit("  \"tracing_overhead\": %.3f,\n", tracing_overhead);
  emit("  \"required_tracing_overhead\": %.2f,\n", required_overhead);
  emit("  \"bitwise_identical\": %s,\n", identical ? "true" : "false");
  emit("  \"required_speedup\": %.2f,\n", required);
  emit("  \"pass\": %s,\n", pass ? "true" : "false");
  emit("  \"stage_breakdown\": [\n");
  for (size_t i = 0; i < stages.size(); ++i) {
    const StageRow& s = stages[i];
    emit("    {\"stage\": \"%s\", \"count\": %lld, \"p50_ms\": %.3f, "
         "\"p99_ms\": %.3f, \"total_ms\": %.1f}%s\n",
         s.name.c_str(), static_cast<long long>(s.count), s.p50_ms, s.p99_ms,
         s.total_ms, i + 1 < stages.size() ? "," : "");
  }
  emit("  ],\n");
  emit("  \"thread_scaling\": [\n");
  for (size_t i = 0; i < scale_rows.size(); ++i) {
    const ScaleRow& r = scale_rows[i];
    emit("    {\"mode\": \"%s\", \"threads\": %d, \"masks_per_s\": %.3f}%s\n",
         r.mode.c_str(), r.threads, r.masks_per_s,
         i + 1 < scale_rows.size() ? "," : "");
  }
  emit("  ]\n}\n");

  std::fputs(json.c_str(), stdout);
  if (std::FILE* f = std::fopen("BENCH_serve.json", "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote BENCH_serve.json\n");
  }
  if (!pass) {
    std::fprintf(stderr,
                 "FAIL: scheduled %.2fx vs serial (required >= %.2fx at %d "
                 "hardware threads), traced %.3fx of untraced (required >= "
                 "%.2fx), socket %.2fx vs serial (required >= %.2fx) p99 "
                 "%.1f ms (SLO %.1f ms)%s%s\n",
                 speedup, required, hw_threads, tracing_overhead,
                 required_overhead, socket_ratio, required_socket_ratio,
                 socket_p99_ms, socket_slo_ms,
                 identical ? "" : "; results differ",
                 socket_identical ? "" : "; socket results differ");
    return 1;
  }
  return 0;
}
