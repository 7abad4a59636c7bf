// doinn_serve — long-lived TCP serving front end for the DOINN inference
// runtime: one runtime::EnginePool behind the epoll server of
// src/net/server.h.
//
//   doinn_serve --weights weights.bin --listen <port> [--replicas 1]
//               [--precision fp32|int8] [tuning/observability flags]
//   doinn_serve --models registry.txt [--default-model NAME] --listen <port>
//               [tuning/observability flags]
//
// Every model is served through the same core, an EnginePool: --models
// reads a registry file (`<name> <checkpoint> [fp32|int8] [replicas]`
// per line; see src/runtime/engine_pool.h), and --weights is a one-line
// registry — model `default` at --precision with --replicas replicas.
// Replicas of a model share one set of prepacked weights, so extra
// replicas cost arenas, not weight memory. Within a model, requests go to
// the replica with the shortest queue.
//
// Clients send framed mask images and receive framed contours (see
// src/net/protocol.h; apps/doinn_client.cpp is a ready-made client).
// Protocol-v2 frames route by their model field; v1 frames and empty
// names go to --default-model (default: the registry's first entry).
// --listen 0 binds an ephemeral port; the `listening on port N` line on
// stdout reports it. Each replica's scheduler coalesces queued tile-sized
// masks into one predict_batch call (flushing on --max-batch or the
// --max-delay-us deadline) and routes oversized masks to the parallel
// large-tile path; results are bitwise identical to per-request predict
// however requests were coalesced or routed.
//
// Backpressure is reject-based: each replica queue holds --queue-cap
// requests, and a request that finds its replica full gets an immediate
// BUSY reply instead of blocking the event loop. SIGINT/SIGTERM or a
// client SHUTDOWN frame drain every accepted request and stop; the server
// then prints request counts, latency percentiles, throughput, and a
// per-model summary.
//
// Watching a request manifest is a client concern: `doinn_client --follow
// requests.txt` tails it, sends each line over the socket, and sends the
// SHUTDOWN frame on a `__shutdown__` line.
//
// Observability (docs/ARCHITECTURE.md "Observability"):
//   - `--trace-out trace.json` enables per-request tracing and writes a
//     Chrome Trace Event Format file on shutdown (view in chrome://tracing
//     or Perfetto; validate/summarize with scripts/trace_summary.py). Each
//     request gets an ingest id carried through serve.ingest ->
//     sched.queue_wait -> sched.dispatch -> serve.wait -> serve.write.
//   - `--metrics-out metrics.json` writes the global metrics registry
//     (serve.* and pool.<model>.* namespaces) on shutdown.
//   - SIGUSR1 dumps both files mid-run without stopping the server
//     (best-effort snapshots, polled every 50 ms; the shutdown dump is
//     exact).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "args.h"
#include "net/server.h"
#include "runtime/engine_pool.h"
#include "runtime/metrics_registry.h"
#include "runtime/trace.h"
#include "tensor/gemm.h"

using namespace litho;

namespace {

using Clock = std::chrono::steady_clock;

/// How often the event loop checks the SIGUSR1 dump flag.
constexpr int kDumpPollMs = 50;

// SIGUSR1 => dump trace + metrics on the next poll. The handler only
// flips an atomic flag; file I/O happens on the loop thread.
std::atomic<bool> g_dump_requested{false};

#ifdef SIGUSR1
extern "C" void on_sigusr1(int) {
  g_dump_requested.store(true, std::memory_order_relaxed);
}
#endif

// SIGINT/SIGTERM => stop and drain the socket server. Set before the
// handlers are installed; Server::stop() is async-signal-safe.
net::Server* g_server = nullptr;

extern "C" void on_terminate(int) {
  if (g_server != nullptr) g_server->stop();
}

/// Writes trace and/or metrics dumps for whichever outputs were requested.
void dump_observability(const std::string& trace_out,
                        const std::string& metrics_out) {
  if (!trace_out.empty() && runtime::trace::write_json(trace_out)) {
    std::fprintf(stderr, "doinn_serve: wrote trace to %s\n",
                 trace_out.c_str());
  }
  if (!metrics_out.empty() &&
      runtime::MetricsRegistry::global().write_json(metrics_out)) {
    std::fprintf(stderr, "doinn_serve: wrote metrics to %s\n",
                 metrics_out.c_str());
  }
}

void usage() {
  std::printf(
      "usage: doinn_serve --weights weights.bin --listen <port>\n"
      "                   [--replicas 1] [--precision fp32|int8]\n"
      "                   [tuning/observability flags]\n"
      "       doinn_serve --models registry.txt [--default-model NAME]\n"
      "                   --listen <port> [tuning/observability flags]\n"
      "tuning: [--threads N] [--no-graph-exec] [--no-autotune]\n"
      "        [--max-batch 8] [--max-delay-us 2000]\n"
      "        [--queue-cap 64] [--idle-timeout-s 60]\n"
      "observability: [--trace-out trace.json] [--metrics-out m.json]\n"
      "Serves the framed TCP protocol (port 0 binds an ephemeral port,\n"
      "printed on startup); drive it with doinn_client, whose --follow mode\n"
      "tails a request manifest. SIGINT/SIGTERM or a SHUTDOWN frame drain\n"
      "and stop. --models serves several models (and replicas) from one\n"
      "registry file (<name> <checkpoint> [fp32|int8] [replicas] per\n"
      "line); --weights serves one model named `default`. Replicas of a\n"
      "model share one set of prepacked weights; socket clients pick a\n"
      "model with the protocol-v2 model field (doinn_client --model).\n"
      "--max-batch/--max-delay-us tune request coalescing; --queue-cap\n"
      "bounds each replica's queue (a full queue answers BUSY).\n"
      "--precision selects the inference storage precision (fp32 is\n"
      "bitwise-exact; an int8 model packs every conv int8: reduced\n"
      "accuracy, usually faster).\n"
      "--no-graph-exec disables the compiled static-graph executor;\n"
      "--no-autotune skips load-time kernel autotuning (kernel knobs only;\n"
      "never changes output bits). --idle-timeout-s closes connections\n"
      "with no activity for that long (0 disables). --trace-out enables\n"
      "tracing and writes Chrome Trace Event JSON on shutdown;\n"
      "--metrics-out writes a metrics snapshot; SIGUSR1 dumps both mid-run.\n"
      "The startup banner names the GEMM kernel tier in use. See the header\n"
      "of apps/doinn_serve.cpp for details.\n");
}

/// Prints the per-model request/batch summary.
void print_pool_summary(const runtime::EnginePool& pool) {
  for (const runtime::ModelStats& m : pool.model_stats()) {
    std::printf(
        "model %s: %d replica%s, %lld requests (%lld errors, %lld "
        "rejected), %lld dispatches\n",
        m.name.c_str(), m.replicas, m.replicas == 1 ? "" : "s",
        static_cast<long long>(m.submitted),
        static_cast<long long>(m.failed), static_cast<long long>(m.rejected),
        static_cast<long long>(m.batches));
  }
}

/// The models to serve: the --models registry, or --weights as a one-line
/// registry. Empty (after an error message) when the registry lists none.
std::vector<runtime::ModelSpec> model_specs(const apps::Args& args,
                                            Precision precision) {
  if (args.has("models")) {
    std::vector<runtime::ModelSpec> specs =
        runtime::parse_model_registry(args.get("models"));
    if (specs.empty()) {
      std::fprintf(stderr, "error: model registry %s lists no models\n",
                   args.get("models").c_str());
    }
    return specs;
  }
  runtime::ModelSpec spec;
  spec.name = "default";
  spec.checkpoint = args.get("weights");
  spec.precision = precision;
  spec.replicas = static_cast<int>(args.get_positive_int("replicas", 1));
  return {spec};
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const apps::Args args(argc, argv, /*start=*/1);
    for (const char* gone : {"manifest", "results", "once", "poll-ms"}) {
      if (args.has(gone)) {
        std::fprintf(stderr,
                     "error: --%s was removed; doinn_serve speaks only the "
                     "socket protocol. Run it with --listen and tail the "
                     "manifest with `doinn_client --connect <host:port> "
                     "--follow <manifest> [--results F]`\n",
                     gone);
        return 2;
      }
    }
    const std::pair<const char*, const char*> retired[] = {
        {"int8-policy", "an int8 model packs every conv int8"},
        {"adaptive-delay", "a batch is held open for --max-delay-us"}};
    for (const auto& [flag, instead] : retired) {
      if (args.has(flag)) {
        std::fprintf(stderr, "error: --%s was removed; %s\n", flag, instead);
        return 2;
      }
    }
    if (args.get_bool("help") ||
        (!args.has("weights") && !args.has("models")) || !args.has("listen")) {
      usage();
      return args.get_bool("help") ? 0 : 2;
    }
    if (args.has("weights") && args.has("models")) {
      std::fprintf(stderr,
                   "error: --weights and --models are mutually exclusive\n");
      return 2;
    }
    const long port = args.get_int("listen", 0);
    if (port < 0 || port > 65535) {
      std::fprintf(stderr, "error: --listen port must be in [0, 65535]\n");
      return 2;
    }
    const std::string trace_out = args.get("trace-out", "");
    const std::string metrics_out = args.get("metrics-out", "");
    if (!trace_out.empty()) runtime::trace::set_enabled(true);
    runtime::trace::set_thread_name("serve-main");
#ifdef SIGUSR1
    std::signal(SIGUSR1, on_sigusr1);
#endif

    runtime::EnginePoolOptions pool_opts;
    auto& sched_opts = pool_opts.scheduler;
    sched_opts.max_batch = static_cast<int>(args.get_positive_int("max-batch", 8));
    sched_opts.max_delay_us = args.get_int("max-delay-us", 2000);
    sched_opts.queue_cap = static_cast<int>(args.get_positive_int(
        "queue-cap", std::max(64, 8 * sched_opts.max_batch)));
    if (sched_opts.max_delay_us < 0) {
      std::fprintf(stderr, "error: --max-delay-us must be >= 0\n");
      return 2;
    }
    if (sched_opts.queue_cap < sched_opts.max_batch) {
      std::fprintf(stderr, "error: --queue-cap must be >= --max-batch\n");
      return 2;
    }

    auto& opts = pool_opts.engine;
    opts.num_threads = static_cast<int>(args.get_int("threads", 0));
    opts.use_graph_executor = !args.get_bool("no-graph-exec");
    opts.autotune = !args.get_bool("no-autotune");
    try {
      opts.precision = parse_precision(args.get("precision", "fp32"));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }

    const std::vector<runtime::ModelSpec> specs =
        model_specs(args, opts.precision);
    if (specs.empty()) return 2;
    pool_opts.default_model = args.get("default-model", "");
    pool_opts.metrics = &runtime::MetricsRegistry::global();
    runtime::EnginePool pool(specs, pool_opts);
    std::string models_desc;
    for (const runtime::ModelSpec& spec : specs) {
      if (!models_desc.empty()) models_desc += ", ";
      models_desc += spec.name + " (" + precision_name(spec.precision) +
                     " x" + std::to_string(spec.replicas) + ")";
    }
    std::printf(
        "doinn_serve: %zu model%s [%s], default %s, %lld px tile, batch<=%d "
        "within %lld us, queue cap %d per replica, kernels %s\n",
        specs.size(), specs.size() == 1 ? "" : "s", models_desc.c_str(),
        pool.default_model().c_str(),
        static_cast<long long>(pool.config("").tile), sched_opts.max_batch,
        static_cast<long long>(sched_opts.max_delay_us), sched_opts.queue_cap,
        gemm_kernel_tier());

    net::ServerOptions server_opts;
    server_opts.port = static_cast<uint16_t>(port);
    const long idle_timeout_s = args.get_int("idle-timeout-s", 60);
    server_opts.idle_timeout_ms =
        idle_timeout_s > 0 ? static_cast<int>(idle_timeout_s * 1000) : 0;
    net::Server server(pool, server_opts, &runtime::MetricsRegistry::global());
    g_server = &server;
    std::signal(SIGINT, on_terminate);
    std::signal(SIGTERM, on_terminate);
    server.set_poll_handler(kDumpPollMs, [&] {
      if (g_dump_requested.exchange(false, std::memory_order_relaxed)) {
        dump_observability(trace_out, metrics_out);
      }
    });
    // perfbench, the net-smoke script and the tests parse this line for
    // the bound port.
    std::printf("doinn_serve: listening on port %u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    const auto t_start = Clock::now();
    server.run();  // drains its own pending futures before returning
    pool.shutdown();
    const double total_s =
        std::chrono::duration<double>(Clock::now() - t_start).count();
    // Quiescent now (dispatchers joined): this dump is exact.
    dump_observability(trace_out, metrics_out);

    const net::ServerStats stats = server.stats();
    std::printf(
        "served %lld requests (%lld errors, %lld busy-rejected, %lld "
        "protocol errors) over %lld connections in %.2f s\n",
        static_cast<long long>(stats.requests_ok),
        static_cast<long long>(stats.requests_error),
        static_cast<long long>(stats.busy_rejected),
        static_cast<long long>(stats.protocol_errors),
        static_cast<long long>(stats.connections_accepted), total_s);
    if (stats.requests_ok > 0) {
      const runtime::Histogram::Snapshot lat =
          server.metrics().histogram("serve.latency_ms").snapshot();
      std::printf("latency p50 %.1f ms, p99 %.1f ms; throughput %.2f req/s\n",
                  lat.p50, lat.p99,
                  static_cast<double>(stats.requests_ok) /
                      std::max(total_s, 1e-9));
    }
    print_pool_summary(pool);
    g_server = nullptr;
    return stats.requests_error == 0 && stats.protocol_errors == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
