// Repository benchmark driver: completed applications per second and
// submit -> complete latency of the CEDR runtime under the API and DAG
// programming models, with per-layer numbers timed from outside the
// runtime.
//
// usage: cedr_perfbench --workload api_pdtx|dag_small|dag_wide --seed N
//                       --seconds S --trace 0|1 [--commit C]
//                       [--source-digest D]
//
// The whole process runs on one CPU (pin_to_one_cpu()): on a shared
// virtual host, hand-offs between threads on different CPUs wait for the
// host to run each CPU, which made throughput swing threefold from run to
// run; on one CPU they cost a context switch. Every measured phase follows
// a warm-up of a fixed number of tasks on the same set-up. The end-to-end
// throughput and p50 latency are taken over windows of the phase (see
// windowed()).
//
// With --trace 0 one measured phase gives the end-to-end metrics. With
// --trace 1 an untraced phase and then a traced phase (bench-side span
// recorder on) run, each on a fresh set-up; the traced phase gives the
// per-layer metrics, and the two phases' CPU time per app gives the
// recorder's overhead. The last line of stdout is the JSON result; the
// process exits non-zero if any operation failed or any output check did
// not pass.
// perfbench/README.md lists every metric with its layer and workload.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/// Directory (relative to the working directory, i.e. inside the checkout)
/// for the server socket and the span files.
constexpr const char* kOutDir = ".bench_out";

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed, in this order, by --trace 0. Must match BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"apps_per_s", "1/s"},
    {"tasks_per_s", "1/s"},  {"latency_ms_p50", "ms"},
    {"cpu_ms_per_app", "ms"}, {"rss_after_warmup_mb", "MB"},
};

// Printed, in this order, by --trace 1. Must match BENCHMARK.json. A layer
// a workload does not exercise reads 0 there (see README.md).
constexpr MetricDef kPerLayer[] = {
    {"kernels.fft256_us", "us"},
    {"kernels.ifft128_us", "us"},
    {"kernels.fft1024_us", "us"},
    {"kernels.zip1024_us", "us"},
    {"api.call_rtt_us_p50", "us"},
    {"api.call_rtt_us_p99", "us"},
    {"api.call_overhead_us", "us"},
    {"api.call_queue_delay_us_p50", "us"},
    {"api.call_service_us_p50", "us"},
    {"api.submit_us", "us"},
    {"api.app_start_us_p50", "us"},
    {"runtime.queue_delay_us_p50", "us"},
    {"runtime.queue_delay_us_p99", "us"},
    {"runtime.service_time_us_p50", "us"},
    {"runtime.instantiate_us_p50", "us"},
    {"runtime.instantiate_us_p99", "us"},
    {"runtime.complete_publish_us_p50", "us"},
    {"runtime.overhead_ms_per_app", "ms"},
    {"runtime.ready_depth_mean", "count"},
    {"runtime.inflight_mean", "count"},
    {"runtime.pe_busy_fraction.cpu0", "fraction"},
    {"runtime.pe_busy_fraction.cpu1", "fraction"},
    {"runtime.pe_busy_fraction.fft0", "fraction"},
    {"runtime.unattributed_us_p50", "us"},
    {"sched.decision_us_p50", "us"},
    {"sched.decision_us_p99", "us"},
    {"sched.decision_s_total", "s"},
    {"sched.rounds", "count"},
    {"sched.tasks_per_round", "count"},
    {"sched.lookahead_round_us_p50", "us"},
    {"sched.lookahead_round_us_p99", "us"},
    {"sched.reservation_hit_ratio", "ratio"},
    {"sched.reservations_made", "count"},
    {"sched.lock_wait_us_p99", "us"},
    {"shm.submit_us_p50", "us"},
    {"shm.submit_us_p99", "us"},
    {"shm.ack_us_p50", "us"},
    {"shm.ack_us_p99", "us"},
    {"shm.full_ring_waits", "count"},
    {"shm.doorbell_wakes", "count"},
    {"shm.drain_batch_p50", "count"},
    {"apps.template_hit_ratio", "ratio"},
    {"apps.template_lookups", "count"},
    {"apps.cold_ack_us", "us"},
    {"apps.latency_ms_p99", "ms"},
    {"apps.admitted_per_s", "1/s"},
    {"apps.failed_ratio", "ratio"},
    {"apps.pd_latency_ms_p50", "ms"},
    {"apps.pd_latency_ms_p95", "ms"},
    {"apps.tx_latency_ms_p50", "ms"},
    {"apps.tx_latency_ms_p99", "ms"},
    {"ipc.shmopen_us", "us"},
    {"ipc.stats_rtt_us_p50", "us"},
    {"ipc.stats_rtt_us_p99", "us"},
    {"ipc.metrics_rtt_us_p99", "us"},
    {"obs.tracing_overhead_pct", "%"},
    {"gen.lag_ms_p99", "ms"},
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload api_pdtx|dag_small|dag_wide --seed N "
               "--seconds S --trace 0|1 [--commit C] [--source-digest D]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") opt.workload = value;
    else if (arg == "--seed") opt.seed = std::strtoull(value, nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::strtod(value, nullptr);
    else if (arg == "--trace") opt.trace = std::strcmp(value, "0") != 0;
    else if (arg == "--commit") opt.commit = value;
    else if (arg == "--source-digest") opt.source_digest = value;
    else usage(argv[0]);
  }
  if (opt.workload.empty() || !(opt.seconds > 0.0)) {
    usage(argv[0]);
  }
  return opt;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "api_pdtx") return make_api_pdtx(opt.seed);
  if (opt.workload == "dag_small") return make_dag_small(opt.seed);
  if (opt.workload == "dag_wide") return make_dag_wide(opt.seed);
  return nullptr;
}

/// Tasks of the unmeasured warm-up before each measured phase: a fixed
/// amount of work, so the runtime's state after it (pools, caches, the
/// TraceLog) and rss_after_warmup_mb do not follow the host's speed. Far
/// from a power of two, so the few tasks of the apps still in flight when
/// the budget is reached cannot move the TraceLog across a doubling.
constexpr std::uint64_t kWarmupTasks = 50000;
/// A warm-up that has not reached kWarmupTasks by then is a failure.
constexpr double kWarmupCapS = 30.0;

/// Runs the fixed-work warm-up on `env`.
void warm_up(Workload& wl, Env& env, Report& report) {
  SpanRecorder off(false);
  const PhaseResult r = wl.run_phase(env, kWarmupCapS, off, report,
                                     kWarmupTasks);
  if (r.expected_tasks < kWarmupTasks) {
    report.fail("warm-up completed " + std::to_string(r.expected_tasks) +
                " of " + std::to_string(kWarmupTasks) + " tasks in " +
                std::to_string(static_cast<int>(kWarmupCapS)) + " s");
  }
}

/// Runs one measured phase bracketed by telemetry marks.
PhaseResult measure(Workload& wl, Env& env, double seconds, SpanRecorder& rec,
                    Report& report) {
  reset_runtime_histograms(env.runtime());
  std::vector<double> metrics_rtt;
  auto begin = mark_phase(env.runtime(), env.control(), rec, metrics_rtt);
  PhaseResult r = wl.run_phase(env, seconds, rec, report, 0);
  auto end = mark_phase(env.runtime(), env.control(), rec, metrics_rtt);
  if (!begin.ok() || !end.ok()) {
    report.fail("METRICS: " +
                (begin.ok() ? end.status() : begin.status()).to_string());
    return r;
  }
  r.layers.begin = *std::move(begin);
  r.layers.end = *std::move(end);
  r.layers.metrics_rtt_us.insert(r.layers.metrics_rtt_us.end(),
                                 metrics_rtt.begin(), metrics_rtt.end());
  r.layers.completed_apps = r.completed;
  // Output check: the runtime executed exactly the completed apps' tasks.
  const std::uint64_t executed = r.layers.end.stats.tasks_executed -
                                 r.layers.begin.stats.tasks_executed;
  if (executed != r.expected_tasks) {
    report.fail("runtime executed " + std::to_string(executed) +
                " tasks, the completed apps account for " +
                std::to_string(r.expected_tasks));
  }
  return r;
}

/// p99 latency as the median (mean of the middle two for an even count)
/// over up to five consecutive groups of completions (in completion order),
/// each big enough to keep ten samples beyond its p99. One stall then moves
/// one group, not the whole figure.
double windowed_p99(const PhaseResult& r, int* groups_out) {
  constexpr std::size_t kMaxGroups = 5;
  constexpr std::size_t kMinGroupSize = 1000;
  std::vector<std::size_t> order(r.latency_ms.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return r.done_s[a] < r.done_s[b];
  });
  const std::size_t groups =
      std::clamp<std::size_t>(order.size() / kMinGroupSize, 1, kMaxGroups);
  std::vector<double> p99s;
  for (std::size_t g = 0; g < groups; ++g) {
    std::vector<double> values;
    for (std::size_t i = g * order.size() / groups;
         i < (g + 1) * order.size() / groups; ++i) {
      values.push_back(r.latency_ms[order[i]]);
    }
    p99s.push_back(quantile(values, 0.99));
  }
  *groups_out = static_cast<int>(groups);
  std::sort(p99s.begin(), p99s.end());
  const std::size_t mid = p99s.size() / 2;
  return p99s.size() % 2 == 1 ? p99s[mid] : (p99s[mid - 1] + p99s[mid]) / 2;
}

/// About one window per this many seconds of phase.
constexpr double kWindowS = 1.0;

/// The phase's completions (the workloads record them in completion
/// order) split into windows of equal count, about one per `kWindowS`.
/// Each window gives its apps and tasks over the time since the previous
/// window's last completion, and the p50 latency of its apps. The
/// end-to-end figures are the means of the middle half of the windows: a
/// host stall of a few seconds moves a few windows, not the run's figure,
/// while slower swings of the host's speed are averaged over the run.
struct Windows {
  std::vector<double> apps_per_s;
  std::vector<double> tasks_per_s;
  std::vector<double> p50_ms;
};

Windows windowed(const PhaseResult& r) {
  const std::size_t n = r.done_s.size();
  const std::size_t count = std::clamp<std::size_t>(
      static_cast<std::size_t>(r.elapsed_s / kWindowS), 1,
      std::max<std::size_t>(n, 1));
  Windows out;
  double from_s = 0.0;
  for (std::size_t w = 0; w < count; ++w) {
    const std::size_t lo = w * n / count;
    const std::size_t hi = (w + 1) * n / count;
    if (hi == lo) continue;
    double tasks = 0.0;
    std::vector<double> latency;
    for (std::size_t i = lo; i < hi; ++i) {
      tasks += r.done_tasks[i];
      latency.push_back(r.latency_ms[i]);
    }
    const double span_s = r.done_s[hi - 1] - from_s;
    from_s = r.done_s[hi - 1];
    if (span_s <= 0.0) continue;
    out.apps_per_s.push_back(static_cast<double>(hi - lo) / span_s);
    out.tasks_per_s.push_back(tasks / span_s);
    out.p50_ms.push_back(quantile(latency, 0.50));
  }
  return out;
}

/// Process CPU time over the phase per completed application.
double phase_cpu_ms_per_app(const PhaseResult& r) {
  return (r.layers.end.cpu_s - r.layers.begin.cpu_s) * 1e3 /
         static_cast<double>(std::max<std::uint64_t>(r.completed, 1));
}

void print_result(const Report& report, const MetricDef* defs,
                  std::size_t count) {
  std::string out = "{\"correct\": ";
  out += report.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted());
  out += ", \"failed\": " + std::to_string(report.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < count; ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.12g", report.get(defs[i].name));
    if (i > 0) out += ", ";
    out += "\"" + std::string(defs[i].name) + "\": {\"value\": " + value +
           ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  opt.cpu = pin_to_one_cpu();
  std::unique_ptr<Workload> wl = make_workload(opt);
  if (!wl) usage(argv[0]);
  const std::string out_dir = kOutDir;
  ::mkdir(out_dir.c_str(), 0755);
  std::printf("context: %s\n", context_line(opt).c_str());

  SpanRecorder untraced(false);
  SpanRecorder traced(opt.trace);
  Report report;

  // Set-up, repeated; the last one is kept for the measured phase.
  const std::string socket =
      out_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
  std::unique_ptr<Env> env;
  const auto set_up = [&](int rep) {
    if (env) {
      wl->teardown();
      env.reset();
    }
    ::unlink(socket.c_str());
    env = std::make_unique<Env>(wl->scheduler(), socket);
    cedr::Status s = env->start();
    if (s.ok()) s = wl->setup(*env, rep, traced, report);
    if (!s.ok()) report.fail("set-up: " + s.to_string());
    return s.ok();
  };
  std::vector<double> setup_s;
  for (int rep = 0; rep < wl->setup_reps(); ++rep) {
    const auto t0 = Clock::now();
    if (!set_up(rep)) break;
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  if (report.failed() == 0) {
    warm_up(*wl, *env, report);
    const double rss_after_warmup_mb = rss_peak_mb();
    PhaseResult base = measure(*wl, *env, opt.seconds, untraced, report);
    const double apps_per_s =
        base.elapsed_s > 0.0 ? static_cast<double>(base.completed) /
                                   base.elapsed_s
                             : 0.0;
    std::vector<double> latency = base.latency_ms;
    int p99_groups = 0;
    const double p99_ms = windowed_p99(base, &p99_groups);
    const double failed_ratio =
        report.attempted() > 0 ? static_cast<double>(report.failed()) /
                                     static_cast<double>(report.attempted())
                               : 0.0;
    const double cpu_ms_per_app = phase_cpu_ms_per_app(base);
    const double generator_cpu_pct =
        base.elapsed_s > 0.0 ? (base.layers.end.generator_cpu_s -
                                base.layers.begin.generator_cpu_s) /
                                   base.elapsed_s * 100.0
                             : 0.0;
    std::printf(
        "phase: apps=%llu admitted=%llu elapsed_s=%.3f apps_per_s=%.2f "
        "latency_samples=%zu p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f "
        "(median of %d groups) whole_run_p99_ms=%.3f max_ms=%.3f "
        "failed_ratio=%.6f generator_cpu_pct=%.1f rss_after_warmup_mb=%.1f "
        "rss_run_peak_mb=%.1f\n",
        static_cast<unsigned long long>(base.completed),
        static_cast<unsigned long long>(base.admitted), base.elapsed_s,
        apps_per_s, latency.size(), quantile(latency, 0.50),
        quantile(latency, 0.95), p99_ms, p99_groups, quantile(latency, 0.99),
        quantile(latency, 1.0), failed_ratio, generator_cpu_pct,
        rss_after_warmup_mb, rss_peak_mb());
    const Windows windows = windowed(base);
    {
      auto apps_w = windows.apps_per_s;
      auto p50_w = windows.p50_ms;
      std::printf(
          "windows: %zu of ~%.0f s, apps_per_s min=%.2f iqm=%.2f max=%.2f, "
          "p50_ms min=%.3f iqm=%.3f max=%.3f\n",
          apps_w.size(), kWindowS, quantile(apps_w, 0.0),
          interquartile_mean(apps_w), quantile(apps_w, 1.0),
          quantile(p50_w, 0.0), interquartile_mean(p50_w),
          quantile(p50_w, 1.0));
    }
    for (auto& [cls, values] : base.class_latency_ms) {
      std::printf("class %s: apps=%zu latency_ms p50=%.3f p95=%.3f p99=%.3f\n",
                  cls.c_str(), values.size(), quantile(values, 0.50),
                  quantile(values, 0.95), quantile(values, 0.99));
    }
    if (!opt.trace) {
      report.set("setup_s", median(setup_s), "s");
      // An open loop's rate is its schedule's; each window would only add
      // the arrivals' own noise.
      const double tasks = static_cast<double>(base.expected_tasks);
      report.set("apps_per_s",
                 wl->open_loop() ? apps_per_s
                                 : interquartile_mean(windows.apps_per_s),
                 "1/s");
      report.set("tasks_per_s",
                 wl->open_loop()
                     ? (base.elapsed_s > 0.0 ? tasks / base.elapsed_s : 0.0)
                     : interquartile_mean(windows.tasks_per_s),
                 "1/s");
      report.set("latency_ms_p50", interquartile_mean(windows.p50_ms), "ms");
      report.set("cpu_ms_per_app", cpu_ms_per_app, "ms");
      report.set("rss_after_warmup_mb", rss_after_warmup_mb, "MB");
    } else if (set_up(wl->setup_reps())) {
      // The traced phase runs on a set-up of its own, so both phases start
      // from the same runtime state (its TraceLog grows with every task).
      for (const MetricDef& d : kPerLayer) report.set(d.name, 0.0, d.unit);
      warm_up(*wl, *env, report);
      PhaseResult r = measure(*wl, *env, opt.seconds, traced, report);
      add_runtime_layers(report, env->runtime(), r.layers);
      int traced_groups = 0;
      report.set("apps.latency_ms_p99", windowed_p99(r, &traced_groups), "ms");
      report.set("apps.admitted_per_s",
                 r.elapsed_s > 0.0 ? static_cast<double>(r.admitted) /
                                         r.elapsed_s
                                   : 0.0,
                 "1/s");
      wl->add_layers(r, report);
      add_kernel_layers(report, traced);
      add_api_probe_layers(report, env->runtime(), traced, 2000);
      // CPU per app, not throughput: dag_wide's schedule fixes its
      // throughput whatever the recorder costs.
      report.set("obs.tracing_overhead_pct",
                 cpu_ms_per_app > 0.0
                     ? (phase_cpu_ms_per_app(r) - cpu_ms_per_app) /
                           cpu_ms_per_app * 100.0
                     : 0.0,
                 "%");
      report.set("apps.failed_ratio",
                 report.attempted() > 0
                     ? static_cast<double>(report.failed()) /
                           static_cast<double>(report.attempted())
                     : 0.0,
                 "ratio");
      std::printf("layer self times (traced phase and probes, %zu spans):\n",
                  traced.size());
      for (const auto& [name, t] : traced.layer_times()) {
        std::printf("  %-18s count=%-8llu total_s=%.6f self_s=%.6f\n",
                    name.c_str(), static_cast<unsigned long long>(t.count),
                    t.total_s, t.self_s);
      }
      const std::string path = out_dir + "/spans_" + opt.workload +
                               "_seed" + std::to_string(opt.seed) + ".tsv";
      if (!traced.write(path, context_line(opt))) {
        report.fail("cannot write " + path);
      } else {
        std::printf("spans written to %s\n", path.c_str());
      }
    }
  }

  if (env) {
    wl->teardown();
    env.reset();
  }
  ::unlink(socket.c_str());
  for (const std::string& reason : report.reasons()) {
    std::printf("FAILED: %s\n", reason.c_str());
  }
  if (report.attempted() == 0) report.attempt();
  if (opt.trace) {
    print_result(report, kPerLayer, std::size(kPerLayer));
  } else {
    print_result(report, kEndToEnd, std::size(kEndToEnd));
  }
  return report.failed() == 0 ? 0 : 1;
}
