#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <functional>
#include <sstream>
#include <thread>

#include "cedr/cedr.h"

namespace perfbench {

using namespace cedr;

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [n, v] : metrics_) {
    if (n == name) {
      v = {value, unit};
      return;
    }
  }
  metrics_.emplace_back(name, std::make_pair(value, unit));
}

void Report::fail(const std::string& reason) {
  ++failed_;
  if (reasons_.size() < 10) reasons_.push_back(reason);
}

double Report::get(const std::string& name) const {
  for (const auto& [n, v] : metrics_) {
    if (n == name) return v.first;
  }
  return 0.0;
}

namespace {

/// The runtime every workload runs against: cedr_daemon's defaults (host
/// platform with 2 CPU PEs + 1 emulated FFT device, default ObsConfig with
/// span tracing on and no sampler, default wait timeout and counters) with
/// the workload's scheduler.
rt::RuntimeConfig runtime_config(const std::string& scheduler) {
  rt::RuntimeConfig config;
  config.platform = platform::host(2, 1, 0);
  config.scheduler = scheduler;
  return config;
}

}  // namespace

Env::Env(const std::string& scheduler, std::string socket_path)
    : socket_path_(std::move(socket_path)),
      runtime_(std::make_unique<rt::Runtime>(runtime_config(scheduler))) {}

Env::~Env() {
  control_.reset();
  if (server_) server_->stop();
  (void)runtime_->shutdown();
}

Status Env::start() {
  CEDR_RETURN_IF_ERROR(runtime_->start());
  // Default IpcServerConfig, as cedr_daemon runs without flags.
  server_ = std::make_unique<ipc::IpcServer>(*runtime_, socket_path_);
  CEDR_RETURN_IF_ERROR(server_->start());
  control_ = std::make_unique<ipc::IpcClient>(socket_path_);
  auto status = control_->status();
  return status.ok() ? Status::Ok() : status.status();
}

double MetricsSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double MetricsSnapshot::gauge(const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

StatusOr<MetricsSnapshot> read_metrics(ipc::IpcClient& control,
                                       SpanRecorder& rec,
                                       std::vector<double>& rtt_us) {
  const auto t0 = Clock::now();
  auto doc = control.metrics();
  const auto t1 = Clock::now();
  rec.record("ipc.metrics", t0, t1);
  rtt_us.push_back(seconds_between(t0, t1) * 1e6);
  if (!doc.ok()) return doc.status();
  MetricsSnapshot out;
  if (const json::Value* counters = doc->find("counters");
      counters != nullptr && counters->is_object()) {
    for (const auto& [name, value] : counters->as_object()) {
      if (value.is_number()) out.counters[name] = value.as_double();
    }
  }
  if (const json::Value* metrics = doc->find("metrics"); metrics != nullptr) {
    if (const json::Value* gauges = metrics->find("gauges");
        gauges != nullptr && gauges->is_object()) {
      for (const auto& [name, value] : gauges->as_object()) {
        if (value.is_number()) out.gauges[name] = value.as_double();
      }
    }
  }
  return out;
}

Status read_stats(ipc::IpcClient& control, SpanRecorder& rec,
                  std::vector<double>& rtt_us) {
  const auto t0 = Clock::now();
  auto line = control.stats();
  const auto t1 = Clock::now();
  rec.record("ipc.stats", t0, t1);
  rtt_us.push_back(seconds_between(t0, t1) * 1e6);
  return line.ok() ? Status::Ok() : line.status();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

namespace {

constexpr const char* kRuntimeHistograms[] = {
    "queue_delay_us",      "service_time_us",    "sched_decision_us",
    "instantiate_us",      "complete_publish_us", "lookahead_round_us",
    "sched_lock_wait_us",  "shm_drain_batch",
};

obs::QuantileHistogram& hist(rt::Runtime& runtime, const char* name) {
  return runtime.metrics().histogram(name);
}

}  // namespace

void reset_runtime_histograms(rt::Runtime& runtime) {
  for (const char* name : kRuntimeHistograms) hist(runtime, name).reset();
}

StatusOr<PhaseMark> mark_phase(rt::Runtime& runtime, ipc::IpcClient& control,
                               SpanRecorder& rec,
                               std::vector<double>& metrics_rtt_us) {
  PhaseMark mark;
  auto metrics = read_metrics(control, rec, metrics_rtt_us);
  if (!metrics.ok()) return metrics.status();
  mark.metrics = *std::move(metrics);
  mark.stats = runtime.stats();
  mark.overhead_s = runtime.runtime_overhead_s();
  mark.cpu_s = process_cpu_s();
  mark.generator_cpu_s = thread_cpu_s();
  return mark;
}

void add_runtime_layers(Report& report, rt::Runtime& runtime,
                        LayerInputs& in) {
  const double apps = static_cast<double>(std::max<std::uint64_t>(
      in.completed_apps, 1));
  const double tasks = static_cast<double>(in.end.stats.tasks_executed -
                                           in.begin.stats.tasks_executed);
  auto& queue_delay = hist(runtime, "queue_delay_us");
  auto& service = hist(runtime, "service_time_us");
  auto& instantiate = hist(runtime, "instantiate_us");
  auto& publish = hist(runtime, "complete_publish_us");
  report.set("runtime.queue_delay_us_p50", queue_delay.quantile(0.50), "us");
  report.set("runtime.queue_delay_us_p99", queue_delay.quantile(0.99), "us");
  report.set("runtime.service_time_us_p50", service.quantile(0.50), "us");
  report.set("runtime.instantiate_us_p50", instantiate.quantile(0.50), "us");
  report.set("runtime.instantiate_us_p99", instantiate.quantile(0.99), "us");
  report.set("runtime.complete_publish_us_p50", publish.quantile(0.50), "us");
  report.set("runtime.overhead_ms_per_app",
             (in.end.overhead_s - in.begin.overhead_s) * 1e3 / apps, "ms");
  report.set("runtime.ready_depth_mean", mean(in.ready_depth), "count");
  report.set("runtime.inflight_mean", mean(in.inflight), "count");
  // Busy fraction over the phase from the lifetime fractions at its ends.
  const double span = in.end.stats.uptime_s - in.begin.stats.uptime_s;
  for (std::size_t i = 0; i < in.end.stats.pes.size(); ++i) {
    const auto& e = in.end.stats.pes[i];
    const double busy_end = e.busy_fraction * in.end.stats.uptime_s;
    const double busy_begin =
        i < in.begin.stats.pes.size()
            ? in.begin.stats.pes[i].busy_fraction * in.begin.stats.uptime_s
            : 0.0;
    report.set("runtime.pe_busy_fraction." + e.name,
               span > 0.0 ? (busy_end - busy_begin) / span : 0.0, "fraction");
  }

  auto& decision = hist(runtime, "sched_decision_us");
  auto& lookahead = hist(runtime, "lookahead_round_us");
  auto& lock_wait = hist(runtime, "sched_lock_wait_us");
  const MetricsSnapshot& b = in.begin.metrics;
  const MetricsSnapshot& e = in.end.metrics;
  const double rounds = e.counter("sched_rounds") - b.counter("sched_rounds");
  const double reservations = e.counter("sched.reservations_made") -
                              b.counter("sched.reservations_made");
  const double hits = e.counter("sched.reservation_hits") -
                      b.counter("sched.reservation_hits");
  report.set("sched.decision_us_p50", decision.quantile(0.50), "us");
  report.set("sched.decision_us_p99", decision.quantile(0.99), "us");
  report.set("sched.decision_s_total", decision.sum() * 1e-6, "s");
  report.set("sched.rounds", rounds, "count");
  report.set("sched.tasks_per_round", rounds > 0.0 ? tasks / rounds : 0.0,
             "count");
  report.set("sched.lookahead_round_us_p50", lookahead.quantile(0.50), "us");
  report.set("sched.lookahead_round_us_p99", lookahead.quantile(0.99), "us");
  report.set("sched.reservation_hit_ratio",
             reservations > 0.0 ? hits / reservations : 0.0, "ratio");
  report.set("sched.reservations_made", reservations, "count");
  report.set("sched.lock_wait_us_p99", lock_wait.quantile(0.99), "us");

  report.set("shm.doorbell_wakes",
             e.counter("shm.doorbell_wakes_total") -
                 b.counter("shm.doorbell_wakes_total"),
             "count");
  report.set("shm.drain_batch_p50",
             hist(runtime, "shm_drain_batch").quantile(0.5), "count");
  const double t_hits = e.gauge("runtime.template_cache_hits") -
                        b.gauge("runtime.template_cache_hits");
  const double t_misses = e.gauge("runtime.template_cache_misses") -
                          b.gauge("runtime.template_cache_misses");
  report.set("apps.template_hit_ratio",
             t_hits + t_misses > 0.0 ? t_hits / (t_hits + t_misses) : 0.0,
             "ratio");
  report.set("apps.template_lookups", t_hits + t_misses, "count");

  report.set("ipc.stats_rtt_us_p50", quantile(in.stats_rtt_us, 0.50), "us");
  report.set("ipc.stats_rtt_us_p99", quantile(in.stats_rtt_us, 0.99), "us");
  report.set("ipc.metrics_rtt_us_p99", quantile(in.metrics_rtt_us, 0.99),
             "us");
}

void add_kernel_layers(Report& report, SpanRecorder& rec) {
  // Inputs are fixed tones; the timing does not depend on their values.
  constexpr int kReps = 300;
  std::vector<cedr_cplx> a(1024);
  std::vector<cedr_cplx> b(1024);
  std::vector<cedr_cplx> out(1024);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = {std::cos(0.1f * static_cast<float>(i)), 0.5f};
    b[i] = {0.25f, std::sin(0.2f * static_cast<float>(i))};
  }
  struct Kernel {
    const char* metric;
    const char* span;
    std::function<Status()> call;
  };
  const Kernel kernels[] = {
      {"kernels.fft256_us", "kernels.fft256",
       [&] { return CEDR_FFT(a.data(), out.data(), 256); }},
      {"kernels.ifft128_us", "kernels.ifft128",
       [&] { return CEDR_IFFT(a.data(), out.data(), 128); }},
      {"kernels.fft1024_us", "kernels.fft1024",
       [&] { return CEDR_FFT(a.data(), out.data(), 1024); }},
      {"kernels.zip1024_us", "kernels.zip1024",
       [&] {
         return CEDR_ZIP(a.data(), b.data(), out.data(), 1024,
                         CedrZipOp::kConjugateMultiply);
       }},
  };
  for (const Kernel& k : kernels) {
    std::vector<double> us;
    us.reserve(kReps);
    for (int i = 0; i < kReps; ++i) {
      const auto t0 = Clock::now();
      const Status s = k.call();
      const auto t1 = Clock::now();
      rec.record(k.span, t0, t1);
      if (!s.ok()) {
        report.fail(std::string(k.span) + ": " + s.to_string());
        break;
      }
      us.push_back(seconds_between(t0, t1) * 1e6);
    }
    report.set(k.metric, median(us), "us");
  }
}

void add_api_probe_layers(Report& report, rt::Runtime& runtime,
                          SpanRecorder& rec, int calls) {
  // The probe runs as several short applications so submit and start
  // latency get more than one sample each.
  constexpr int kApps = 20;
  const int per_app = std::max(1, calls / kApps);
  reset_runtime_histograms(runtime);
  std::vector<double> rtt_us;
  std::vector<double> submit_us;
  std::vector<double> start_us;
  std::vector<cedr_cplx> buf(256);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = {static_cast<float>(i % 7), static_cast<float>(i % 5)};
  }
  for (int app = 0; app < kApps; ++app) {
    // Shared with the app thread, so a timed-out wait leaves it valid.
    struct Probe {
      std::vector<cedr_cplx> buf;
      std::vector<std::pair<Clock::time_point, Clock::time_point>> stamps;
      Clock::time_point started{};
      Status status = Status::Ok();
    };
    auto probe = std::make_shared<Probe>();
    probe->buf = buf;
    probe->stamps.reserve(static_cast<std::size_t>(per_app));
    const auto t0 = Clock::now();
    auto id = runtime.submit_api("perfbench_probe", [probe, per_app] {
      probe->started = Clock::now();
      for (int c = 0; c < per_app && probe->status.ok(); ++c) {
        const auto c0 = Clock::now();
        probe->status = CEDR_FFT(probe->buf.data(), probe->buf.data(),
                                 probe->buf.size());
        probe->stamps.emplace_back(c0, Clock::now());
      }
    });
    const auto t1 = Clock::now();
    report.attempt();
    if (!id.ok()) {
      report.fail("probe submit_api: " + id.status().to_string());
      continue;
    }
    const Status waited = runtime.wait_app(*id, 60.0);
    const auto t2 = Clock::now();
    if (!waited.ok()) {
      report.fail("probe app: " + waited.to_string());
      return;
    }
    // wait_app returned, so the app thread's writes are visible here.
    if (!probe->status.ok()) {
      report.fail("probe CEDR_FFT: " + probe->status.to_string());
      continue;
    }
    const std::uint32_t root = rec.record("app.probe", t0, t2, 0, *id);
    rec.record("api.submit", t0, t1, root, *id);
    rec.record("api.app_start", t0, probe->started, root, *id);
    for (const auto& [c0, c1] : probe->stamps) {
      rec.record("api.call", c0, c1, root, *id);
      rtt_us.push_back(seconds_between(c0, c1) * 1e6);
    }
    submit_us.push_back(seconds_between(t0, t1) * 1e6);
    start_us.push_back(seconds_between(t0, probe->started) * 1e6);
  }
  auto& queue_delay = hist(runtime, "queue_delay_us");
  auto& service = hist(runtime, "service_time_us");
  // The standalone (inline) time of the same call on this thread.
  std::vector<double> inline_us;
  for (int i = 0; i < 300; ++i) {
    const auto c0 = Clock::now();
    (void)CEDR_FFT(buf.data(), buf.data(), buf.size());
    inline_us.push_back(seconds_between(c0, Clock::now()) * 1e6);
  }
  const double rtt_p50 = quantile(rtt_us, 0.50);
  report.set("api.call_rtt_us_p50", rtt_p50, "us");
  report.set("api.call_rtt_us_p99", quantile(rtt_us, 0.99), "us");
  report.set("api.call_overhead_us", rtt_p50 - median(inline_us), "us");
  report.set("api.submit_us", median(submit_us), "us");
  report.set("api.app_start_us_p50", median(start_us), "us");
  report.set("api.call_queue_delay_us_p50", queue_delay.quantile(0.5), "us");
  report.set("api.call_service_us_p50", service.quantile(0.5), "us");
}

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return ::sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

std::string context_line(const Options& opt) {
  std::ostringstream out;
  out << "workload=" << opt.workload << " seed=" << opt.seed
      << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
      << " nproc=" << std::thread::hardware_concurrency()
      << " pinned_cpu=" << opt.cpu
      << " build_type=" << PERFBENCH_BUILD_TYPE
#ifdef __OPTIMIZE__
      << " optimized=1"
#else
      << " optimized=0(NON-OPTIMISED BUILD: timings are not comparable)"
#endif
      << " compiler=\"" << __VERSION__ << "\""
      << " commit=" << opt.commit << " source_digest=" << opt.source_digest;
  return out.str();
}

}  // namespace perfbench
