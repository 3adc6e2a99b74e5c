#pragma once
// Shared pieces of the benchmark driver: options, the result report, the
// runtime + IPC environment each workload runs against, and phase
// snapshots of the public telemetry (Runtime::stats(), Runtime::metrics(),
// runtime_overhead_s() and the METRICS verb).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cedr/common/status.h"
#include "cedr/ipc/ipc.h"
#include "cedr/json/json.h"
#include "cedr/runtime/runtime.h"
#include "recorder.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Host context passed in by run.py.
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  /// The one CPU the process runs on (pin_to_one_cpu()); -1 if unpinned.
  int cpu = -1;
};

/// Metrics in print order, plus failure accounting.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Counts one failed operation; the first few reasons are kept.
  void fail(const std::string& reason);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& reasons() const noexcept {
    return reasons_;
  }
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] const std::vector<std::pair<std::string,
                                            std::pair<double, std::string>>>&
  metrics() const noexcept {
    return metrics_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// One set-up of the system under test: a runtime configured as the daemon
/// ships it, its IPC server, and one control connection.
class Env {
 public:
  Env(const std::string& scheduler, std::string socket_path);
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  ~Env();

  /// Starts the runtime and server and opens the control connection.
  cedr::Status start();

  cedr::rt::Runtime& runtime() { return *runtime_; }
  cedr::ipc::IpcClient& control() { return *control_; }
  [[nodiscard]] const std::string& socket_path() const noexcept {
    return socket_path_;
  }

 private:
  std::string socket_path_;
  std::unique_ptr<cedr::rt::Runtime> runtime_;
  std::unique_ptr<cedr::ipc::IpcServer> server_;
  std::unique_ptr<cedr::ipc::IpcClient> control_;
};

/// Counters and gauges read through the METRICS verb.
struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  [[nodiscard]] double counter(const std::string& name) const;
  [[nodiscard]] double gauge(const std::string& name) const;
};

/// Issues METRICS on the control connection, timing the call into
/// `rtt_us` and the recorder.
cedr::StatusOr<MetricsSnapshot> read_metrics(cedr::ipc::IpcClient& control,
                                             SpanRecorder& rec,
                                             std::vector<double>& rtt_us);

/// Issues STATS on the control connection, timing it likewise.
cedr::Status read_stats(cedr::ipc::IpcClient& control, SpanRecorder& rec,
                        std::vector<double>& rtt_us);

/// Process CPU seconds, the calling thread's CPU seconds and peak resident
/// set size.
double process_cpu_s();
double thread_cpu_s();
double rss_peak_mb();

/// Public-telemetry snapshot bracketing a measured phase.
struct PhaseMark {
  double cpu_s = 0.0;
  double generator_cpu_s = 0.0;  ///< the generator thread's own CPU time
  double overhead_s = 0.0;
  cedr::rt::RuntimeStats stats;
  MetricsSnapshot metrics;
};

/// Everything a workload hands to the shared per-layer computation.
struct LayerInputs {
  PhaseMark begin;
  PhaseMark end;
  std::vector<double> stats_rtt_us;
  std::vector<double> metrics_rtt_us;
  std::vector<double> ready_depth;  ///< sampled Runtime::stats().ready_tasks
  std::vector<double> inflight;     ///< sampled Runtime::stats().inflight
  std::uint64_t completed_apps = 0;
};

/// Resets the runtime histograms the per-layer metrics read, so they
/// describe the measured phase only.
void reset_runtime_histograms(cedr::rt::Runtime& runtime);

/// Takes a phase mark (reads METRICS on the control connection).
cedr::StatusOr<PhaseMark> mark_phase(cedr::rt::Runtime& runtime,
                                     cedr::ipc::IpcClient& control,
                                     SpanRecorder& rec,
                                     std::vector<double>& metrics_rtt_us);

/// Adds the runtime.*, sched.*, ipc.* and shm.doorbell/drain metrics
/// derived from public telemetry over the phase.
void add_runtime_layers(Report& report, cedr::rt::Runtime& runtime,
                        LayerInputs& in);

/// Standalone CEDR_* timings on the calling (unbound) thread: the
/// kernels.* metrics.
void add_kernel_layers(Report& report, SpanRecorder& rec);

/// Runs a bench-owned probe application issuing `calls` blocking
/// CEDR_FFT(256) on the runtime and adds the api.call_* metrics. The
/// runtime histograms are reset first, so the probe's own queue delay and
/// service time give the call's waterfall.
void add_api_probe_layers(Report& report, cedr::rt::Runtime& runtime,
                          SpanRecorder& rec, int calls);

/// Restricts the calling thread, and so every thread it starts later, to
/// the last CPU it may run on. Returns that CPU, or -1 if it cannot.
int pin_to_one_cpu();

/// Header line with host context for span files and logs.
std::string context_line(const Options& opt);

}  // namespace perfbench
