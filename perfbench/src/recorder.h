#pragma once
// Bench-side span recorder and sample statistics.
//
// The recorder keeps spans in memory and writes them out when the run ends.
// Each span carries a name, start, end, parent span and application id, and
// wraps one call into a public runtime interface (submit_api, CEDR_*,
// ShmClient::*, IpcClient, Runtime::wait_app). Nothing inside the runtime
// is instrumented. Spans are recorded only from the generator thread; spans
// that happen on an application thread are stamped there and recorded by
// the generator afterwards, so the recorder needs no lock.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two time points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile of `values` (sorted on the way); 0 when empty.
double quantile(std::vector<double>& values, double q);
double mean(const std::vector<double>& values);
double median(std::vector<double> values);
/// Mean of the middle half of `values` (all of them when fewer than 4).
double interquartile_mean(std::vector<double> values);

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records one span and returns its id (1-based), or 0 when disabled.
  /// `parent` is the id of the enclosing span, 0 for a root span.
  std::uint32_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint32_t parent = 0,
                       std::uint64_t app = 0);

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Per span name: count, summed duration and summed self time (duration
  /// minus the union of its children's intervals), in seconds.
  struct LayerTime {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::map<std::string, LayerTime> layer_times() const;

  /// Writes the spans as tab-separated lines (name, start_ns, end_ns,
  /// parent, app) under a `#` header. Returns false on I/O failure.
  bool write(const std::string& path, const std::string& header) const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::uint32_t parent;
    std::uint64_t app;
  };
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace perfbench
