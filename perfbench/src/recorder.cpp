#include "recorder.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

namespace perfbench {

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double interquartile_mean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  return mean(std::vector<double>(values.begin() + cut, values.end() - cut));
}

std::uint32_t SpanRecorder::record(const char* name, Clock::time_point start,
                                   Clock::time_point end, std::uint32_t parent,
                                   std::uint64_t app) {
  if (!enabled_) return 0;
  spans_.push_back(Span{name, start, end, parent, app});
  return static_cast<std::uint32_t>(spans_.size());
}

std::map<std::string, SpanRecorder::LayerTime> SpanRecorder::layer_times()
    const {
  // Child intervals per parent, clipped to the parent; self time is the
  // parent's duration minus the union of those intervals.
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent == 0 || s.parent > spans_.size()) continue;
    const Span& p = spans_[s.parent - 1];
    const auto lo = std::max(s.start, p.start);
    const auto hi = std::min(s.end, p.end);
    if (lo < hi) children[s.parent - 1].emplace_back(lo, hi);
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    Clock::time_point run_lo{};
    Clock::time_point run_hi{};
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += seconds_between(run_lo, run_hi);
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += seconds_between(run_lo, run_hi);
    LayerTime& t = out[s.name];
    const double duration = seconds_between(s.start, s.end);
    ++t.count;
    t.total_s += duration;
    t.self_s += duration - covered;
  }
  return out;
}

bool SpanRecorder::write(const std::string& path,
                         const std::string& header) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "# " << header << "\n# name\tstart_ns\tend_ns\tparent\tapp\n";
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  for (const Span& s : spans_) {
    out << s.name << '\t' << ns(s.start) << '\t' << ns(s.end) << '\t'
        << s.parent << '\t' << s.app << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
