#pragma once
// The benchmark workloads. Each one is driven from a single generator
// thread; main.cpp owns set-up repetition, phases and reporting.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// What one measured phase produced.
struct PhaseResult {
  std::uint64_t completed = 0;  ///< applications completed
  std::uint64_t admitted = 0;   ///< applications the runtime accepted
  double elapsed_s = 0.0;       ///< phase start to last completion
  /// Tasks the completed applications must have executed.
  std::uint64_t expected_tasks = 0;
  /// Submission (closed loops) or due time (dag_wide) -> completion.
  std::vector<double> latency_ms;
  std::vector<double> done_s;      ///< completion time, from phase start
  std::vector<double> done_tasks;  ///< tasks of each completed application
  /// Per application class, where a workload has more than one.
  std::map<std::string, std::vector<double>> class_latency_ms;
  LayerInputs layers;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string scheduler() const = 0;
  /// True when a seeded schedule, not the system, sets the arrival rate.
  [[nodiscard]] virtual bool open_loop() const = 0;
  /// Set-ups per run; setup_s is their median.
  [[nodiscard]] virtual int setup_reps() const = 0;

  /// Workload part of one set-up (shm sessions, first submission of the
  /// document). Timed into setup_s. `rep` makes each set-up's document
  /// distinct, so every set-up pays the template compile.
  virtual cedr::Status setup(Env& env, int rep, SpanRecorder& rec,
                             Report& report) = 0;
  /// Releases what setup() opened; called before the Env is destroyed.
  virtual void teardown() = 0;
  /// One phase of `seconds`. Outputs are checked as they arrive; every
  /// failure goes to `report`. With `max_tasks` > 0 no further application
  /// is sent once the completed ones hold that many tasks (the fixed-work
  /// warm-up).
  virtual PhaseResult run_phase(Env& env, double seconds, SpanRecorder& rec,
                                Report& report, std::uint64_t max_tasks) = 0;
  /// Workload-specific per-layer metrics of the traced phase (shm.*,
  /// apps.*, gen.*, runtime.unattributed_us_p50).
  virtual void add_layers(const PhaseResult& phase, Report& report) = 0;
};

std::unique_ptr<Workload> make_api_pdtx(std::uint64_t seed);
std::unique_ptr<Workload> make_dag_small(std::uint64_t seed);
std::unique_ptr<Workload> make_dag_wide(std::uint64_t seed);

}  // namespace perfbench
