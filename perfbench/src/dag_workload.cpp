// dag_small and dag_wide: the DAG programming model over the shared-memory
// submission lane.
//
// dag_small is a closed loop: two ShmClient sessions each keep a fixed
// window of the 4-task examples/fd_filter_dag.json document (FFT -> ZIP ->
// IFFT -> GENERIC) in flight, while the same thread polls STATS and
// METRICS on the control connection at a fixed low rate. dag_wide runs a
// 643-task Pulse-Doppler-shaped document under HEFT_LA from one user on
// one session. The user sends a fixed number of apps at seeded Poisson
// times (a Poisson process conditioned on its count), but never has more
// than one in flight: an app due while the previous one runs is sent when
// that one completes, so the apps form one first-come first-served queue.
// The ready set is hundreds of tasks wide while instances stay near 40 per
// second, and every run executes the same number of tasks. dag_wide
// latency runs from each app's due time, so the wait of an app held back
// behind the previous one counts; dag_small latency runs from the
// submission.
//
// An application is in flight from its submission until Runtime::wait_app
// reports it finished; the shm acknowledgement only means it was admitted.
// Every acknowledgement must be kOk, every admitted app must complete, and
// the runtime must execute exactly the document's tasks for each app.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <thread>
#include <unordered_map>

#include "cedr/common/rng.h"
#include "cedr/shm/client.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cedr;

constexpr const char* kSmallDocumentPath = "examples/fd_filter_dag.json";
constexpr std::uint64_t kSmallTasks = 4;
constexpr std::uint64_t kWideTasks = 643;
constexpr std::size_t kSmallSessions = 2;
constexpr std::size_t kSmallWindow = 32;  ///< apps in flight per session
constexpr double kControlPeriodS = 0.01;  ///< dag_small STATS+METRICS poll
constexpr std::size_t kWideSlots = 1;     ///< dag_wide users
constexpr double kWideRate = 40.0;        ///< dag_wide arrivals per second
constexpr double kSamplePeriodS = 0.02;   ///< traced Runtime::stats() sample
constexpr int kSubmitTimeoutMs = 5000;
/// Longest idle back-off of the generator loop when nothing progressed.
/// Coarser polling would blur latencies; finer polling steals CPU from the
/// runtime's own threads.
constexpr auto kIdleSleep = std::chrono::microseconds(100);

/// examples/fd_filter_dag.json, read from the checkout the benchmark runs
/// in, with its app_name made unique per seed and set-up repetition (so
/// each set-up compiles its own template) and the ZIP task's mask
/// operation drawn from the seed (plain or conjugate multiply: equal cost).
StatusOr<std::string> small_document(std::uint64_t seed, int rep) {
  auto doc = json::parse_file(kSmallDocumentPath);
  if (!doc.ok()) return doc.status();
  const Status unexpected = InvalidArgument(
      std::string(kSmallDocumentPath) + ": expected 4 tasks, one of them ZIP");
  if (!doc->is_object()) return unexpected;
  auto tasks = doc->as_object().find("tasks");
  if (tasks == doc->as_object().end() || !tasks->second.is_array() ||
      tasks->second.as_array().size() != kSmallTasks) {
    return unexpected;
  }
  int zips = 0;
  for (json::Value& task : tasks->second.as_array()) {
    if (!task.is_object() || task.get_string("kernel", "") != "ZIP") continue;
    auto args = task.as_object().find("args");
    if (args == task.as_object().end() || !args->second.is_object()) continue;
    args->second.as_object()["op"] =
        static_cast<int>(Rng(seed).next_below(2));
    ++zips;
  }
  if (zips != 1) return unexpected;
  doc->as_object()["app_name"] = "fd_filter_" + std::to_string(seed) + "_" +
                                 std::to_string(rep);
  return doc->dump();
}

/// 643 tasks: chirp FFT; 128 x (range FFT -> conjugate ZIP with the chirp
/// spectrum -> IFFT); corner turn; 256 Doppler FFTs; peak search. The
/// graph is fixed (the seed drives the arrival times); the seed and the
/// set-up repetition only name it.
std::string wide_document(std::uint64_t seed, int rep) {
  constexpr int kPulses = 128;
  constexpr int kBins = 256;
  std::string doc = R"({"app_name": "pd_wide_)" + std::to_string(seed) + "_" +
                    std::to_string(rep) + R"(", "buffers": {)";
  doc += R"("chirp": {"elems": 256, "kind": "cfloat"})";
  const auto buffer = [](const std::string& name, int elems) {
    return ", \"" + name + "\": {\"elems\": " + std::to_string(elems) +
           ", \"kind\": \"cfloat\"}";
  };
  for (int p = 0; p < kPulses; ++p) doc += buffer("p" + std::to_string(p), 256);
  for (int d = 0; d < kBins; ++d) doc += buffer("d" + std::to_string(d), 128);
  doc += R"(}, "tasks": [)";
  std::vector<std::string> tasks;
  const auto task = [](int id, const std::string& name, const char* kernel,
                       const std::string& args, const std::string& preds) {
    return "{\"id\": " + std::to_string(id) + ", \"name\": \"" + name +
           "\", \"kernel\": \"" + kernel + "\", \"args\": {" + args +
           "}, \"predecessors\": [" + preds + "]}";
  };
  tasks.push_back(task(0, "chirp_fft", "FFT",
                       R"("in": "chirp", "out": "chirp")", ""));
  const int corner = 1 + 3 * kPulses;
  std::string corner_preds;
  for (int p = 0; p < kPulses; ++p) {
    const int fft = 1 + 3 * p;
    const std::string buf = "\"p" + std::to_string(p) + "\"";
    tasks.push_back(task(fft, "range_fft" + std::to_string(p), "FFT",
                         "\"in\": " + buf + ", \"out\": " + buf, ""));
    tasks.push_back(task(fft + 1, "match" + std::to_string(p), "ZIP",
                         "\"a\": " + buf + R"(, "b": "chirp", "out": )" + buf +
                             R"(, "op": 1)",
                         "0, " + std::to_string(fft)));
    tasks.push_back(task(fft + 2, "range_ifft" + std::to_string(p), "IFFT",
                         "\"in\": " + buf + ", \"out\": " + buf,
                         std::to_string(fft + 1)));
    corner_preds += (p > 0 ? ", " : "") + std::to_string(fft + 2);
  }
  tasks.push_back(task(corner, "corner_turn", "GENERIC",
                       R"("work_ns": 50000)", corner_preds));
  std::string peak_preds;
  for (int d = 0; d < kBins; ++d) {
    const std::string buf = "\"d" + std::to_string(d) + "\"";
    tasks.push_back(task(corner + 1 + d, "doppler_fft" + std::to_string(d),
                         "FFT", "\"in\": " + buf + ", \"out\": " + buf,
                         std::to_string(corner)));
    peak_preds += (d > 0 ? ", " : "") + std::to_string(corner + 1 + d);
  }
  tasks.push_back(task(corner + 1 + kBins, "peak", "GENERIC",
                       R"("work_ns": 20000)", peak_preds));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    doc += (i > 0 ? ",\n" : "\n") + tasks[i];
  }
  doc += "\n]}";
  return doc;
}

/// One submitted application, from submission to completion.
struct Pending {
  std::size_t slot = 0;
  Clock::time_point due{};     ///< when the app was due (its arrival)
  Clock::time_point submit{};  ///< submit_dag_json call start
  Clock::time_point submit_returned{};
  Clock::time_point ack{};     ///< completion record seen by poll
  std::uint64_t id = 0;        ///< runtime instance id (from the ack)
};

class DagWorkload final : public Workload {
 public:
  DagWorkload(std::uint64_t seed, bool wide) : seed_(seed), wide_(wide) {}

  std::string scheduler() const override { return wide_ ? "HEFT_LA" : "EFT"; }
  bool open_loop() const override { return wide_; }
  int setup_reps() const override { return 5; }

  Status setup(Env& env, int rep, SpanRecorder& rec, Report& report) override;
  void teardown() override { sessions_.clear(); }
  PhaseResult run_phase(Env& env, double seconds, SpanRecorder& rec,
                        Report& report, std::uint64_t max_tasks) override;
  void add_layers(const PhaseResult& phase, Report& report) override;

 private:
  std::size_t session_count() const { return wide_ ? 1 : kSmallSessions; }
  std::uint64_t tasks_per_app() const {
    return wide_ ? kWideTasks : kSmallTasks;
  }
  /// Submits one app for `slot`; false (and a failure) if refused.
  bool submit(std::size_t slot, Report& report);
  /// Polls every session's completion ring for acknowledgements.
  bool poll_acks(SpanRecorder& rec, Report& report);
  /// Finds acknowledged apps the runtime has finished.
  bool reap_completions(rt::Runtime& rt, SpanRecorder& rec,
                        PhaseResult& out);
  /// Drops every outstanding app after a failure.
  void abandon(Report& report);

  std::uint64_t seed_;
  bool wide_;
  std::string doc_;
  std::vector<std::unique_ptr<shm::ShmClient>> sessions_;
  std::vector<double> shmopen_us_;
  std::vector<double> cold_ack_us_;

  /// A user with at most one app in flight. dag_small users send the next
  /// app as soon as the last completes; dag_wide users follow `arrivals`.
  struct Slot {
    std::size_t session = 0;
    bool busy = false;
    bool finished = false;  ///< nothing more to send this phase
    Clock::time_point due{};  ///< when the next app is due
    std::vector<Clock::time_point> arrivals;
    std::size_t next = 0;  ///< index of the next arrival
  };

  // Per-phase state.
  std::vector<Slot> slots_;
  Clock::time_point deadline_{};
  std::vector<std::unordered_map<std::uint64_t, Pending>> unacked_;
  std::deque<Pending> acked_;
  Clock::time_point phase_start_{};
  std::uint64_t completed_base_ = 0;
  std::uint64_t detected_ = 0;
  std::vector<double> submit_us_;
  std::vector<double> ack_us_;
  std::vector<double> lag_ms_;
  std::uint64_t ring_waits_ = 0;
};

Status DagWorkload::setup(Env& env, int rep, SpanRecorder& rec,
                          Report& report) {
  for (std::size_t s = 0; s < session_count(); ++s) {
    auto client = std::make_unique<shm::ShmClient>(env.socket_path());
    const auto t0 = Clock::now();
    const Status connected = client->connect();
    const auto t1 = Clock::now();
    rec.record("ipc.shmopen", t0, t1);
    CEDR_RETURN_IF_ERROR(connected);
    shmopen_us_.push_back(seconds_between(t0, t1) * 1e6);
    sessions_.push_back(std::move(client));
  }
  // The first submission of a new document compiles its template; set-up
  // ends when that application has completed.
  if (wide_) {
    doc_ = wide_document(seed_, rep);
  } else {
    auto doc = small_document(seed_, rep);
    if (!doc.ok()) return doc.status();
    doc_ = *std::move(doc);
  }
  report.attempt();
  const auto t0 = Clock::now();
  auto seq = sessions_[0]->submit_dag_json(doc_, kSubmitTimeoutMs);
  if (!seq.ok()) return seq.status();
  auto ack = sessions_[0]->wait_completion(*seq, kSubmitTimeoutMs);
  const auto t1 = Clock::now();
  if (!ack.ok()) return ack.status();
  if (ack->status != shm::CplStatus::kOk) {
    return Internal("first submission not acknowledged OK: " + ack->msg);
  }
  cold_ack_us_.push_back(seconds_between(t0, t1) * 1e6);
  rec.record("shm.cold_ack", t0, t1, 0, ack->value);
  return env.runtime().wait_app(ack->value, 60.0);
}

bool DagWorkload::submit(std::size_t slot, Report& report) {
  Slot& sl = slots_[slot];
  Pending p;
  p.slot = slot;
  p.due = sl.due;
  report.attempt();
  p.submit = Clock::now();
  auto seq = sessions_[sl.session]->submit_dag_json(doc_, kSubmitTimeoutMs);
  p.submit_returned = Clock::now();
  if (!seq.ok()) {
    report.fail("submit_dag_json: " + seq.status().to_string());
    return false;
  }
  lag_ms_.push_back(seconds_between(sl.due, p.submit) * 1e3);
  submit_us_.push_back(seconds_between(p.submit, p.submit_returned) * 1e6);
  unacked_[sl.session].emplace(*seq, p);
  sl.busy = true;
  if (wide_) {
    ++sl.next;
    sl.finished = sl.next == sl.arrivals.size();
    if (!sl.finished) sl.due = sl.arrivals[sl.next];
  }
  return true;
}

bool DagWorkload::poll_acks(SpanRecorder& rec, Report& report) {
  bool any = false;
  std::vector<shm::Completion> completions;
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    completions.clear();
    const auto t0 = Clock::now();
    const std::size_t n = sessions_[s]->poll_completions(completions);
    if (n == 0) continue;
    const auto t1 = Clock::now();
    rec.record("shm.poll", t0, t1);
    any = true;
    for (const shm::Completion& c : completions) {
      auto it = unacked_[s].find(c.seq);
      if (it == unacked_[s].end()) {
        report.fail("acknowledgement for unknown sequence " +
                    std::to_string(c.seq));
        continue;
      }
      Pending p = it->second;
      unacked_[s].erase(it);
      if (c.status != shm::CplStatus::kOk) {
        report.fail(std::string("submission acknowledged ") +
                    (c.status == shm::CplStatus::kBusy ? "BUSY" : "ERROR: ") +
                    c.msg);
        slots_[p.slot].busy = false;
        continue;
      }
      p.ack = t1;
      p.id = c.value;
      ack_us_.push_back(seconds_between(p.submit, p.ack) * 1e6);
      acked_.push_back(p);
    }
  }
  return any;
}

bool DagWorkload::reap_completions(rt::Runtime& rt, SpanRecorder& rec,
                                   PhaseResult& out) {
  // completed_apps() is one atomic load; only when it is ahead of what
  // this loop has seen are the oldest acknowledged apps asked, in order.
  const std::uint64_t finished = rt.completed_apps() - completed_base_;
  if (finished <= detected_) return false;
  std::uint64_t wanted = finished - detected_;
  bool any = false;
  for (auto it = acked_.begin(); it != acked_.end() && wanted > 0;) {
    const auto w0 = Clock::now();
    if (!rt.wait_app(it->id, 1e-9).ok()) {
      ++it;
      continue;
    }
    const auto done = Clock::now();
    const Pending& p = *it;
    const Clock::time_point origin = wide_ ? p.due : p.submit;
    out.latency_ms.push_back(seconds_between(origin, done) * 1e3);
    out.done_s.push_back(seconds_between(phase_start_, done));
    out.done_tasks.push_back(static_cast<double>(tasks_per_app()));
    ++out.completed;
    ++detected_;
    --wanted;
    Slot& slot = slots_[p.slot];
    slot.busy = false;
    if (!wide_) {
      slot.due = done;
      slot.finished = done >= deadline_;
    }
    const std::uint32_t root = rec.record("app", origin, done, 0, p.id);
    rec.record("shm.submit", p.submit, p.submit_returned, root, p.id);
    rec.record("shm.ack", p.submit, p.ack, root, p.id);
    rec.record("rt.wait_app", w0, done, root, p.id);
    it = acked_.erase(it);
    any = true;
  }
  return any;
}

void DagWorkload::abandon(Report& report) {
  std::size_t lost = acked_.size();
  for (const auto& map : unacked_) lost += map.size();
  if (lost > 0) {
    report.fail(std::to_string(lost) + " applications never completed");
  }
  acked_.clear();
  for (auto& map : unacked_) map.clear();
  for (Slot& slot : slots_) slot.busy = false;
}

PhaseResult DagWorkload::run_phase(Env& env, double seconds, SpanRecorder& rec,
                                   Report& report, std::uint64_t max_tasks) {
  rt::Runtime& rt = env.runtime();
  PhaseResult out;
  const auto t0 = Clock::now();
  phase_start_ = t0;
  const auto at = [t0](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  deadline_ = at(seconds);
  // dag_small: 2 sessions x 32 users; dag_wide: 1 user on one session,
  // with rate x seconds arrivals at seeded sorted uniform times.
  slots_.clear();
  Rng rng(seed_ ^ (static_cast<std::uint64_t>(seconds * 1e3) << 32));
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    const std::size_t per_session = wide_ ? kWideSlots : kSmallWindow;
    for (std::size_t i = 0; i < per_session; ++i) {
      Slot slot;
      slot.session = s;
      slot.due = t0;
      if (wide_) {
        std::vector<double> times(static_cast<std::size_t>(
            kWideRate / kWideSlots * seconds + 0.5));
        for (double& t : times) t = rng.uniform(0.0, seconds);
        std::sort(times.begin(), times.end());
        for (const double t : times) slot.arrivals.push_back(at(t));
        slot.finished = slot.arrivals.empty();
        if (!slot.finished) slot.due = slot.arrivals.front();
      }
      slots_.push_back(std::move(slot));
    }
  }
  unacked_.assign(sessions_.size(), {});
  acked_.clear();
  submit_us_.clear();
  ack_us_.clear();
  lag_ms_.clear();
  detected_ = 0;
  completed_base_ = rt.completed_apps();
  std::uint64_t waits_before = 0;
  for (const auto& s : sessions_) waits_before += s->full_ring_waits();

  auto next_control = t0;
  auto next_sample = t0;
  // A stalled runtime must not hang the benchmark.
  const auto give_up = deadline_ + std::chrono::seconds(60);
  auto last_done = t0;
  bool failed_submit = false;

  while (true) {
    const auto now = Clock::now();
    bool progressed = false;
    auto wake = now + kIdleSleep;
    const bool stop_sending =
        failed_submit ||
        (max_tasks > 0 && out.completed * tasks_per_app() >= max_tasks);
    for (std::size_t i = 0; i < slots_.size() && !stop_sending; ++i) {
      const Slot& slot = slots_[i];
      if (slot.busy || slot.finished) continue;
      if (slot.due <= now) {
        failed_submit = !submit(i, report);
        progressed = true;
      } else {
        wake = std::min(wake, slot.due);
      }
    }
    progressed |= poll_acks(rec, report);
    if (reap_completions(rt, rec, out)) {
      progressed = true;
      last_done = Clock::now();
    }
    if (!wide_ && now >= next_control) {
      const Status a = read_stats(env.control(), rec, out.layers.stats_rtt_us);
      const auto m =
          read_metrics(env.control(), rec, out.layers.metrics_rtt_us);
      if (!a.ok() || !m.ok()) {
        report.fail("control poll: " + (a.ok() ? m.status() : a).to_string());
      }
      next_control += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kControlPeriodS));
    }
    if (rec.enabled() && now >= next_sample) {
      const rt::RuntimeStats stats = rt.stats();
      out.layers.ready_depth.push_back(static_cast<double>(stats.ready_tasks));
      out.layers.inflight.push_back(static_cast<double>(stats.inflight));
      next_sample += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kSamplePeriodS));
    }
    bool active = false;
    for (const Slot& slot : slots_) {
      active |= slot.busy ||
                (!stop_sending && !failed_submit && !slot.finished);
    }
    if (!active) break;
    if (now >= give_up) {
      abandon(report);
      break;
    }
    if (!progressed) std::this_thread::sleep_until(wake);
  }
  out.admitted = ack_us_.size();
  out.expected_tasks = out.completed * tasks_per_app();
  out.elapsed_s = seconds_between(t0, last_done);
  std::uint64_t waits_after = 0;
  for (const auto& s : sessions_) waits_after += s->full_ring_waits();
  ring_waits_ = waits_after - waits_before;

  // Everything admitted completed (main.cpp checks the task count).
  const rt::RuntimeStats stats = rt.stats();
  if (stats.completed != stats.submitted) {
    report.fail("runtime completed " + std::to_string(stats.completed) +
                " of " + std::to_string(stats.submitted) + " submitted apps");
  }
  return out;
}

void DagWorkload::add_layers(const PhaseResult& phase, Report& report) {
  report.set("shm.submit_us_p50", quantile(submit_us_, 0.50), "us");
  report.set("shm.submit_us_p99", quantile(submit_us_, 0.99), "us");
  const double ack_p50 = quantile(ack_us_, 0.50);
  report.set("shm.ack_us_p50", ack_p50, "us");
  report.set("shm.ack_us_p99", quantile(ack_us_, 0.99), "us");
  report.set("shm.full_ring_waits", static_cast<double>(ring_waits_), "count");
  report.set("apps.cold_ack_us", median(cold_ack_us_), "us");
  report.set("ipc.shmopen_us", median(shmopen_us_), "us");
  report.set("gen.lag_ms_p99", quantile(lag_ms_, 0.99), "ms");

  // Waterfall along the document's longest chain: on dag_wide the wait
  // from the due time to the submission, then the acknowledgement (ring,
  // drain, instantiate), per level a ready-queue wait plus a service time,
  // and the completion publish; the remainder is what no public stage
  // covers (on dag_wide, mostly waiting behind sibling tasks).
  const double depth = wide_ ? 6.0 : 4.0;
  auto latency = phase.latency_ms;
  const double total_us = quantile(latency, 0.50) * 1e3;
  const double lag_us = wide_ ? quantile(lag_ms_, 0.50) * 1e3 : 0.0;
  const double queue_us = report.get("runtime.queue_delay_us_p50");
  const double service_us = report.get("runtime.service_time_us_p50");
  const double publish_us = report.get("runtime.complete_publish_us_p50");
  const double levels_us = depth * (queue_us + service_us);
  const double rest_us =
      total_us - lag_us - ack_p50 - levels_us - publish_us;
  report.set("runtime.unattributed_us_p50", rest_us, "us");
  std::printf(
      "waterfall app p50 %.1f us = lag %.1f + ack %.1f + %.0f x (queue %.2f "
      "+ service %.2f) %.1f + publish %.2f + unattributed %.1f us\n",
      total_us, lag_us, ack_p50, depth, queue_us, service_us, levels_us,
      publish_us, rest_us);
}

}  // namespace

std::unique_ptr<Workload> make_dag_small(std::uint64_t seed) {
  return std::make_unique<DagWorkload>(seed, false);
}

std::unique_ptr<Workload> make_dag_wide(std::uint64_t seed) {
  return std::make_unique<DagWorkload>(seed, true);
}

}  // namespace perfbench
