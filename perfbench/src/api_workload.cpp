// api_pdtx: the API programming model in a closed loop with two fixed
// slots. Slot 0 always relaunches a Pulse Doppler dwell (128 x 256, 641
// blocking CEDR_* calls); slot 1 always relaunches a WiFi TX frame (100
// packets, 100 blocking CEDR_IFFT calls). A slot relaunches with
// submit_api as soon as its application completes. Every dwell must find
// the target's range bin and its velocity within one Doppler bin; sampled
// TX packets must decode back to their payload bits.

#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>

#include "cedr/apps/pulse_doppler.h"
#include "cedr/apps/wifi_tx.h"
#include "cedr/common/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cedr;

/// TX packets decoded per frame by the output check.
constexpr std::size_t kTxChecked = 4;
/// Blocking CEDR_* calls per application: 1 chirp FFT + 128 x (FFT, ZIP,
/// IFFT) + 256 Doppler FFTs per dwell; one IFFT per TX packet.
constexpr std::uint64_t kPdCalls = 641;
constexpr std::uint64_t kTxCalls = 100;
/// Runtime::stats() sampling period in the traced phase.
constexpr double kSamplePeriodS = 0.02;

/// One dwell's inputs and result, owned jointly by the slot and the app
/// thread.
struct Job {
  bool is_pd = true;
  apps::PulseDopplerConfig pd;
  apps::WifiTxConfig tx;
  std::array<std::size_t, kTxChecked> tx_checked{};
  Clock::time_point submitted{};
  Clock::time_point submit_returned{};
  Clock::time_point started{};
  Clock::time_point main_done{};
  StatusOr<apps::PulseDopplerResult> pd_result = Internal("not run");
  StatusOr<apps::WifiTxResult> tx_result = Internal("not run");
};

class ApiPdtx final : public Workload {
 public:
  explicit ApiPdtx(std::uint64_t seed)
      : pd_rng_(seed * 2 + 1), tx_rng_(seed * 2 + 2) {}

  std::string scheduler() const override { return "EFT"; }
  bool open_loop() const override { return false; }
  // A set-up takes milliseconds (thread start-up), so take more of them.
  int setup_reps() const override { return 51; }

  Status setup(Env&, int, SpanRecorder&, Report&) override {
    return Status::Ok();
  }
  void teardown() override {}

  PhaseResult run_phase(Env& env, double seconds, SpanRecorder& rec,
                        Report& report, std::uint64_t max_tasks) override;
  void add_layers(const PhaseResult& phase, Report& report) override;

 private:
  std::shared_ptr<Job> next_job(bool is_pd);
  /// Launches `job` on the runtime; false (and a failure) if refused.
  bool launch(rt::Runtime& rt, const std::shared_ptr<Job>& job,
              std::uint64_t& id, Report& report);
  /// Checks one finished application's output.
  void check(const Job& job, Report& report);

  Rng pd_rng_;
  Rng tx_rng_;
  /// Signalled by application threads as their main function returns.
  std::mutex mutex_;
  std::condition_variable cv_;
  std::array<bool, 2> done_{};
};

std::shared_ptr<Job> ApiPdtx::next_job(bool is_pd) {
  auto job = std::make_shared<Job>();
  job->is_pd = is_pd;
  if (is_pd) {
    // A target whose echo fits the 256-sample pulse (64-sample chirp) and
    // whose Doppler shift stays inside the unambiguous +-PRF/2 band.
    job->pd.seed = pd_rng_.next_u64();
    job->pd.truth.range_bin = 8 + pd_rng_.next_below(160);
    job->pd.truth.doppler_hz = pd_rng_.uniform(-4000.0, 4000.0);
  } else {
    job->tx.seed = tx_rng_.next_u64();
    job->tx.scrambler_seed =
        static_cast<std::uint8_t>(1 + tx_rng_.next_below(127));
    for (auto& index : job->tx_checked) {
      index = tx_rng_.next_below(job->tx.num_packets);
    }
  }
  return job;
}

bool ApiPdtx::launch(rt::Runtime& rt, const std::shared_ptr<Job>& job,
                     std::uint64_t& id, Report& report) {
  const std::size_t slot = job->is_pd ? 0 : 1;
  {
    std::lock_guard lock(mutex_);
    done_[slot] = false;
  }
  report.attempt();
  job->submitted = Clock::now();
  auto submitted = rt.submit_api(
      job->is_pd ? "pulse_doppler" : "wifi_tx", [this, job, slot] {
        job->started = Clock::now();
        if (job->is_pd) {
          job->pd_result = apps::run_pulse_doppler(job->pd);
        } else {
          job->tx_result = apps::run_wifi_tx(job->tx);
        }
        job->main_done = Clock::now();
        {
          std::lock_guard lock(mutex_);
          done_[slot] = true;
        }
        cv_.notify_one();
      });
  job->submit_returned = Clock::now();
  if (!submitted.ok()) {
    report.fail("submit_api: " + submitted.status().to_string());
    return false;
  }
  id = *submitted;
  return true;
}

void ApiPdtx::check(const Job& job, Report& report) {
  if (job.is_pd) {
    if (!job.pd_result.ok()) {
      report.fail("pulse doppler: " + job.pd_result.status().to_string());
      return;
    }
    // One Doppler bin (PRF / pulses) expressed as a velocity: the
    // estimate is quantized to bins, so its error is at most half of this.
    const kernels::RadarParams& p = job.pd.params;
    const double bin_mps = p.prf_hz / static_cast<double>(p.num_pulses) *
                           p.speed_of_light / (2.0 * p.carrier_hz);
    const apps::PulseDopplerResult& r = *job.pd_result;
    if (!r.range_correct || !(r.velocity_error_mps <= bin_mps)) {
      char reason[160];
      std::snprintf(reason, sizeof reason,
                    "pulse doppler seed %llu: range_correct=%d velocity "
                    "error %.3f m/s (limit %.3f)",
                    static_cast<unsigned long long>(job.pd.seed),
                    r.range_correct ? 1 : 0, r.velocity_error_mps, bin_mps);
      report.fail(reason);
    }
    return;
  }
  if (!job.tx_result.ok()) {
    report.fail("wifi tx: " + job.tx_result.status().to_string());
    return;
  }
  const apps::WifiTxResult& r = *job.tx_result;
  for (const std::size_t i : job.tx_checked) {
    auto bits = apps::decode_wifi_symbol(r.symbols[i], job.tx);
    if (!bits.ok() || *bits != r.payloads[i]) {
      report.fail("wifi tx seed " + std::to_string(job.tx.seed) + " packet " +
                  std::to_string(i) + " does not decode to its payload");
      return;
    }
  }
}

PhaseResult ApiPdtx::run_phase(Env& env, double seconds, SpanRecorder& rec,
                               Report& report, std::uint64_t max_tasks) {
  rt::Runtime& rt = env.runtime();
  PhaseResult out;
  std::array<std::shared_ptr<Job>, 2> jobs;
  std::array<std::uint64_t, 2> ids{};
  std::array<bool, 2> live{};
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  for (std::size_t slot = 0; slot < 2; ++slot) {
    jobs[slot] = next_job(slot == 0);
    live[slot] = launch(rt, jobs[slot], ids[slot], report);
  }
  auto last_done = t0;
  auto next_sample = t0;
  while (live[0] || live[1]) {
    std::array<bool, 2> ready{};
    {
      std::unique_lock lock(mutex_);
      const auto any_done = [&] {
        return (live[0] && done_[0]) || (live[1] && done_[1]);
      };
      if (rec.enabled()) {
        cv_.wait_until(lock, next_sample, any_done);
      } else {
        cv_.wait(lock, any_done);
      }
      ready = {live[0] && done_[0], live[1] && done_[1]};
    }
    if (rec.enabled() && Clock::now() >= next_sample) {
      const rt::RuntimeStats stats = rt.stats();
      out.layers.ready_depth.push_back(static_cast<double>(stats.ready_tasks));
      out.layers.inflight.push_back(static_cast<double>(stats.inflight));
      next_sample += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kSamplePeriodS));
    }
    for (std::size_t slot = 0; slot < 2; ++slot) {
      if (!ready[slot]) continue;
      Job& job = *jobs[slot];
      const auto w0 = Clock::now();
      const Status waited = rt.wait_app(ids[slot], 60.0);
      const auto done = Clock::now();
      if (!waited.ok()) {
        // The app thread may still hold the job; stop this slot.
        report.fail("wait_app: " + waited.to_string());
        live[slot] = false;
        continue;
      }
      const double latency_ms = seconds_between(job.submitted, done) * 1e3;
      out.latency_ms.push_back(latency_ms);
      out.done_s.push_back(seconds_between(t0, done));
      out.class_latency_ms[job.is_pd ? "pd" : "tx"].push_back(latency_ms);
      ++out.completed;
      ++out.admitted;
      out.done_tasks.push_back(static_cast<double>(job.is_pd ? kPdCalls
                                                             : kTxCalls));
      out.expected_tasks += job.is_pd ? kPdCalls : kTxCalls;
      last_done = done;
      const std::uint32_t root = rec.record(
          job.is_pd ? "app.pd" : "app.tx", job.submitted, done, 0, ids[slot]);
      rec.record("api.submit", job.submitted, job.submit_returned, root,
                 ids[slot]);
      rec.record("api.app_start", job.submitted, job.started, root, ids[slot]);
      rec.record("api.main", job.started, job.main_done, root, ids[slot]);
      rec.record("rt.wait_app", w0, done, root, ids[slot]);
      // Relaunch before checking, so the check does not idle the slot.
      const std::shared_ptr<Job> finished = jobs[slot];
      if (done < deadline &&
          (max_tasks == 0 || out.expected_tasks < max_tasks)) {
        jobs[slot] = next_job(slot == 0);
        live[slot] = launch(rt, jobs[slot], ids[slot], report);
      } else {
        live[slot] = false;
      }
      check(*finished, report);
    }
  }
  out.elapsed_s = seconds_between(t0, last_done);
  return out;
}

void ApiPdtx::add_layers(const PhaseResult& phase, Report& report) {
  auto pd = phase.class_latency_ms.count("pd") != 0
                ? phase.class_latency_ms.at("pd")
                : std::vector<double>{};
  auto tx = phase.class_latency_ms.count("tx") != 0
                ? phase.class_latency_ms.at("tx")
                : std::vector<double>{};
  const double pd_p50_ms = quantile(pd, 0.50);
  report.set("apps.pd_latency_ms_p50", pd_p50_ms, "ms");
  report.set("apps.pd_latency_ms_p95", quantile(pd, 0.95), "ms");
  report.set("apps.tx_latency_ms_p50", quantile(tx, 0.50), "ms");
  report.set("apps.tx_latency_ms_p99", quantile(tx, 0.99), "ms");

  // Waterfall of a dwell's blocking path: 641 blocking calls, each a
  // ready-queue wait plus a service time; the remainder is the app start,
  // the hand-offs back to the app thread and the CPU glue between calls,
  // which no public stage covers.
  const double queue_us = report.get("runtime.queue_delay_us_p50");
  const double service_us = report.get("runtime.service_time_us_p50");
  const double total_us = pd_p50_ms * 1e3;
  const double calls_us =
      static_cast<double>(kPdCalls) * (queue_us + service_us);
  const double rest_us = total_us - calls_us;
  report.set("runtime.unattributed_us_p50", rest_us, "us");
  std::printf(
      "waterfall pd dwell p50 %.1f us = 641 x (queue %.2f + service %.2f) "
      "%.1f us + unattributed %.1f us\n",
      total_us, queue_us, service_us, calls_us, rest_us);
}

}  // namespace

std::unique_ptr<Workload> make_api_pdtx(std::uint64_t seed) {
  return std::make_unique<ApiPdtx>(seed);
}

}  // namespace perfbench
