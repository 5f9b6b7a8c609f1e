#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cvsafe/sim/fleet.hpp"

/// \file harness.hpp
/// Shared plumbing of the end-to-end benchmark: wall clocks, the
/// per-layer accounting of traced runs, record comparison and the metric
/// report printed at the end of every run.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// The layers a traced run attributes time to. Each is one public call
/// (or one sweep of calls) into the module named by its metric prefix.
enum Layer : std::size_t {
  kAdmit,          ///< sim: EpisodeRunner construction (+ fleet bind)
  kFinish,         ///< sim: EpisodeRunner::finish + record fold-in
  kObserve,        ///< sim: EpisodeRunner::observe (scalar stack)
  kPump,           ///< comm: sweep_pump (channel offer/collect, faults)
  kDeliver,        ///< filter: sweep_deliver (gate, Kalman rollback)
  kSense,          ///< sensing: sweep_sense
  kKalmanUpdate,   ///< filter: FleetEstimator::update_batch
  kStage,          ///< filter: sweep_stage
  kKalmanPredict,  ///< filter: FleetEstimator::predict_batch
  kReach,          ///< filter: ReachSweep::run
  kBuild,          ///< scenario: sweep_build
  kGate,           ///< core: monitor_gate
  kView,           ///< core: nn_world (planner view)
  kInfer,          ///< nn: NnPlanner::plan_batch / plan
  kPlan,           ///< core: planner dispatch (EpisodeRunner::plan)
  kAdvance,        ///< vehicle: advance (bookkeeping + dynamics + commit)
  kFold,           ///< eval: stats_from_records + collect_record_metrics
  kNumLayers,
};

/// Metric stem of each layer ("comm.pump", ...).
const char* layer_name(std::size_t layer);

/// Per-layer wall-time totals of a traced run, accumulated by lapping one
/// clock: every lap closes the previous layer's interval and opens the
/// next, so the layers tile the traced wall time except for the traced
/// loop's own overhead (reported as trace.unattributed_share).
class LayerClock {
 public:
  void lap(Layer layer) {
    const Clock::time_point t1 = Clock::now();
    ns_[layer] += ns_between(t0_, t1);
    t0_ = t1;
  }
  /// Restarts the interval without attributing it (loop bookkeeping).
  void skip() { t0_ = Clock::now(); }

  std::uint64_t ns(std::size_t layer) const { return ns_[layer]; }
  std::uint64_t total_ns() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : ns_) sum += v;
    return sum;
  }
 private:
  Clock::time_point t0_{};
  std::array<std::uint64_t, kNumLayers> ns_{};
};

/// Work counters of a traced run (deterministic, unlike the times).
struct TraceCounts {
  std::uint64_t lane_steps = 0;     ///< control steps across all lanes
  std::uint64_t episodes = 0;
  std::uint64_t infer_rows = 0;     ///< worlds handed to kappa_n
  std::uint64_t infer_calls = 0;    ///< plan_batch / plan calls
  std::uint64_t pool_rounds = 0;    ///< pool passes (resident sampling)
  std::uint64_t resident_sum = 0;   ///< live lanes summed over rounds
};

/// Field-by-field equality of two records (FleetRecord has padding, so
/// memcmp would compare indeterminate bytes). Doubles compare bitwise.
bool same_record(const cvsafe::sim::FleetRecord& a,
                 const cvsafe::sim::FleetRecord& b);

/// Number of positions at which two record sequences differ (a length
/// mismatch counts every unmatched position).
std::size_t count_mismatches(const std::vector<cvsafe::sim::FleetRecord>& a,
                             const std::vector<cvsafe::sim::FleetRecord>& b);

/// Median of a sample (mean of the middle two for an even count).
double median(std::vector<double> values);

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports: metrics by name, the manifest notes, the
/// output checks and the episode tally.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  /// Records an output check; a failed check makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail);
  void note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }

  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void add_failed(std::uint64_t n) { failed_ += n; }

  bool correct() const { return correct_; }

  /// Prints the manifest, every metric ("metric <name> <value> <unit>")
  /// and every check, then one "result {json}" line holding all of them
  /// (run.py keeps the metrics BENCHMARK.json lists).
  void print() const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> checks_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mib();

/// Episodes with eta < 0: the compound planner let the ego enter the
/// unsafe set, a violation of eta(kappa_c) >= 0.
std::size_t unsafe_episodes(const std::vector<cvsafe::sim::FleetRecord>& r);

}  // namespace perfbench
