#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cvsafe/eval/experiments.hpp"
#include "cvsafe/nn/serialize.hpp"
#include "cvsafe/obs/metrics.hpp"
#include "cvsafe/planners/nn_planner.hpp"
#include "cvsafe/planners/training.hpp"
#include "cvsafe/sim/fault_campaign.hpp"
#include "cvsafe/sim/intersection.hpp"
#include "cvsafe/sim/lane_change.hpp"
#include "cvsafe/sim/left_turn.hpp"
#include "cvsafe/sim/multi_vehicle.hpp"
#include "cvsafe/util/rng.hpp"
#include "traced_fleet.hpp"

namespace perfbench {

namespace sim = cvsafe::sim;
namespace planners = cvsafe::planners;
using cvsafe::util::derive_seed;
using LeftTurnWorld = cvsafe::scenario::LeftTurnWorld;

namespace {

constexpr std::array<const char*, 5> kFaults = {
    "delay-jitter", "reorder-duplicate", "corruption", "blackout", "burst"};
constexpr std::array<const char*, 4> kScenarios = {
    "left-turn", "lane-change", "intersection", "multi-vehicle"};

/// Input sizes grow linearly with --seconds and are fixed by it, so the
/// same (seed, seconds) always runs the same episodes.
std::size_t scaled(double per_second, double seconds, std::size_t floor) {
  return std::max<std::size_t>(
      floor, static_cast<std::size_t>(std::llround(per_second * seconds)));
}

double per_min(std::size_t episodes, double wall_s) {
  return wall_s > 0.0 ? 60.0 * static_cast<double>(episodes) / wall_s : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-control-step latency distribution at 1 ns resolution (samples
/// beyond the histogram are kept exactly).
class LatencyHistogram {
 public:
  void add(std::uint64_t ns) {
    if (ns < bins_.size()) {
      ++bins_[ns];
    } else {
      overflow_.push_back(static_cast<double>(ns));
    }
    ++count_;
  }
  std::uint64_t count() const { return count_; }

  /// Quantile in microseconds; within a 1 ns bin samples are taken as
  /// evenly spread.
  double quantile_us(double q) {
    if (count_ == 0) return 0.0;
    const double target = q * static_cast<double>(count_);
    double cum = 0.0;
    for (std::size_t b = 0; b < bins_.size(); ++b) {
      const auto c = static_cast<double>(bins_[b]);
      if (c > 0.0 && cum + c >= target) {
        return (static_cast<double>(b) + (target - cum) / c) / 1000.0;
      }
      cum += c;
    }
    std::sort(overflow_.begin(), overflow_.end());
    const auto k = static_cast<std::size_t>(
        std::clamp(target - cum, 0.0,
                   static_cast<double>(overflow_.size() - 1)));
    return overflow_[k] / 1000.0;
  }

 private:
  std::vector<std::uint64_t> bins_ = std::vector<std::uint64_t>(1u << 18);
  std::vector<double> overflow_;
  std::uint64_t count_ = 0;
};

/// Runs one episode through EpisodeRunner (observe -> plan -> advance),
/// timing every control step.
template <typename World>
sim::FleetRecord timed_episode(const sim::ScenarioAdapter<World>& adapter,
                               std::uint64_t seed, LatencyHistogram& hist) {
  sim::EpisodeRunner<World> runner(adapter, seed);
  Clock::time_point t = Clock::now();
  while (!runner.done()) {
    runner.observe();
    runner.advance(runner.plan());
    const Clock::time_point t1 = Clock::now();
    hist.add(ns_between(t, t1));
    t = t1;
  }
  return sim::record_from_result(runner.finish());
}

std::vector<sim::FleetRecord> to_records(
    const std::vector<sim::RunResult>& results) {
  std::vector<sim::FleetRecord> records;
  records.reserve(results.size());
  for (const auto& r : results) records.push_back(sim::record_from_result(r));
  return records;
}

/// The index-ordered folds every entry point ends with.
std::size_t fold(const std::vector<sim::FleetRecord>& records) {
  const sim::BatchStats stats = sim::stats_from_records(records);
  cvsafe::obs::MetricsRegistry registry;
  sim::collect_record_metrics(registry, records);
  return stats.n;
}

/// Everything the untraced 1-thread / hardware-thread windows produce.
struct Tally {
  std::vector<double> rate_1t, rate_hw;  ///< episodes/min per window
  double wall_1t = 0.0, wall_hw = 0.0;
  std::size_t episodes = 0;     ///< distinct episodes (1t pass)
  std::size_t probe_episodes = 0;
  std::size_t mismatched = 0;   ///< 1t vs hw record differences
  std::size_t traced_mismatched = 0;
  double traced_wall = 0.0;     ///< traced loop, folds included
  std::size_t unsafe = 0;       ///< eta < 0 in the measured episodes
  std::size_t probe_unsafe = 0;
  std::size_t unfilled = 0;     ///< records that never ran a step
  std::size_t fold_mismatch = 0;
  std::uint64_t steps = 0, emergency = 0, transitions = 0;
  std::uint64_t accepted = 0, rejected = 0;
  std::map<std::string, double> scenario_wall, fault_wall;
  std::map<std::string, std::uint64_t> scenario_steps, fault_steps;
  std::map<std::string, std::size_t> unsafe_by_cell;  ///< "scenario/fault"

  /// Adds one window: the same episodes at one thread (\p r1, \p w1
  /// seconds) and at hardware concurrency. \p fault is the campaign's
  /// fault-axis label, empty outside the campaign.
  void window(const std::vector<sim::FleetRecord>& r1,
              const std::vector<sim::FleetRecord>& rh, double w1, double wh,
              const std::string& scenario, const std::string& fault) {
    rate_1t.push_back(per_min(r1.size(), w1));
    rate_hw.push_back(per_min(rh.size(), wh));
    wall_1t += w1;
    wall_hw += wh;
    episodes += r1.size();
    mismatched += count_mismatches(r1, rh);
    const std::size_t cell_unsafe = unsafe_episodes(r1);
    unsafe += cell_unsafe;
    if (cell_unsafe > 0) {
      unsafe_by_cell[scenario + (fault.empty() ? "" : "/" + fault)] +=
          cell_unsafe;
    }
    std::uint64_t cell_steps = 0;
    for (const auto& r : r1) {
      if (r.steps == 0) ++unfilled;
      cell_steps += r.steps;
      emergency += r.emergency_steps;
      transitions += r.ladder_transitions;
      accepted += r.messages_accepted;
      rejected += r.messages_rejected;
    }
    steps += cell_steps;
    scenario_wall[scenario] += w1;
    scenario_steps[scenario] += cell_steps;
    if (!fault.empty()) {
      fault_wall[fault] += w1;
      fault_steps[fault] += cell_steps;
    }
  }
};

/// Closes one traced window begun at \p start: folds its records (timed
/// as eval.fold) and checks them against the untraced 1-thread records.
void close_traced(const std::vector<sim::FleetRecord>& traced,
                  const std::vector<sim::FleetRecord>& untraced,
                  Clock::time_point start, LayerClock& clock,
                  TraceCounts& counts, Tally& t) {
  clock.skip();
  if (fold(traced) != traced.size()) ++t.fold_mismatch;
  clock.lap(kFold);
  t.traced_wall += seconds_between(start, Clock::now());
  t.traced_mismatched += count_mismatches(traced, untraced);
  for (const auto& r : traced) counts.lane_steps += r.steps;
}

// --- Left-turn set-up (kappa_n training + blueprint + adapter) ----------

sim::LeftTurnSimConfig paper_config() {
  // Section V left turn over the "messages delayed" channel.
  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  config.comm = cvsafe::comm::CommConfig::delayed(/*drop_prob=*/0.2,
                                                  /*delay=*/0.25);
  return config;
}

struct SetupRep {
  double total_s = 0.0;
  double train_s = 0.0;
  std::string net_bytes;  ///< the saved kappa_n file
  sim::AgentBlueprint bp;
  std::unique_ptr<sim::LeftTurnAdapter> adapter;
};

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// One cold set-up: the conservative kappa_n trained into an empty
/// model-cache directory, then the ultimate compound blueprint and the
/// scenario adapter. Rep 0 goes through the cached loader (its cache is
/// empty, so it trains and saves); other reps call the same trainer and
/// writer directly, because the loader's in-process cache would hand
/// them rep 0's network.
void setup_rep(const std::filesystem::path& dir, bool via_cache,
               SetupRep& out) {
  std::filesystem::create_directories(dir);
  const Clock::time_point t0 = Clock::now();
  const sim::LeftTurnSimConfig config = paper_config();
  auto scenario = config.make_scenario();
  const Clock::time_point t1 = Clock::now();
  std::shared_ptr<const cvsafe::nn::Mlp> net;
  if (via_cache) {
    net = planners::cached_planner_network(
        *scenario, planners::PlannerStyle::kConservative);
  } else {
    auto trained = std::make_shared<const cvsafe::nn::Mlp>(
        planners::train_planner_network(
            *scenario, planners::PlannerStyle::kConservative));
    cvsafe::nn::save_mlp_file(*trained, (dir / "kappa_n.mlp").string());
    net = std::move(trained);
  }
  const Clock::time_point t2 = Clock::now();
  sim::AgentBlueprint bp;  // as eval::make_nn_blueprint(kUltimate)
  bp.scenario = std::move(scenario);
  bp.net = std::move(net);
  bp.sensor = config.sensor;
  bp.config = sim::AgentConfig::ultimate_compound();
  bp.name = std::string(cvsafe::eval::planner_variant_name(
                cvsafe::eval::PlannerVariant::kUltimate)) +
            " (conservative)";
  out.adapter = std::make_unique<sim::LeftTurnAdapter>(config, bp);
  const Clock::time_point t3 = Clock::now();
  out.bp = std::move(bp);
  out.total_s = seconds_between(t0, t3);
  out.train_s = seconds_between(t1, t2);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    out.net_bytes = read_file(entry.path());
  }
}

struct LeftTurnSetup {
  sim::LeftTurnSimConfig config;
  sim::AgentBlueprint bp;
  std::unique_ptr<sim::LeftTurnAdapter> adapter;
};

/// Runs \p reps set-ups (concurrently, one thread each) and reports their
/// median as setup_s. Every rep must train the same network.
LeftTurnSetup left_turn_setup(const Options& opt, std::size_t reps,
                              Report& report) {
  const std::filesystem::path root(opt.workdir);
  // The cached loader reads its directory from the environment; point it
  // at an empty run-private directory so rep 0 always trains.
  const std::filesystem::path cache = root / "model-cache";
  std::filesystem::remove_all(cache);
  ::setenv("CVSAFE_MODEL_CACHE", cache.c_str(), 1);
  std::vector<SetupRep> out(reps);
  std::vector<std::exception_ptr> errors(reps);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < reps; ++k) {
    const std::filesystem::path dir =
        k == 0 ? cache : root / ("setup-" + std::to_string(k));
    std::filesystem::remove_all(dir);
    threads.emplace_back([&out, &errors, dir, k] {
      try {
        setup_rep(dir, k == 0, out[k]);
      } catch (...) {
        errors[k] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  std::vector<double> total, train;
  bool identical = !out[0].net_bytes.empty();
  for (const SetupRep& rep : out) {
    total.push_back(rep.total_s);
    train.push_back(rep.train_s);
    identical = identical && rep.net_bytes == out[0].net_bytes;
  }
  report.check("setup_nets_identical", identical,
               std::to_string(reps) + " cold trainings, same kappa_n bytes");
  report.set("setup_s", median(total), "s");
  report.set("planners.train_s", median(train), "s");
  report.set("planners.train_share", ratio(median(train), median(total)),
             "share");
  report.note("setup_reps", std::to_string(reps) + " concurrent");

  LeftTurnSetup setup;
  setup.config = paper_config();
  setup.bp = std::move(out[0].bp);
  setup.adapter = std::move(out[0].adapter);
  return setup;
}

// --- Campaign cells -----------------------------------------------------

/// The campaign's robustness posture (mirrors sim::run_campaign_cell).
void harden(sim::RunConfig& config, const sim::FaultCondition& cond) {
  config.comm = cond.comm;
  config.faults = cond.plan;
  config.gate = cvsafe::filter::GateConfig::hardened();
  config.ladder = cvsafe::core::LadderConfig{};
}

/// A campaign cell's adapter, type-erased over the scenario's world.
class CellAdapter {
 public:
  virtual ~CellAdapter() = default;
  virtual std::vector<sim::FleetRecord> traced(std::size_t n,
                                               std::uint64_t seed,
                                               LayerClock& clock,
                                               TraceCounts& counts) const = 0;
  virtual std::vector<sim::FleetRecord> probe(
      std::size_t n, std::uint64_t seed, LatencyHistogram& hist) const = 0;
  /// Builds the cell's one-thread fleet pool (admitting its first wave of
  /// episodes) and returns the seconds that took; tear-down is untimed.
  virtual double fill_pool(std::size_t n, std::uint64_t seed) const = 0;
};

template <typename Adapter>
class CellAdapterOf final : public CellAdapter {
 public:
  using World = typename Adapter::WorldType;
  explicit CellAdapterOf(std::unique_ptr<Adapter> adapter)
      : adapter_(std::move(adapter)) {}

  std::vector<sim::FleetRecord> traced(std::size_t n, std::uint64_t seed,
                                       LayerClock& clock,
                                       TraceCounts& counts) const override {
    // Campaign cells: derived seeds, default pool, no batched kappa_n.
    TracedFleet<World> fleet(*adapter_, n, seed, sim::SeedPolicy::kDerived,
                             {}, clock, counts);
    return fleet.run();
  }

  std::vector<sim::FleetRecord> probe(std::size_t n, std::uint64_t seed,
                                      LatencyHistogram& hist) const override {
    std::vector<sim::FleetRecord> records;
    for (std::size_t i = 0; i < n; ++i) {
      records.push_back(timed_episode(
          *adapter_,
          sim::episode_seed(seed, i, sim::SeedPolicy::kDerived), hist));
    }
    return records;
  }

  double fill_pool(std::size_t n, std::uint64_t seed) const override {
    std::atomic<std::size_t> next{0};
    std::optional<sim::FleetStackContext> ctx;
    const Clock::time_point t0 = Clock::now();
    if (adapter_->fleet_sweeps()) ctx.emplace();
    sim::EpisodePool<World> pool(
        *adapter_, std::min(n, sim::FleetConfig{}.pool_capacity), seed,
        sim::SeedPolicy::kDerived, next, n, ctx ? &*ctx : nullptr);
    return seconds_between(t0, Clock::now());
  }

 private:
  std::unique_ptr<Adapter> adapter_;
};

/// Builds the adapter sim::run_campaign_cell builds for (scenario, cond).
std::unique_ptr<CellAdapter> make_cell_adapter(
    const std::string& scenario, const sim::FaultCondition& cond) {
  if (scenario == "left-turn") {
    sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
    harden(config, cond);
    sim::AgentBlueprint bp;
    bp.name = "expert-compound";
    bp.scenario = config.make_scenario();
    bp.sensor = config.sensor;
    bp.config = sim::AgentConfig::ultimate_compound();
    bp.config.use_expert_planner = true;
    bp.config.gate = config.gate;
    bp.config.ladder = config.ladder;
    return std::make_unique<CellAdapterOf<sim::LeftTurnAdapter>>(
        std::make_unique<sim::LeftTurnAdapter>(config, bp));
  }
  if (scenario == "lane-change") {
    sim::LaneChangeSimConfig config;
    harden(config, cond);
    return std::make_unique<CellAdapterOf<sim::LaneChangeAdapter>>(
        std::make_unique<sim::LaneChangeAdapter>(
            config, sim::LaneChangePlannerConfig{}));
  }
  if (scenario == "intersection") {
    sim::IntersectionSimConfig config;
    harden(config, cond);
    return std::make_unique<CellAdapterOf<sim::IntersectionAdapter>>(
        std::make_unique<sim::IntersectionAdapter>(config,
                                                   /*use_compound=*/true));
  }
  sim::LeftTurnSimConfig config = sim::LeftTurnSimConfig::paper_defaults();
  harden(config, cond);
  sim::MultiAgentSetup setup;
  setup.scenario = config.make_scenario();  // net == nullptr -> expert
  return std::make_unique<CellAdapterOf<sim::MultiVehicleAdapter>>(
      std::make_unique<sim::MultiVehicleAdapter>(
          config, sim::MultiVehicleConfig{}, setup));
}

struct Cell {
  std::string fault, scenario;
  sim::FaultCondition cond;
  std::uint64_t seed = 0;
  std::unique_ptr<CellAdapter> adapter;
};

/// The 5-fault x 4-scenario matrix of CampaignConfig::ci(), with cell
/// seeds derived exactly as sim::run_fault_campaign derives them.
std::vector<Cell> build_cells(std::uint64_t base_seed) {
  std::vector<Cell> cells;
  for (std::size_t fi = 0; fi < kFaults.size(); ++fi) {
    const sim::FaultCondition cond = sim::FaultCondition::preset(kFaults[fi]);
    for (std::size_t si = 0; si < kScenarios.size(); ++si) {
      Cell cell;
      cell.fault = kFaults[fi];
      cell.scenario = kScenarios[si];
      cell.cond = cond;
      cell.seed = derive_seed(derive_seed(base_seed, fi), si);
      cell.adapter = make_cell_adapter(cell.scenario, cond);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

// --- Reporting ----------------------------------------------------------

/// The end-to-end metrics every workload reports.
void report_end_to_end(Report& report, double rate_1t, double rate_hw,
                       double p50_us, double p99_us,
                       std::uint64_t latency_samples) {
  report.set("episodes_per_min_1t", rate_1t, "episodes/min");
  report.set("episodes_per_min_hw", rate_hw, "episodes/min");
  report.set("step_latency_p50_us", p50_us, "us");
  report.set("step_latency_p99_us", p99_us, "us");
  report.note("latency_samples", std::to_string(latency_samples));
}

void report_end_to_end(Report& report, double rate_1t, double rate_hw,
                       LatencyHistogram& hist) {
  report_end_to_end(report, rate_1t, rate_hw, hist.quantile_us(0.50),
                    hist.quantile_us(0.99), hist.count());
}

/// Windows of a run: enough ~2 s windows to fill --seconds, each run at
/// one thread and then at hardware concurrency.
std::size_t window_count(double seconds) {
  return std::max<std::size_t>(2, static_cast<std::size_t>(
                                      std::llround(seconds / 4.0)));
}

/// Output checks and the attempted/failed tally shared by all workloads.
void report_checks(Report& report, const Tally& t, bool traced) {
  report.check("records_1t_vs_hw", t.mismatched == 0,
               std::to_string(t.mismatched) + " of " +
                   std::to_string(t.episodes) + " records differ");
  if (traced) {
    report.check("records_traced_vs_untraced", t.traced_mismatched == 0,
                 std::to_string(t.traced_mismatched) + " of " +
                     std::to_string(t.episodes) + " records differ");
  }
  report.check("records_filled", t.unfilled == 0,
               std::to_string(t.unfilled) + " episodes ran no step");
  report.check("fold_counts", t.fold_mismatch == 0,
               "BatchStats.n equals the records folded");
  const std::size_t failed =
      t.unsafe + t.probe_unsafe + t.mismatched + t.traced_mismatched;
  const std::size_t attempted = t.episodes + t.probe_episodes;
  report.add_attempted(attempted);
  report.add_failed(failed);
  report.set("failed_share", ratio(static_cast<double>(failed),
                                   static_cast<double>(attempted)),
             "share");
  report.note("unsafe_episodes", std::to_string(t.unsafe));
  std::string by_cell;
  for (const auto& [cell, n] : t.unsafe_by_cell) {
    by_cell += (by_cell.empty() ? "" : ", ") + cell + ": " +
               std::to_string(n);
  }
  report.note("unsafe_by_cell", by_cell.empty() ? "none" : by_cell);
  const auto join = [](const std::vector<double>& v) {
    std::string out;
    for (const double x : v) {
      out += (out.empty() ? "" : " ") + std::to_string(std::llround(x));
    }
    return out;
  };
  report.note("window_rates_1t", join(t.rate_1t));
  report.note("window_rates_hw", join(t.rate_hw));
  report.note("probe_unsafe_episodes", std::to_string(t.probe_unsafe));
  report.set("core.emergency_share",
             ratio(static_cast<double>(t.emergency),
                   static_cast<double>(t.steps)),
             "share");
  report.set("core.ladder_transitions_per_episode",
             ratio(static_cast<double>(t.transitions),
                   static_cast<double>(t.episodes)),
             "count");
  report.set("filter.message_reject_share",
             ratio(static_cast<double>(t.rejected),
                   static_cast<double>(t.accepted + t.rejected)),
             "share");
  for (const char* s : kScenarios) {
    const std::string name(s);
    report.set("sim." + name + "_share",
               ratio(t.scenario_wall.count(name) ? t.scenario_wall.at(name)
                                                 : 0.0,
                     t.wall_1t),
               "share");
  }
  for (const char* f : kFaults) {
    const std::string name(f);
    report.set("sim." + name + "_share",
               ratio(t.fault_wall.count(name) ? t.fault_wall.at(name) : 0.0,
                     t.wall_1t),
               "share");
  }
}

/// Per-layer metrics of a traced run, against the untraced 1-thread pass
/// over the same episodes.
void report_layers(Report& report, const LayerClock& clock,
                   const TraceCounts& counts, const Tally& t,
                   std::size_t hw_threads) {
  const auto steps = static_cast<double>(counts.lane_steps);
  const auto episodes = static_cast<double>(counts.episodes);
  const double wall_ns = t.traced_wall * 1e9;
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    const auto ns = static_cast<double>(clock.ns(l));
    const bool per_episode = l == kAdmit || l == kFinish || l == kFold;
    const std::string name = layer_name(l);
    report.set(name + (per_episode ? "_ns_per_episode" : "_ns_per_step"),
               ratio(ns, per_episode ? episodes : steps), "ns");
    report.set(name + "_share", ratio(ns, wall_ns), "share");
  }
  double observe = 0.0, plan = 0.0;
  for (std::size_t l = kObserve; l <= kBuild; ++l) {
    observe += static_cast<double>(clock.ns(l));
  }
  for (std::size_t l = kGate; l <= kPlan; ++l) {
    plan += static_cast<double>(clock.ns(l));
  }
  report.set("sim.observe_phase_ns_per_step", ratio(observe, steps), "ns");
  report.set("sim.plan_phase_ns_per_step", ratio(plan, steps), "ns");
  report.set("nn.infer_ns_per_row",
             ratio(static_cast<double>(clock.ns(kInfer)),
                   static_cast<double>(counts.infer_rows)),
             "ns");
  report.set("nn.rows_per_call",
             ratio(static_cast<double>(counts.infer_rows),
                   static_cast<double>(counts.infer_calls)),
             "count");
  report.set("nn.rows_share",
             ratio(static_cast<double>(counts.infer_rows), steps), "share");
  report.set("sim.resident_lanes",
             ratio(static_cast<double>(counts.resident_sum),
                   static_cast<double>(counts.pool_rounds)),
             "count");
  report.set("sim.scaling_efficiency",
             ratio(t.wall_1t,
                   t.wall_hw * static_cast<double>(hw_threads)),
             "share");
  report.set("trace.unattributed_share",
             1.0 - ratio(static_cast<double>(clock.total_ns()), wall_ns),
             "share");
  report.set("trace.overhead", ratio(t.traced_wall, t.wall_1t) - 1.0,
             "share");
  for (const auto& [name, wall] : t.scenario_wall) {
    report.set("sim." + name + "_ns_per_step",
               ratio(wall * 1e9,
                     static_cast<double>(t.scenario_steps.at(name))),
               "ns");
  }
  for (const auto& [name, wall] : t.fault_wall) {
    report.set("sim." + name + "_ns_per_step",
               ratio(wall * 1e9, static_cast<double>(t.fault_steps.at(name))),
               "ns");
  }
}

void note_sizes(Report& report, const Options& opt,
                const std::string& sizes) {
  report.note("workload", opt.workload);
  report.note("seed", std::to_string(opt.seed));
  report.note("seconds", std::to_string(opt.seconds));
  report.note("trace", opt.trace ? "1" : "0");
  report.note("threads_1t", "1");
  report.note("threads_hw", std::to_string(opt.hw_threads));
  report.note("sizes", sizes);
}

}  // namespace

// --- paper_left_turn ----------------------------------------------------

void run_paper_left_turn(const Options& opt, Report& report) {
  const std::size_t windows = window_count(opt.seconds);
  const std::size_t per_window =
      std::min<std::size_t>(3000, scaled(150.0, opt.seconds, 8));
  const std::size_t probe_per_window =
      std::min<std::size_t>(250, scaled(25.0, opt.seconds, 2));
  note_sizes(report, opt,
             std::to_string(windows) + " windows x " +
                 std::to_string(per_window) +
                 " fleet episodes (pool 8192) + " +
                 std::to_string(probe_per_window) +
                 " single-vehicle latency-probe episodes");
  LeftTurnSetup setup = left_turn_setup(opt, opt.trace ? 1 : 3, report);

  planners::NnPlanner nn(setup.bp.net, planners::InputEncoding{}, "nn");
  const sim::FleetBatchPlanner<LeftTurnWorld> infer =
      [&nn](std::span<const LeftTurnWorld> worlds, std::span<double> out) {
        nn.plan_batch(worlds, out);
      };
  Tally t;
  LatencyHistogram hist;
  LayerClock clock;
  TraceCounts counts;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::uint64_t base = derive_seed(opt.seed, w);
    if (!opt.trace) {
      // Per-step decision latency of one vehicle on the same config,
      // sampled in every window so it spans the whole run.
      const std::uint64_t probe_base = derive_seed(base, 0x9e0b);
      for (std::size_t i = 0; i < probe_per_window; ++i) {
        const sim::FleetRecord r = timed_episode(
            *setup.adapter,
            sim::episode_seed(probe_base, i, sim::SeedPolicy::kDerived),
            hist);
        if (r.eta < 0.0) ++t.probe_unsafe;
      }
      t.probe_episodes += probe_per_window;
    }
    sim::FleetConfig one;
    one.threads = 1;
    sim::FleetConfig hw;
    hw.threads = opt.hw_threads;
    const Clock::time_point t0 = Clock::now();
    auto r1 = sim::run_left_turn_fleet_records(setup.config, setup.bp,
                                               per_window, base, one);
    if (fold(r1) != r1.size()) ++t.fold_mismatch;
    const Clock::time_point t1 = Clock::now();
    auto rh = sim::run_left_turn_fleet_records(setup.config, setup.bp,
                                               per_window, base, hw);
    if (fold(rh) != rh.size()) ++t.fold_mismatch;
    const Clock::time_point t2 = Clock::now();
    if (opt.perturb && w == 0) rh[0].steps += 1;
    t.window(r1, rh, seconds_between(t0, t1), seconds_between(t1, t2),
             "left-turn", "");
    if (!opt.trace) continue;

    const Clock::time_point t3 = Clock::now();
    TracedFleet<LeftTurnWorld> fleet(
        *setup.adapter, per_window, base, sim::SeedPolicy::kPaired, infer,
        clock, counts);
    close_traced(fleet.run(), r1, t3, clock, counts, t);
  }

  report_end_to_end(report, median(t.rate_1t), median(t.rate_hw), hist);
  report_checks(report, t, opt.trace);
  if (opt.trace) {
    report_layers(report, clock, counts, t, opt.hw_threads);
  }
}

// --- fault_campaign -----------------------------------------------------

void run_fault_campaign(const Options& opt, Report& report) {
  const std::size_t per_cell = scaled(50.0, opt.seconds, 4);
  const std::size_t probe_per_cell = scaled(2.0, opt.seconds, 1);
  note_sizes(report, opt,
             "20 cells (5 faults x 4 scenarios) x " +
                 std::to_string(per_cell) +
                 " episodes (pool 8192) + " +
                 std::to_string(probe_per_cell) +
                 " single-vehicle latency-probe episodes per cell");

  // Set-up: every cell's hardened adapter plus its one-thread fleet pool
  // filled with the first wave of episodes -- all the work before the
  // first control step. Median of three.
  const std::size_t reps = 3;
  std::vector<double> setup_s;
  std::vector<Cell> cells;
  for (std::size_t k = 0; k < reps; ++k) {
    const Clock::time_point t0 = Clock::now();
    std::vector<Cell> built = build_cells(opt.seed);
    double total = seconds_between(t0, Clock::now());
    for (const Cell& cell : built) {
      total += cell.adapter->fill_pool(per_cell, cell.seed);
    }
    setup_s.push_back(total);
    cells = std::move(built);
  }
  report.set("setup_s", median(setup_s), "s");
  report.set("planners.train_s", 0.0, "s");
  report.set("planners.train_share", 0.0, "share");
  report.note("setup_reps", std::to_string(reps) + " sequential");

  Tally t;
  std::map<std::string, LatencyHistogram> hist;  // per scenario
  LayerClock clock;
  TraceCounts counts;
  sim::SweepSpanSink spans;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    if (!opt.trace) {
      const auto records = cell.adapter->probe(
          probe_per_cell, derive_seed(cell.seed, 0x9e0b),
          hist[cell.scenario]);
      t.probe_unsafe += unsafe_episodes(records);
      t.probe_episodes += records.size();
    }
    const Clock::time_point t0 = Clock::now();
    auto r1 = to_records(sim::run_campaign_cell(cell.scenario, cell.cond,
                                                per_cell, cell.seed, 1));
    if (fold(r1) != r1.size()) ++t.fold_mismatch;
    const double wall_1t = seconds_between(t0, Clock::now());
    // A cell takes 0.1-0.5 s at hardware concurrency, short enough for
    // thread start-up jitter to show: time it three times, keep the
    // median, and check every repeat's records.
    std::vector<double> hw_walls;
    std::vector<sim::FleetRecord> rh;
    for (std::size_t rep = 0; rep < 3; ++rep) {
      const Clock::time_point t1 = Clock::now();
      auto records = to_records(sim::run_campaign_cell(
          cell.scenario, cell.cond, per_cell, cell.seed, opt.hw_threads));
      if (fold(records) != records.size()) ++t.fold_mismatch;
      hw_walls.push_back(seconds_between(t1, Clock::now()));
      if (opt.perturb && c == 0 && rep == 0) records[0].steps += 1;
      if (rep == 0) {
        rh = std::move(records);
      } else {
        t.mismatched += count_mismatches(r1, records);
      }
    }
    t.window(r1, rh, wall_1t, median(hw_walls), cell.scenario, cell.fault);
    if (!opt.trace) continue;

    const Clock::time_point t3 = Clock::now();
    close_traced(cell.adapter->traced(per_cell, cell.seed, clock, counts),
                 r1, t3, clock, counts, t);
    if (cell.scenario == "left-turn") {
      // The engine's own sweep spans of the same cell, to compare with
      // the outside-in split.
      sim::FleetObsSinks sinks;
      sinks.spans = &spans;
      sim::run_campaign_cell(cell.scenario, cell.cond, per_cell, cell.seed, 1,
                             nullptr, sinks);
    }
  }

  // Latency: the scenarios' step costs differ up to 20x, so the pooled
  // distribution is multi-modal and its median jumps between modes. The
  // reported figure is the mean over scenarios of each one's quantile.
  double p50 = 0.0, p99 = 0.0;
  std::uint64_t samples = 0;
  for (auto& [scenario, h] : hist) {
    const double s50 = h.quantile_us(0.50), s99 = h.quantile_us(0.99);
    report.set("step_latency_p50_us." + scenario, s50, "us");
    report.set("step_latency_p99_us." + scenario, s99, "us");
    p50 += s50 / static_cast<double>(hist.size());
    p99 += s99 / static_cast<double>(hist.size());
    samples += h.count();
  }
  report_end_to_end(report, per_min(t.episodes, t.wall_1t),
                    per_min(t.episodes, t.wall_hw), p50, p99, samples);
  report_checks(report, t, opt.trace);
  if (opt.trace) {
    report_layers(report, clock, counts, t, opt.hw_threads);
    const sim::SweepSpans total = spans.total();
    double span_ns = 0.0;
    for (const auto& sp : total.spans) span_ns += static_cast<double>(sp.ns);
    for (std::size_t k = 0; k < sim::SweepSpans::kNumKinds; ++k) {
      report.set(std::string("sim.spans.") +
                     sim::SweepSpans::kind_name(k) + "_share",
                 ratio(static_cast<double>(total.spans[k].ns), span_ns),
                 "share");
    }
  }
}

// --- single_vehicle -----------------------------------------------------

void run_single_vehicle(const Options& opt, Report& report) {
  const std::size_t windows = window_count(opt.seconds);
  const std::size_t per_window =
      std::min<std::size_t>(4000, scaled(200.0, opt.seconds, 4));
  note_sizes(report, opt,
             std::to_string(windows) + " windows x " +
                 std::to_string(per_window) +
                 " episodes, one EpisodeRunner at a time");
  LeftTurnSetup setup = left_turn_setup(opt, opt.trace ? 1 : 3, report);
  const sim::LeftTurnAdapter& adapter = *setup.adapter;

  Tally t;
  LatencyHistogram hist;
  planners::NnPlanner nn(setup.bp.net, planners::InputEncoding{}, "nn");
  LayerClock clock;
  TraceCounts counts;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::uint64_t base = derive_seed(opt.seed, w);
    const auto seed_of = [base](std::size_t i) {
      return sim::episode_seed(base, i, sim::SeedPolicy::kDerived);
    };
    const Clock::time_point t0 = Clock::now();
    std::vector<sim::FleetRecord> r1;
    r1.reserve(per_window);
    for (std::size_t i = 0; i < per_window; ++i) {
      r1.push_back(timed_episode(adapter, seed_of(i), hist));
    }
    if (fold(r1) != r1.size()) ++t.fold_mismatch;
    const Clock::time_point t1 = Clock::now();
    // Hardware concurrency: independent vehicles, one runner each.
    auto rh = to_records(sim::run_episodes(adapter, per_window, base,
                                           opt.hw_threads,
                                           sim::SeedPolicy::kDerived));
    if (fold(rh) != rh.size()) ++t.fold_mismatch;
    const Clock::time_point t2 = Clock::now();
    if (opt.perturb && w == 0) rh[0].steps += 1;
    t.window(r1, rh, seconds_between(t0, t1), seconds_between(t1, t2),
             "left-turn", "");
    if (!opt.trace) continue;

    const Clock::time_point t3 = Clock::now();
    std::vector<sim::FleetRecord> rt;
    rt.reserve(per_window);
    clock.skip();
    for (std::size_t i = 0; i < per_window; ++i) {
      sim::EpisodeRunner<LeftTurnWorld> runner(adapter, seed_of(i));
      clock.lap(kAdmit);
      ++counts.episodes;
      while (!runner.done()) {
        ++counts.pool_rounds;
        ++counts.resident_sum;
        runner.observe();
        clock.lap(kObserve);
        double accel = 0.0;
        const auto emergency = runner.monitor_gate();
        clock.lap(kGate);
        if (emergency) {
          accel = *emergency;
        } else {
          const LeftTurnWorld world = runner.nn_world();
          clock.lap(kView);
          accel = nn.plan(world);
          clock.lap(kInfer);
          ++counts.infer_rows;
          ++counts.infer_calls;
        }
        runner.advance(accel);
        clock.lap(kAdvance);
      }
      rt.push_back(sim::record_from_result(runner.finish()));
      clock.lap(kFinish);
    }
    close_traced(rt, r1, t3, clock, counts, t);
  }

  report_end_to_end(report, median(t.rate_1t), median(t.rate_hw), hist);
  report_checks(report, t, opt.trace);
  if (opt.trace) {
    report_layers(report, clock, counts, t, opt.hw_threads);
  }
}

}  // namespace perfbench
