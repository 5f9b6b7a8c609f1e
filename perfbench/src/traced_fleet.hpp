#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cvsafe/sim/engine.hpp"
#include "cvsafe/sim/fleet.hpp"
#include "cvsafe/sim/fleet_context.hpp"
#include "cvsafe/vehicle/dynamics.hpp"
#include "harness.hpp"

/// \file traced_fleet.hpp
/// The traced, outside-in fleet loop: one worker that drives the same
/// episodes as sim::run_fleet_records at one thread, but through the
/// public per-lane phase calls (EpisodeRunner sweep wrappers,
/// FleetStackContext batch kernels, monitor_gate / nn_world, the batch
/// planner, advance), lapping a LayerClock between them.
///
/// It mirrors the engine's shard-step: cohorts of sim::kSweepBlock lanes
/// run sim::kCohortSteps steps each, finished lanes retire and refill at
/// cohort-round boundaries, and adapters without the sweep decomposition
/// take the per-lane reference loop. Lanes are independent and records
/// are keyed by episode index, so the only thing the split phase loops
/// change is cross-lane interleaving; the caller checks that the records
/// equal the untraced run's.

namespace perfbench {

template <typename World>
class TracedFleet {
 public:
  /// \p infer, when non-empty, is the batched kappa_n seam (the fleet
  /// engine's FleetBatchPlanner); empty selects full planner dispatch.
  /// The pool has the engine's default capacity.
  TracedFleet(const cvsafe::sim::ScenarioAdapter<World>& adapter,
              std::size_t n, std::uint64_t base_seed,
              cvsafe::sim::SeedPolicy policy,
              cvsafe::sim::FleetBatchPlanner<World> infer,
              LayerClock& clock, TraceCounts& counts)
      : adapter_(adapter),
        n_(n),
        base_seed_(base_seed),
        policy_(policy),
        infer_(std::move(infer)),
        clock_(clock),
        counts_(counts) {
    const std::size_t lanes = std::max<std::size_t>(
        1, std::min(cvsafe::sim::FleetConfig{}.pool_capacity, n));
    runners_.resize(lanes);
    index_.resize(lanes, 0);
    p_.resize(lanes, 0.0);
    v_.resize(lanes, 0.0);
    a_.resize(lanes, 0.0);
    if (adapter.fleet_sweeps()) ctx_.emplace();
  }

  /// Runs every episode; records land at their episode index.
  std::vector<cvsafe::sim::FleetRecord> run() {
    std::vector<cvsafe::sim::FleetRecord> records(n_);
    clock_.skip();
    for (std::size_t lane = 0; lane < runners_.size() && admit(lane);
         ++lane) {
      ++active_;
    }
    clock_.lap(kAdmit);
    while (active_ > 0) {
      ++counts_.pool_rounds;
      counts_.resident_sum += active_;
      if (ctx_) {
        sweep_round();
      } else {
        reference_step();
      }
      retire_and_refill(records);
    }
    // The pool (and its context) outlive every runner they bound.
    runners_.clear();
    return records;
  }

 private:
  bool admit(std::size_t lane) {
    if (next_ >= n_) return false;
    const std::size_t i = next_++;
    runners_[lane].emplace(adapter_,
                           cvsafe::sim::episode_seed(base_seed_, i, policy_));
    if (ctx_) runners_[lane]->bind_fleet(*ctx_);
    index_[lane] = i;
    stage(lane);
    ++counts_.episodes;
    return true;
  }

  void stage(std::size_t lane) {
    p_[lane] = runners_[lane]->ego().p;
    v_[lane] = runners_[lane]->ego().v;
  }

  cvsafe::sim::EpisodeRunner<World>& runner(std::size_t lane) {
    return *runners_[lane];
  }

  /// One cohort-blocked pass over the pool (the batched shard-step).
  void sweep_round() {
    auto& ctx = *ctx_;
    for (std::size_t base = 0; base < active_;
         base += cvsafe::sim::kSweepBlock) {
      const std::size_t end =
          std::min(active_, base + cvsafe::sim::kSweepBlock);
      for (std::size_t k = 0; k < cvsafe::sim::kCohortSteps; ++k) {
        clock_.skip();
        ctx.slab.clear();
        bool any_live = false;
        for (std::size_t lane = base; lane < end; ++lane) {
          ctx.slab.begin_lane();
          if (runner(lane).done()) continue;
          any_live = true;
          runner(lane).observe_begin();
          runner(lane).sweep_pump(ctx.slab);
        }
        if (!any_live) break;
        clock_.lap(kPump);
        for (std::size_t lane = base; lane < end; ++lane) {
          if (runner(lane).done()) continue;
          const auto [first, last] = ctx.slab.lane_range(lane - base);
          runner(lane).sweep_deliver(ctx.slab, first, last);
        }
        clock_.lap(kDeliver);
        for (std::size_t lane = base; lane < end; ++lane) {
          if (!runner(lane).done()) runner(lane).sweep_sense();
        }
        clock_.lap(kSense);
        ctx.estimator.update_batch();
        clock_.lap(kKalmanUpdate);
        ctx.reach.clear();
        for (std::size_t lane = base; lane < end; ++lane) {
          if (!runner(lane).done()) runner(lane).sweep_stage(ctx.reach);
        }
        clock_.lap(kStage);
        ctx.estimator.predict_batch();
        clock_.lap(kKalmanPredict);
        ctx.reach.run();
        clock_.lap(kReach);
        for (std::size_t lane = base; lane < end; ++lane) {
          if (!runner(lane).done()) runner(lane).sweep_build();
        }
        clock_.lap(kBuild);
        plan_lanes(base, end);
        advance_lanes(base, end);
      }
    }
  }

  /// The per-lane reference shard-step (adapters without sweeps): the
  /// whole pool in lockstep, one full observe per lane.
  void reference_step() {
    clock_.skip();
    for (std::size_t lane = 0; lane < active_; ++lane) {
      runner(lane).observe();
    }
    clock_.lap(kObserve);
    plan_lanes(0, active_);
    advance_lanes(0, active_);
  }

  void plan_lanes(std::size_t base, std::size_t end) {
    if (!infer_) {
      for (std::size_t lane = base; lane < end; ++lane) {
        if (!runner(lane).done()) a_[lane] = runner(lane).plan();
      }
      clock_.lap(kPlan);
      return;
    }
    pending_.clear();
    for (std::size_t lane = base; lane < end; ++lane) {
      if (runner(lane).done()) continue;
      if (const auto emergency = runner(lane).monitor_gate()) {
        a_[lane] = *emergency;
      } else {
        pending_.push_back(lane);
      }
    }
    clock_.lap(kGate);
    worlds_.clear();
    for (const std::size_t lane : pending_) {
      worlds_.push_back(runner(lane).nn_world());
    }
    clock_.lap(kView);
    if (!pending_.empty()) {
      plans_.resize(worlds_.size());
      infer_(worlds_, plans_);
      for (std::size_t j = 0; j < pending_.size(); ++j) {
        a_[pending_[j]] = plans_[j];
      }
      counts_.infer_rows += pending_.size();
      ++counts_.infer_calls;
    }
    clock_.lap(kInfer);
  }

  void advance_lanes(std::size_t base, std::size_t end) {
    if (base >= end) return;
    for (std::size_t lane = base; lane < end; ++lane) {
      if (runner(lane).done()) continue;
      runner(lane).advance_begin(a_[lane]);
      stage(lane);
    }
    const cvsafe::sim::RunConfig& config = runner(base).config();
    const cvsafe::vehicle::DoubleIntegrator dyn(config.ego_limits);
    const std::size_t count = end - base;
    dyn.step_batch(std::span(p_).subspan(base, count),
                   std::span(v_).subspan(base, count),
                   std::span<const double>(a_).subspan(base, count),
                   config.dt_c, count);
    for (std::size_t lane = base; lane < end; ++lane) {
      if (runner(lane).done()) continue;
      runner(lane).advance_commit(
          cvsafe::vehicle::VehicleState{p_[lane], v_[lane]});
    }
    clock_.lap(kAdvance);
  }

  /// Retires finished lanes (finish -> record) and refills them from the
  /// episode counter, compacting the active prefix once it runs dry.
  void retire_and_refill(std::vector<cvsafe::sim::FleetRecord>& records) {
    clock_.skip();
    std::size_t lane = 0;
    while (lane < active_) {
      if (!runner(lane).done()) {
        ++lane;
        continue;
      }
      const cvsafe::sim::RunResult result = runner(lane).finish();
      records[index_[lane]] = cvsafe::sim::record_from_result(result);
      clock_.lap(kFinish);
      const bool refilled = admit(lane);
      clock_.lap(kAdmit);
      if (refilled) {
        ++lane;
        continue;
      }
      --active_;
      if (lane != active_) {
        runners_[lane].swap(runners_[active_]);
        index_[lane] = index_[active_];
        p_[lane] = p_[active_];
        v_[lane] = v_[active_];
        a_[lane] = a_[active_];
      }
      runners_[active_].reset();
      clock_.lap(kFinish);
    }
  }

  const cvsafe::sim::ScenarioAdapter<World>& adapter_;
  std::size_t n_;
  std::uint64_t base_seed_;
  cvsafe::sim::SeedPolicy policy_;
  cvsafe::sim::FleetBatchPlanner<World> infer_;
  LayerClock& clock_;
  TraceCounts& counts_;
  // Declared before the runners: released slots touch its free lists.
  std::optional<cvsafe::sim::FleetStackContext> ctx_;
  std::vector<std::optional<cvsafe::sim::EpisodeRunner<World>>> runners_;
  std::vector<std::size_t> index_;
  std::vector<double> p_, v_, a_;
  std::vector<World> worlds_;
  std::vector<std::size_t> pending_;
  std::vector<double> plans_;
  std::size_t active_ = 0;
  std::size_t next_ = 0;
};

}  // namespace perfbench
