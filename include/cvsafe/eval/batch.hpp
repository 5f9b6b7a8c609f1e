#pragma once

#include <cstdint>
#include <span>

#include "cvsafe/eval/simulation.hpp"

/// \file batch.hpp
/// Batch execution (a thin veneer over the fleet engine) and the
/// paired-episode winning percentage reported in Tables I and II of the
/// paper.

namespace cvsafe::eval {

using BatchStats = sim::BatchStats;

/// Runs \p n simulations with seeds base_seed .. base_seed + n - 1 on the
/// fleet engine (sim/fleet.hpp: SoA episode pool, work-stealing
/// admission, mega-batched NN planning; CVSAFE_THREADS-controllable
/// worker count, 0 = hardware). Seeds drive the entire episode, so two
/// batches over the same seed range see *paired* workloads and
/// disturbances. Stats (including eta order) are byte-identical to the
/// per-episode sim::run_episodes for any thread count and
/// \p pool_capacity; \p sinks arms the flight recorder and span
/// accounting.
inline BatchStats run_batch(
    const SimConfig& config, const AgentBlueprint& blueprint, std::size_t n,
    std::uint64_t base_seed = 1, std::size_t threads = 0,
    std::size_t pool_capacity = sim::FleetConfig{}.pool_capacity,
    const sim::FleetObsSinks& sinks = {}) {
  sim::FleetConfig fleet;
  fleet.threads = threads;
  fleet.pool_capacity = pool_capacity;
  return sim::stats_from_records(sim::run_left_turn_fleet_records(
      config, blueprint, n, base_seed, fleet, sinks));
}

/// Winning percentage of Tables I and II: the fraction of paired episodes
/// in which planner A achieves a higher eta than planner B. \p tolerance
/// treats differences up to it as wins for A, except that an exact tie is
/// a coin flip and counts half a win; the tables use a tolerance
/// equivalent to one control step of reaching time (eta values within
/// ~1e-3 of each other describe episodes that differ by at most one
/// 50 ms decision), matching the paper's tie-inclusive percentages.
double winning_fraction(std::span<const double> etas_a,
                        std::span<const double> etas_b,
                        double tolerance = 0.0);

}  // namespace cvsafe::eval
