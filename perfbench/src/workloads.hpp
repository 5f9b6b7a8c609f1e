#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "harness.hpp"

/// \file workloads.hpp
/// The benchmark's three closed-loop workloads. Each fills a Report with
/// its metrics, output checks and episode tally.

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;   ///< sizes every input (fixed per seed)
  bool trace = false;      ///< per-layer run instead of end-to-end
  bool perturb = false;    ///< corrupt one record (checks the checks)
  std::string workdir;     ///< run-private scratch (model cache)
  std::size_t hw_threads = 1;
};

void run_paper_left_turn(const Options& opt, Report& report);
void run_fault_campaign(const Options& opt, Report& report);
void run_single_vehicle(const Options& opt, Report& report);

}  // namespace perfbench
