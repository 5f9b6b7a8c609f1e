// cvsafe_perfbench — the repository's end-to-end benchmark binary.
//
//   cvsafe_perfbench --workload paper_left_turn|fault_campaign|single_vehicle
//                    --seed N --seconds S --trace 0|1 --workdir DIR
//                    [--git-rev REV] [--source-digest HEX] [--perturb]
//
// Prints a run manifest, every metric as "metric <name> <value> <unit>",
// every output check, and finally one "result {json}" line. Exits 0 when
// every output check passed, 1 when one failed, 2 on bad arguments.
// perfbench/run.py builds this binary and turns its output into the
// benchmark's result line.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

std::string read_trimmed(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  return s;
}

/// "L2 2048K, L3 307200K" from the first CPU's cache description.
std::string cache_sizes() {
  std::string out;
  const std::filesystem::path base("/sys/devices/system/cpu/cpu0/cache");
  for (int i = 0; i < 8; ++i) {
    const auto dir = base / ("index" + std::to_string(i));
    if (!std::filesystem::exists(dir / "level")) continue;
    const std::string level = read_trimmed(dir / "level");
    const std::string type = read_trimmed(dir / "type");
    if (level == "1") continue;
    if (!out.empty()) out += ", ";
    out += "L" + level + (type == "Unified" ? "" : " " + type) + " " +
           read_trimmed(dir / "size");
  }
  return out.empty() ? "unknown" : out;
}

int usage() {
  std::fprintf(stderr,
               "usage: cvsafe_perfbench --workload "
               "paper_left_turn|fault_campaign|single_vehicle --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool perturb = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--perturb") {
      perturb = true;
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key.substr(2)] = argv[++i];
    } else {
      return usage();
    }
  }
  if (!args.count("workload") || !args.count("workdir")) return usage();

  perfbench::Options opt;
  try {
    opt.workload = args["workload"];
    opt.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
    opt.seconds = std::stod(args.count("seconds") ? args["seconds"] : "20");
    opt.trace = args.count("trace") && args["trace"] == "1";
  } catch (const std::exception&) {
    return usage();
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) return usage();
  opt.perturb = perturb;
  opt.workdir = args["workdir"];
  opt.hw_threads = std::max(1u, std::thread::hardware_concurrency());

  perfbench::Report report;
  report.note("git_rev", args.count("git-rev") ? args["git-rev"] : "unknown");
  report.note("source_digest",
              args.count("source-digest") ? args["source-digest"] : "unknown");
  report.note("compiler", PERFBENCH_COMPILER);
  report.note("cxx_flags", PERFBENCH_CXX_FLAGS);
  report.note("build_type", PERFBENCH_BUILD_TYPE);
  report.note("contracts", PERFBENCH_CONTRACTS ? "on" : "off");
  report.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.note("caches", cache_sizes());
  if (perturb) report.note("perturbed", "one hw record altered on purpose");

  try {
    std::filesystem::create_directories(opt.workdir);
    if (opt.workload == "paper_left_turn") {
      perfbench::run_paper_left_turn(opt, report);
    } else if (opt.workload == "fault_campaign") {
      perfbench::run_fault_campaign(opt, report);
    } else if (opt.workload == "single_vehicle") {
      perfbench::run_single_vehicle(opt, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cvsafe_perfbench: %s\n", e.what());
    return 3;
  }
  report.set("peak_rss_mb", perfbench::peak_rss_mib(), "MiB");
  report.print();
  return report.correct() ? 0 : 1;
}
