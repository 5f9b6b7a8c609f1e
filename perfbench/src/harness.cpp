#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace perfbench {

const char* layer_name(std::size_t layer) {
  static constexpr const char* kNames[kNumLayers] = {
      "sim.admit",       "sim.finish",          "sim.observe",
      "comm.pump",       "filter.deliver",      "sensing.sense",
      "filter.kalman_update", "filter.stage",   "filter.kalman_predict",
      "filter.reach",    "scenario.build",      "core.gate",
      "core.view",       "nn.infer",            "core.dispatch",
      "vehicle.advance", "eval.fold",
  };
  return layer < kNumLayers ? kNames[layer] : "?";
}

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// JSON string escaping for the few characters our notes can contain.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

bool same_record(const cvsafe::sim::FleetRecord& a,
                 const cvsafe::sim::FleetRecord& b) {
  return same_bits(a.eta, b.eta) && same_bits(a.reach_time, b.reach_time) &&
         a.steps == b.steps && a.emergency_steps == b.emergency_steps &&
         a.ladder_steps == b.ladder_steps &&
         a.ladder_transitions == b.ladder_transitions &&
         a.messages_accepted == b.messages_accepted &&
         a.messages_rejected == b.messages_rejected &&
         a.rejection_reasons == b.rejection_reasons &&
         a.collided == b.collided && a.reached == b.reached;
}

std::size_t count_mismatches(const std::vector<cvsafe::sim::FleetRecord>& a,
                             const std::vector<cvsafe::sim::FleetRecord>& b) {
  const std::size_t common = std::min(a.size(), b.size());
  std::size_t bad = std::max(a.size(), b.size()) - common;
  for (std::size_t i = 0; i < common; ++i) {
    if (!same_record(a[i], b[i])) ++bad;
  }
  return bad;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back(name + (ok ? " ok " : " FAILED ") + detail);
  if (!ok) correct_ = false;
}

void Report::print() const {
  std::string manifest = "{";
  for (const auto& [key, value] : notes_) {
    if (manifest.size() > 1) manifest += ", ";
    manifest += json_string(key) + ": " + json_string(value);
  }
  std::printf("manifest %s}\n", manifest.c_str());
  for (const auto& [name, m] : metrics_) {
    std::printf("metric %-44s %18.6f %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& c : checks_) std::printf("check %s\n", c.c_str());
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += json_string(name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("result %s\n", json.c_str());
  std::fflush(stdout);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::size_t unsafe_episodes(
    const std::vector<cvsafe::sim::FleetRecord>& records) {
  std::size_t n = 0;
  for (const auto& r : records) {
    if (r.eta < 0.0) ++n;
  }
  return n;
}

}  // namespace perfbench
