// Shared helpers for mpabench, the MPA end-to-end benchmark program: wall clock,
// sample statistics, /proc/self/status memory readings, output digests
// and the flat JSON objects mpabench prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.hpp"

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact order statistic by linear interpolation between closest ranks
/// (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (v[hi] == v[lo]) return v[lo];  // also keeps an infinite tail infinite
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Mean of the middle half of the sample (all of it below 4 values); 0
/// for an empty sample. Like the median it ignores the slowest and
/// fastest quarter; unlike it, it moves smoothly when the sample mixes
/// operations of different cost.
inline double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// One field of /proc/self/status in MB (VmHWM, RssAnon, ...); 0 when
/// the field is absent.
inline double proc_status_mb(std::string_view field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.compare(0, field.size(), field) == 0 && line.size() > field.size() &&
        line[field.size()] == ':') {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

/// 64-bit digest of an artifact's rendered bytes, as hex.
inline std::string digest(std::string_view bytes) {
  std::ostringstream os;
  os << std::hex << mpa::fnv1a_words(bytes.data(), bytes.size());
  return os.str();
}

/// A string map as one JSON object (keys and values need no escaping:
/// they are names and numbers).
inline std::string string_map_json(const std::map<std::string, std::string>& m) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) os << ',';
    first = false;
    os << '"' << k << "\":\"" << v << '"';
  }
  os << '}';
  return os.str();
}

/// Ordered name -> number map rendered as one JSON object with every
/// digit kept (max_digits10).
class NumberMap {
 public:
  void set(const std::string& name, double v) { values_[name] = v; }
  void add(const std::string& name, double v) { values_[name] += v; }

  std::string to_json() const {
    std::ostringstream os;
    os.precision(17);
    os << '{';
    bool first = true;
    for (const auto& [k, v] : values_) {
      if (!first) os << ',';
      first = false;
      // An infinite latency (a failed request) prints as the largest double.
      os << '"' << k << "\":" << (std::isfinite(v) ? v : std::numeric_limits<double>::max());
    }
    os << '}';
    return os.str();
  }

 private:
  std::map<std::string, double> values_;
};

}  // namespace perfbench
