// The benchmark's workloads and the pieces they share. Each workload
// has a `prepare` step (a separate process: generates the dataset and
// the 1-thread reference digests) and a `run` step (the measured
// process: it never generated the data, so its VmHWM is the workload's
// own peak RSS).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/session.hpp"
#include "io/dataset_io.hpp"
#include "metrics/practices.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::string dir;  ///< Work directory (dataset + reference).
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Dataset shape and thread counts of one workload.
struct Shape {
  int networks = 0;
  int months = 0;
  int first_delta = 0;   ///< serve_mixed: first month held back as a delta.
  int threads = 1;       ///< Session threads.
  int workers = 0;       ///< serve_mixed: scheduler workers.
  int setup_reps = 1;    ///< Dataset writes timed in prepare.
};

Shape shape_of(const std::string& workload);

/// The fixed practice set the causal stage runs over.
std::vector<mpa::Practice> causal_practices();

/// MI + CMI rankings rendered with every digit (the ranking digest input).
std::string ranking_text(const mpa::DependenceAnalysis& dep);

/// Reference digests written by prepare, read by run.
using Ref = std::map<std::string, std::string>;
void write_ref(const std::string& dir, const Ref& ref);
Ref read_ref(const std::string& dir);

/// Names of every per-layer metric, so a traced run always reports the
/// full set (0 where a layer is not on the workload's path).
const std::vector<std::string>& per_layer_names();
/// Set every per-layer metric of `m` to 0.
void init_per_layer(NumberMap& m);

/// Outcome of one measured run.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  NumberMap metrics;
  std::map<std::string, std::string> info;

  /// Count one operation; a failed check is a failed operation.
  void op(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
  std::string to_json() const;
};

int prepare(const Options& opts);
Result run_cold_pipeline(const Options& opts);
Result run_serve_mixed(const Options& opts);

}  // namespace perfbench
