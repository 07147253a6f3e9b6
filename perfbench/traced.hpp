// Traced re-executions of the library's composite stages, built only
// from the layers' public functions and timed from outside (nothing in
// src/ is instrumented for the benchmark):
//
//   traced_infer  infer_case_table_tail, one call per layer function
//                 (parse, lint-source scan, diff, month-end state,
//                 design metrics, lint, event grouping, tickets);
//   traced_lint   AnalysisSession::lint's per-network fan-out
//                 (parse, scan, run_lint).
//
// Both run serially and return the same artifact the library computes,
// so every traced run is checked against the untraced output.
#pragma once

#include <malloc.h>

#include <cstdint>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "engine/lint_report.hpp"
#include "metrics/inference.hpp"

namespace perfbench {

/// Self time (seconds) and exact counts per layer function.
struct LayerTrace {
  double parse_s = 0;    ///< config: parse()
  double scan_s = 0;     ///< config: LintSource::scan()
  double diff_s = 0;     ///< config: diff()
  double lint_s = 0;     ///< config: run_lint() + LintSummary/apply_lint_metrics
  double state_s = 0;    ///< metrics: month-end config state assembly
  double design_s = 0;   ///< metrics: compute_design_metrics()
  double events_s = 0;   ///< metrics: change sort, month selection, group_events,
                         ///< operational metrics
  double tickets_s = 0;  ///< telemetry: count_health_tickets()
  std::uint64_t parse_calls = 0;
  std::uint64_t diff_calls = 0;
  std::uint64_t stanzas_parsed = 0;
  std::uint64_t stanzas_compared = 0;  ///< Stanzas in the later config of each diff.
  std::uint64_t stanza_changes = 0;
  /// Time spent counting distinct stanzas: benchmark work, not program
  /// work, so it is taken out of the traced wall.
  double bookkeeping_s = 0;
  /// 64-bit digests of every distinct parsed stanza (type, name, options).
  std::unordered_set<std::uint64_t> distinct_stanzas;
  /// Traced wall seconds of each network's rows, inventory order.
  std::vector<double> network_s;

  double self_s() const {
    return parse_s + scan_s + diff_s + lint_s + state_s + design_s + events_s + tickets_s;
  }
};

/// Rows for months [first_month, opts.num_months), bit-identical to
/// infer_case_table_tail(..., first_month) over the same data; opts.pool
/// is ignored (serial).
mpa::CaseTable traced_infer(const mpa::Inventory& inventory, const mpa::SnapshotStore& snapshots,
                            const mpa::TicketLog& tickets, const mpa::InferenceOptions& opts,
                            int first_month, LayerTrace& trace);

/// One network's entry of that report (the unit AnalysisSession::append_month
/// re-lints for each network a delta touches).
mpa::NetworkLint traced_network_lint(const mpa::NetworkRecord& net, const mpa::Inventory& inventory,
                                     const mpa::SnapshotStore& snapshots,
                                     const mpa::LintOptions& opts, LayerTrace& trace);

/// The report AnalysisSession::lint() builds, with parse/scan/lint timed.
mpa::LintReport traced_lint(const mpa::Inventory& inventory, const mpa::SnapshotStore& snapshots,
                            const mpa::LintOptions& opts, LayerTrace& trace);

/// Accumulates the traced pass: per-layer self time and the pass wall.
/// The pass starts from a trimmed heap, so RssAnon after each stage
/// shows live memory rather than what earlier work left to the allocator.
class Pass {
 public:
  explicit Pass(NumberMap& m) : m_(m) {
    malloc_trim(0);
    t0_ = now_s();
  }

  /// Time `fn` as a call into `layer`, recorded under `metric`.
  template <typename Fn>
  auto time(const char* layer, const std::string& metric, Fn&& fn) {
    const double t0 = now_s();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      add(layer, metric, now_s() - t0);
    } else {
      auto r = fn();
      add(layer, metric, now_s() - t0);
      return r;
    }
  }
  void add(const std::string& layer, const std::string& metric, double s) {
    m_.add(metric, s);
    m_.add("layer." + layer + "_s", s);
    self_ += s;
  }
  /// Fold what `t` gained since the last call into the config and
  /// metrics layers.
  void add_trace(const LayerTrace& t) {
    const double now[] = {t.parse_s, t.scan_s,   t.diff_s,   t.lint_s,
                          t.state_s, t.design_s, t.events_s, t.tickets_s};
    static constexpr const char* kMetric[] = {
        "config.parse_s",  "config.scan_s",    "config.diff_s",    "config.lint_s",
        "metrics.state_s", "metrics.design_s", "metrics.events_s", "metrics.tickets_s"};
    for (std::size_t i = 0; i < std::size(now); ++i) {
      const std::string metric = kMetric[i];
      add(metric.substr(0, metric.find('.')), metric, now[i] - seen_[i]);
      seen_[i] = now[i];
    }
    excluded_ += t.bookkeeping_s - seen_bookkeeping_s_;
    seen_bookkeeping_s_ = t.bookkeeping_s;
  }
  void rss(const std::string& stage) {
    m_.set("mem.rss_anon_mb." + stage, proc_status_mb("RssAnon"));
  }

  /// Close the pass: traced wall (less stanza-counting bookkeeping),
  /// unattributed share, and tracing overhead against the same work run
  /// untraced in `untraced_s`.
  void finish(double untraced_s) {
    const double wall = now_s() - t0_ - excluded_;
    m_.set("obs.traced_wall_s", wall);
    m_.set("obs.unattributed_frac", wall > 0 ? (wall - self_) / wall : 0);
    m_.set("obs.trace_overhead_frac", untraced_s > 0 ? wall / untraced_s - 1 : 0);
  }

 private:
  NumberMap& m_;
  double t0_ = 0;
  double self_ = 0;
  double excluded_ = 0;
  double seen_[8] = {};  ///< LayerTrace times at the last add_trace.
  double seen_bookkeeping_s_ = 0;
};

/// Exact-count config ratios from a layer trace.
inline void add_trace_ratios(const LayerTrace& t, NumberMap& m) {
  m.set("config.parse_calls", static_cast<double>(t.parse_calls));
  m.set("config.diff_calls", static_cast<double>(t.diff_calls));
  if (t.stanzas_parsed > 0)
    m.set("config.distinct_stanza_ratio",
          static_cast<double>(t.distinct_stanzas.size()) / static_cast<double>(t.stanzas_parsed));
  if (t.stanzas_compared > 0)
    m.set("config.diff_changed_ratio",
          static_cast<double>(t.stanza_changes) / static_cast<double>(t.stanzas_compared));
}

/// Slowest over median per-network traced inference time.
inline void set_network_skew(const LayerTrace& t, NumberMap& m) {
  const double med = median(t.network_s);
  if (med > 0)
    m.set("metrics.network_skew", *std::max_element(t.network_s.begin(), t.network_s.end()) / med);
}

}  // namespace perfbench
