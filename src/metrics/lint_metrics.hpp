// Aggregating lint diagnostics (config/lint.hpp) into the
// per-(network, month) hygiene metrics that join the case table.
//
// The paper correlates management practices with network health; the
// lint rules give us a direct "config hygiene" practice family (H in
// the tables): how many inconsistencies a network's configs carry, how
// severe they are, and how many distinct failure modes appear. The
// summary feeds Practice::kLintIssues / kLintErrors / kLintRulesHit /
// kLintDensity, which flow through dependence, causal, and prediction
// analyses like every other practice metric.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "config/lint.hpp"
#include "metrics/case_table.hpp"

namespace mpa {

/// Counts over one network's diagnostics at one point in time.
struct LintSummary {
  int total = 0;  ///< Unsuppressed findings.
  std::array<int, kNumLintCategories> by_category{};
  std::array<int, kNumLintSeverities> by_severity{};
  int suppressed = 0;  ///< Pragma-suppressed findings (when kept).
  int rules_hit = 0;   ///< Distinct rule ids among unsuppressed findings.
  double density = 0.0;  ///< total / num_devices (0 when no devices).

  static LintSummary of(const std::vector<Diagnostic>& diags, std::size_t num_devices);
  /// The same summary from the counts a tallying LintSink kept.
  static LintSummary of(const LintTally& tally, std::size_t num_devices);
};

/// Write the summary's metrics into a case row.
void apply_lint_metrics(const LintSummary& summary, Case& c);

}  // namespace mpa
