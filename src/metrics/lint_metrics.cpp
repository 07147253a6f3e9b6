#include "metrics/lint_metrics.hpp"

#include <algorithm>
#include <set>
#include <string_view>

namespace mpa {

LintSummary LintSummary::of(const std::vector<Diagnostic>& diags, std::size_t num_devices) {
  LintSummary s;
  std::set<std::string_view> rules;
  for (const auto& d : diags) {
    if (d.suppressed) {
      ++s.suppressed;
      continue;
    }
    ++s.total;
    ++s.by_category[static_cast<std::size_t>(d.category)];
    ++s.by_severity[static_cast<std::size_t>(d.severity)];
    rules.insert(d.rule_id);
  }
  s.rules_hit = static_cast<int>(rules.size());
  if (num_devices > 0) s.density = static_cast<double>(s.total) / static_cast<double>(num_devices);
  return s;
}

LintSummary LintSummary::of(const LintTally& tally, std::size_t num_devices) {
  LintSummary s;
  s.total = tally.total;
  s.by_category = tally.by_category;
  s.by_severity = tally.by_severity;
  s.suppressed = tally.suppressed;
  s.rules_hit = static_cast<int>(std::count(tally.rules_hit.begin(), tally.rules_hit.end(), true));
  if (num_devices > 0) s.density = static_cast<double>(s.total) / static_cast<double>(num_devices);
  return s;
}

void apply_lint_metrics(const LintSummary& summary, Case& c) {
  c[Practice::kLintIssues] = summary.total;
  c[Practice::kLintErrors] = summary.by_severity[static_cast<std::size_t>(LintSeverity::kError)];
  c[Practice::kLintRulesHit] = summary.rules_hit;
  c[Practice::kLintDensity] = summary.density;
}

}  // namespace mpa
