#include "config/diff.hpp"

#include <algorithm>
#include <map>

#include "config/types.hpp"

namespace mpa {
namespace {

// Count how many option lines differ between two stanzas, treating
// options as multisets of (key, value) pairs. A modified value counts
// once (not as one removal plus one addition).
int options_delta(const Stanza& a, const Stanza& b) {
  std::map<std::pair<std::string, std::string>, int> counts;
  for (const auto& o : a.options) counts[{o.key, o.value}]++;
  for (const auto& o : b.options) counts[{o.key, o.value}]--;
  int only_a = 0, only_b = 0;
  for (const auto& [kv, n] : counts) {
    if (n > 0) only_a += n;
    if (n < 0) only_b -= n;
  }
  return std::max(only_a, only_b);
}

}  // namespace

std::string_view to_string(ChangeKind k) {
  switch (k) {
    case ChangeKind::kAdded: return "added";
    case ChangeKind::kRemoved: return "removed";
    case ChangeKind::kUpdated: return "updated";
  }
  return "unknown";
}

std::optional<StanzaChange> stanza_change(const Stanza* before, const Stanza* after) {
  if (before == nullptr)
    return StanzaChange{after->type, normalize_type(after->type), after->name, ChangeKind::kAdded,
                        static_cast<int>(after->options.size())};
  if (after == nullptr)
    return StanzaChange{before->type, normalize_type(before->type), before->name,
                        ChangeKind::kRemoved, static_cast<int>(before->options.size())};
  if (*before == *after) return std::nullopt;
  return StanzaChange{before->type, normalize_type(before->type), before->name,
                      ChangeKind::kUpdated, options_delta(*before, *after)};
}

std::vector<StanzaChange> diff(const DeviceConfig& before, const DeviceConfig& after) {
  std::vector<StanzaChange> out;
  // Removed or updated stanzas.
  for (const auto& s : before.stanzas())
    if (auto c = stanza_change(&s, after.find(s.type, s.name))) out.push_back(std::move(*c));
  // Added stanzas.
  for (const auto& s : after.stanzas())
    if (before.find(s.type, s.name) == nullptr) out.push_back(*stanza_change(nullptr, &s));
  return out;
}

bool is_change(const DeviceConfig& before, const DeviceConfig& after) {
  return !diff(before, after).empty();
}

}  // namespace mpa
