// Seeded mutation sweep over both config dialects: saved IOS-like and
// JunOS-like snapshot texts are truncated, lose or repeat structural
// characters ("!", "{", "}", ";"), get re-indented, CRLF line ends and
// dropped or repeated lines. Every mutant goes through parse() and
// through StanzaTable::intern with the per-stanza facts, into a table
// that already holds the unmutated text. Either both succeed, with
// equal configs and equal facts, or both throw the same DataError text;
// nothing else may escape. The budget is fixed, so the sweep is one
// ctest entry that sanitizer builds run too.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "config/dialect.hpp"
#include "config/stanza_table.hpp"
#include "simulation/osp_generator.hpp"
#include "util/rng.hpp"

namespace mpa {
namespace {

constexpr int kMutantsPerText = 120;

/// A few saved snapshot texts per dialect, from a small generated
/// dataset.
std::map<Dialect, std::vector<std::string>> saved_texts() {
  OspOptions opts;
  opts.num_networks = 4;
  opts.num_months = 2;
  opts.seed = 1507;
  const OspDataset data = generate_osp(opts);
  std::map<Dialect, std::vector<std::string>> out;
  for (const auto& net : data.inventory.networks())
    for (const auto* d : data.inventory.devices_in(net.network_id)) {
      const auto& snaps = data.snapshots.for_device(d->device_id);
      auto& texts = out[dialect_of(d->vendor)];
      if (!snaps.empty() && texts.size() < 6) texts.emplace_back(snaps.back().text.view());
    }
  return out;
}

std::size_t pick_index(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// Start offsets of `text`'s lines.
std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> out{0};
  for (std::size_t i = 0; i + 1 < text.size(); ++i)
    if (text[i] == '\n') out.push_back(i + 1);
  return out;
}

std::string mutate_once(std::string text, Rng& rng) {
  if (text.empty()) return text;
  const std::string structural = "!{};";
  switch (rng.uniform_int(0, 5)) {
    case 0:  // truncate
      text.resize(pick_index(rng, text.size()));
      break;
    case 1:
    case 2: {  // drop or repeat one structural character
      const char c = structural[pick_index(rng, structural.size())];
      std::vector<std::size_t> at;
      for (std::size_t i = 0; i < text.size(); ++i)
        if (text[i] == c) at.push_back(i);
      if (at.empty()) break;
      const std::size_t i = at[pick_index(rng, at.size())];
      if (rng.bernoulli(0.5)) {
        text.erase(i, 1);
      } else {
        text.insert(i, 1, c);
      }
      break;
    }
    case 3: {  // re-indent one line
      const auto starts = line_starts(text);
      const std::size_t s = starts[pick_index(rng, starts.size())];
      const std::size_t body = std::min(text.find_first_not_of(" \t", s), text.size());
      const std::string indent = rng.bernoulli(0.3)   ? ""
                                 : rng.bernoulli(0.5) ? "\t"
                                                      : std::string(pick_index(rng, 6) + 1, ' ');
      text.replace(s, body - s, indent);
      break;
    }
    case 4: {  // CRLF line ends, on one line or all
      const bool all = rng.bernoulli(0.5);
      std::string out;
      for (const char c : text) {
        if (c == '\n' && (all || rng.bernoulli(0.2))) out += '\r';
        out += c;
      }
      text = std::move(out);
      break;
    }
    default: {  // drop or repeat one line
      const auto starts = line_starts(text);
      const std::size_t k = pick_index(rng, starts.size());
      const std::size_t end = k + 1 < starts.size() ? starts[k + 1] : text.size();
      const std::string line = text.substr(starts[k], end - starts[k]);
      if (rng.bernoulli(0.5)) {
        text.erase(starts[k], end - starts[k]);
      } else {
        text.insert(starts[k], line);
      }
      break;
    }
  }
  return text;
}

void expect_same_facts(const StanzaFacts& got, const StanzaFacts& want, const std::string& at) {
  EXPECT_EQ(got.agnostic, want.agnostic) << at;
  EXPECT_EQ(got.construct, want.construct) << at;
  EXPECT_EQ(got.construct_bit, want.construct_bit) << at;
  EXPECT_EQ(got.addresses, want.addresses) << at;
  ASSERT_EQ(got.refs.size(), want.refs.size()) << at;
  for (std::size_t i = 0; i < got.refs.size(); ++i) {
    EXPECT_EQ(got.refs[i].agnostic, want.refs[i].agnostic) << at;
    EXPECT_EQ(got.refs[i].name, want.refs[i].name) << at;
  }
  EXPECT_EQ(got.neighbors, want.neighbors) << at;
  EXPECT_EQ(got.networks, want.networks) << at;
  EXPECT_EQ(got.region, want.region) << at;
  EXPECT_EQ(got.vlan == kNoName, want.vlan == kNoName) << at;
}

/// parse()'s outcome: the config, or the DataError text.
struct Outcome {
  DeviceConfig config;
  std::string error;
};

Outcome parse_outcome(const std::string& text, Dialect d) {
  try {
    return Outcome{parse(text, d, "d"), ""};
  } catch (const DataError& e) {
    return Outcome{DeviceConfig("d"), e.what()};
  }
}

TEST(ConfigMutation, ParseAndInternAgreeOnEveryMutant) {
  Rng rng(0x1507);
  int failed = 0, parsed = 0;
  for (const auto& [dialect, texts] : saved_texts()) {
    ASSERT_FALSE(texts.empty());
    for (const std::string& original : texts) {
      StanzaTable table;
      std::vector<StanzaId> seeded;
      table.intern(original, dialect, seeded);
      std::deque<std::string> mutants;  // the table views every interned text
      for (int k = 0; k < kMutantsPerText; ++k) {
        std::string& text = mutants.emplace_back(original);
        const auto edits = rng.uniform_int(1, 3);
        for (std::int64_t e = 0; e < edits; ++e) text = mutate_once(std::move(text), rng);
        const std::string at = "mutant " + std::to_string(k) + ":\n" + text;

        const Outcome want = parse_outcome(text, dialect);
        std::vector<StanzaId> ids;
        std::string error;
        try {
          table.intern(text, dialect, ids);
        } catch (const DataError& e) {
          error = e.what();
        }
        ASSERT_EQ(error, want.error) << at;
        if (!error.empty()) {
          ++failed;
          continue;
        }
        ++parsed;
        ASSERT_EQ(table.config(ids, "d"), want.config) << at;
        NameTable names;
        for (std::size_t i = 0; i < ids.size(); ++i) {
          const StanzaFacts& got = table.facts(ids[i]);
          expect_same_facts(got, stanza_facts(want.config.stanzas()[i], &names), at);
          // One VLAN id per name, network-wide.
          for (std::size_t j = 0; j < i; ++j) {
            if (got.vlan == kNoName || table.facts(ids[j]).vlan == kNoName) continue;
            EXPECT_EQ(got.vlan == table.facts(ids[j]).vlan,
                      table.stanza(ids[i]).name == table.stanza(ids[j]).name)
                << at;
          }
        }
      }
    }
  }
  // Both outcomes must be common, or the sweep tests one path only.
  EXPECT_GT(failed, 50);
  EXPECT_GT(parsed, 50);
}

}  // namespace
}  // namespace mpa
