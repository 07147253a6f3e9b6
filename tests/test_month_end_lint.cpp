// Month-end lint as case-table inference runs it: device-scope rules
// once per selected config state, network-scope rules once per month,
// spans and pragmas recorded by the interning walk.
//
// Three properties pin it to the one-shot path:
//  * every month's hygiene metrics equal LintSummary::of(run_lint())
//    over parse() + LintSource::scan() of that month-end state, on a
//    dataset whose pragmas move over time, including an appended tail;
//  * the device pass plus the network pass reproduce the rule-major
//    run_lint loop exactly, as Diagnostics and as tallies;
//  * a LintSource recorded by StanzaTable::intern answers like
//    LintSource::scan, and both like a line-by-line reference scanner.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "config/dialect.hpp"
#include "config/lint.hpp"
#include "config/stanza_table.hpp"
#include "engine/session.hpp"
#include "io/dataset_io.hpp"
#include "metrics/inference.hpp"
#include "metrics/lint_metrics.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

constexpr Dialect kBothDialects[] = {Dialect::kIosLike, Dialect::kJunosLike};

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& v) {
  return v[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
}

// ------------------------------------------- pragmas through inference

constexpr int kMonths = 5;
constexpr int kFirstDeltaMonth = 3;

const std::string kIosBase =
    "interface Eth0\n"
    "  ip access-group ghost\n"
    "!\n"
    "interface Eth1\n"
    "  description spare\n"
    "!\n"
    "interface Eth2\n"
    "  ip address 10.0.0.1/24\n"
    "!\n";
const std::string kLonelyAcl =
    "ip access-list lonely\n"
    "  permit tcp any any eq 443\n"
    "!\n";

/// Snapshots of one network whose pragmas come and go: a pragma that
/// first appears mid-timeline, the same ACL chunk with and without a
/// leading pragma (across snapshots and across devices), a comment
/// inside a JunOS block that covers the next block, file pragmas, and a
/// device that appears in month 2.
DiskDataset pragma_dataset() {
  DiskDataset data;
  data.inventory.add_network(NetworkRecord{"net1", {}, {}});
  data.inventory.add_device(DeviceRecord{"a1", "net1", Vendor::kCirrus, "m", Role::kRouter, "f"});
  data.inventory.add_device(
      DeviceRecord{"b1", "net1", Vendor::kJunegrass, "m", Role::kSwitch, "f"});
  data.inventory.add_device(DeviceRecord{"c1", "net1", Vendor::kCirrus, "m", Role::kSwitch, "f"});
  data.inventory.add_device(DeviceRecord{"d1", "net1", Vendor::kAristos, "m", Role::kSwitch, "f"});

  const auto add = [&](const char* device, Timestamp t, std::string text) {
    data.snapshots.add(ConfigSnapshot{device, t, "alice", std::move(text)});
  };
  add("a1", 0, "! device a1\n" + kIosBase + kLonelyAcl + "vlan 10\n!\n");
  add("a1", month_start(1) + 100,
      "! device a1\n! lint-disable dangling-acl-ref\n" + kIosBase +
          "! lint-disable unreferenced-acl\n" + kLonelyAcl + "vlan 10\n!\n");
  add("a1", month_start(2) + 100,
      "! device a1\n! lint-disable dangling-acl-ref\n" + kIosBase + kLonelyAcl +
          "vlan 10\n! lint-disable-file unused-interface-up\n");
  add("a1", month_start(3) + 50,
      "! device a1\n" + kIosBase + kLonelyAcl + "! lint-disable all\nvlan 10\n!\n");

  const std::string junos_ifaces =
      "interfaces Eth2 {\n"
      "    ip-address 10.0.0.1/24;\n"
      "}\n";
  const std::string junos_rest =
      "vlans 20 {\n"
      "}\n"
      "firewall-filter lonely {\n"
      "    permit tcp any any eq 443;\n"
      "}\n";
  add("b1", 0,
      "/* device b1 */\n" + junos_ifaces + "interfaces Eth3 {\n    description spare;\n}\n" +
          junos_rest);
  add("b1", month_start(1) + 200,
      "/* device b1 */\n/* lint-disable duplicate-address */\n" + junos_ifaces +
          "interfaces Eth3 {\n    description spare;\n}\n" + junos_rest);
  add("b1", month_start(2) + 300,
      "/* device b1 */\n" + junos_ifaces +
          "interfaces Eth3 {\n    /* lint-disable unreferenced-vlan */\n"
          "    description spare;\n}\n" +
          junos_rest);
  add("b1", month_start(4) + 10,
      "/* device b1 */\n" + junos_ifaces + junos_rest + "/* lint-disable-file all */\n");

  add("c1", 0, "! device c1\n" + kLonelyAcl);
  add("c1", month_start(3) + 70, "! device c1\n! lint-disable unreferenced-acl\n" + kLonelyAcl);

  add("d1", month_start(2) + 5,
      "! device d1\ninterface Eth9\n  switchport access vlan 20\n!\n" + kLonelyAcl);
  return data;
}

/// The month-end summary the one-shot path gives: parse + scan of each
/// device's latest snapshot before the end of month `m`, then run_lint.
LintSummary reference_summary(const DiskDataset& data, const std::string& network, int m,
                              const LintOptions& opts) {
  std::vector<DeviceConfig> configs;
  std::vector<LintSource> sources;
  std::map<std::string, const DeviceRecord*> by_id;  // inference walks devices by id
  for (const auto* d : data.inventory.devices_in(network)) by_id[d->device_id] = d;
  for (const auto& [id, d] : by_id) {
    const ConfigSnapshot* last = nullptr;
    for (const auto& s : data.snapshots.for_device(id))
      if (s.time < month_start(m + 1)) last = &s;
    if (last == nullptr) continue;
    configs.push_back(parse(last->text, dialect_of(d->vendor), id));
    sources.push_back(LintSource::scan(last->text, dialect_of(d->vendor)));
  }
  std::vector<LintInput> inputs;
  for (std::size_t i = 0; i < configs.size(); ++i)
    inputs.push_back(LintInput{&configs[i], &sources[i]});
  return LintSummary::of(run_lint(inputs, opts), inputs.size());
}

void expect_hygiene_matches(const CaseTable& table, const DiskDataset& data,
                            const LintOptions& opts, const std::string& what) {
  ASSERT_EQ(table.size(), static_cast<std::size_t>(kMonths)) << what;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const Case& row = table[i];
    const LintSummary want = reference_summary(data, row.network_id, row.month, opts);
    EXPECT_EQ(row[Practice::kLintIssues], want.total) << what << " month " << row.month;
    EXPECT_EQ(row[Practice::kLintErrors],
              want.by_severity[static_cast<std::size_t>(LintSeverity::kError)])
        << what << " month " << row.month;
    EXPECT_EQ(row[Practice::kLintRulesHit], want.rules_hit) << what << " month " << row.month;
    EXPECT_EQ(row[Practice::kLintDensity], want.density) << what << " month " << row.month;
  }
}

TEST(MonthEndLint, PragmasThroughCaseTableInference) {
  const DiskDataset data = pragma_dataset();
  LintOptions keep;
  keep.keep_suppressed = true;
  // The dataset must exercise suppression, and the findings must move.
  std::set<std::pair<int, int>> counts;
  for (int m = 0; m < kMonths; ++m) {
    const LintSummary s = reference_summary(data, "net1", m, keep);
    if (m > 0) {
      EXPECT_GT(s.suppressed, 0) << "month " << m;
    }
    counts.emplace(s.total, s.suppressed);
  }
  EXPECT_GE(counts.size(), 4u);

  LintOptions severe;
  severe.severity["unreferenced-acl"] = LintSeverity::kError;
  for (const LintOptions& lint : {LintOptions{}, keep, severe}) {
    InferenceOptions opts;
    opts.num_months = kMonths;
    opts.lint = lint;
    const CaseTable full = infer_case_table(data.inventory, data.snapshots, data.tickets, opts);
    expect_hygiene_matches(full, data, lint, "from scratch");

    // The tail path interns only each device's suffix of snapshots.
    const CaseTable tail = infer_case_table_tail(data.inventory, data.snapshots, data.tickets,
                                                 opts, kFirstDeltaMonth);
    ASSERT_EQ(tail.size(), static_cast<std::size_t>(kMonths - kFirstDeltaMonth));
    for (std::size_t i = 0; i < tail.size(); ++i) {
      EXPECT_EQ(tail[i].month, full[i + kFirstDeltaMonth].month);
      EXPECT_EQ(tail[i].practice, full[i + kFirstDeltaMonth].practice)
          << "tail month " << tail[i].month;
    }
  }

  // append_month carries the month-end state into the appended months.
  const SplitDataset split = split_dataset(data, kFirstDeltaMonth);
  for (int threads : {1, 2}) {
    SessionOptions opts;
    opts.threads = threads;
    opts.inference.num_months = kFirstDeltaMonth;
    AnalysisSession session(split.base.inventory, split.base.snapshots, split.base.tickets,
                            std::move(opts));
    session.case_table();
    for (const MonthDelta& delta : split.deltas) session.append_month(delta);
    expect_hygiene_matches(session.case_table(), data, LintOptions{},
                           "appended at " + std::to_string(threads) + " threads");
  }
}

// ------------------------------------------- split passes == run_lint

/// Rule-id vocabulary for pragmas; "all" suppresses every rule.
const std::vector<std::string> kPragmaIds = {
    "all",          "dangling-acl-ref",      "dangling-vlan-ref", "unreferenced-acl",
    "unreferenced-vlan", "unused-interface-up", "duplicate-address", "subnet-overlap",
    "bgp-as-mismatch",   "one-sided-bgp-session", "vlan-span-undefined", "both-scopes",
    "device-only"};

struct Vocab {
  std::vector<std::string> types;
  std::vector<std::string> keys;
  std::string comment_open, comment_close;
};

Vocab vocab(Dialect d) {
  if (d == Dialect::kIosLike)
    return {{"interface", "vlan", "ip access-list", "router bgp", "router ospf", "port-channel",
             "pool", "virtual-server"},
            {"ip address", "ip access-group", "switchport access vlan", "shutdown", "mtu",
             "permit", "deny", "neighbor", "network", "interface", "member", "pool"},
            "! ",
            ""};
  return {{"interfaces", "vlans", "firewall-filter", "protocols-bgp", "protocols-ospf", "lag",
           "pool", "virtual-server"},
          {"ip-address", "filter", "vlan-members", "disable", "mtu", "permit", "deny", "neighbor",
           "network", "interface", "member", "pool"},
          "/* ",
          " */"};
}

const std::vector<std::string> kNames = {"Eth0", "Eth1", "10", "20", "web", "65001", "65002"};

std::string random_value(Rng& rng, const std::string& key) {
  if (key == "ip address" || key == "ip-address")
    return pick(rng, std::vector<std::string>{"10.0.0.1/24", "10.0.0.2/24", "10.0.0.1/24",
                                              "10.0.0.9/16", "10.1.0.1/30"});
  if (key == "neighbor")
    return pick(rng, std::vector<std::string>{"10.0.0.1 remote-as 65001",
                                              "10.0.0.2 remote-as 65002", "10.0.0.9"});
  if (key == "network")
    return pick(rng, std::vector<std::string>{"10.0.0.0/24 area 0", "10.0.0.0/24 area 1"});
  if (key == "mtu") return pick(rng, std::vector<std::string>{"1500", "9000"});
  if (key == "permit" || key == "deny")
    return pick(rng, std::vector<std::string>{"any", "tcp any any eq 443", "ip any any"});
  if (key == "shutdown" || key == "disable") return "";
  return pick(rng, kNames);
}

std::string random_comment(Rng& rng, const Vocab& v) {
  std::string body;
  switch (rng.uniform_int(0, 3)) {
    case 0: body = "note"; break;
    case 1: body = "lint-disable-file " + pick(rng, kPragmaIds); break;
    default:
      body = "lint-disable " + pick(rng, kPragmaIds);
      if (rng.bernoulli(0.3)) body += " " + pick(rng, kPragmaIds);
      break;
  }
  return v.comment_open + body + v.comment_close;
}

/// Random dialect text that parses: stanzas over the lint rules'
/// vocabulary, (type, name) pairs that may repeat, and comments and
/// pragmas wherever the dialect allows them, blank lines included.
std::string random_text(Rng& rng, Dialect d) {
  const Vocab v = vocab(d);
  const bool ios = d == Dialect::kIosLike;
  std::string out;
  const auto comments = [&](const std::string& indent) {
    const auto n = rng.uniform_int(0, 2);
    for (std::int64_t i = 0; i < n; ++i) out += indent + random_comment(rng, v) + "\n";
    if (rng.bernoulli(0.1)) out += "\n";
  };
  const auto stanzas = rng.uniform_int(1, 8);
  for (std::int64_t i = 0; i < stanzas; ++i) {
    comments("");
    out += pick(rng, v.types) + " " + pick(rng, kNames) + (ios ? "\n" : " {\n");
    const auto options = rng.uniform_int(0, 3);
    for (std::int64_t o = 0; o < options; ++o) {
      const std::string key = pick(rng, v.keys);
      const std::string value = random_value(rng, key);
      out += (ios ? "  " : "    ") + key + (value.empty() ? "" : " " + value) + (ios ? "\n" : ";\n");
      if (!ios && rng.bernoulli(0.15)) comments("    ");
    }
    if (!ios) {
      out += "}\n";
    } else if (rng.bernoulli(0.7)) {
      // "!" ends a stanza; with text it is also the next stanza's comment.
      out += rng.bernoulli(0.7) ? "!\n" : random_comment(rng, v) + "\n";
    }
  }
  if (rng.bernoulli(0.5)) comments("");
  return out;
}

/// run_lint() as one rule-major loop: each rule's device scope over
/// every device, then its network scope.
std::vector<Diagnostic> rule_major_lint(const std::vector<LintInput>& inputs,
                                        const LintOptions& opts) {
  const RuleRegistry& registry =
      opts.registry != nullptr ? *opts.registry : RuleRegistry::builtin();
  const NetworkView net(inputs);
  std::vector<Diagnostic> out;
  LintSink sink(opts, out);
  for (std::size_t i = 0; i < registry.rules().size(); ++i) {
    const LintRule& rule = *registry.rules()[i];
    auto on = opts.enable.find(std::string(rule.info().id));
    if (on == opts.enable.end()) on = opts.enable.find("all");
    if (on != opts.enable.end() && !on->second) continue;
    sink.set_active(&rule, i);
    for (const DeviceView& dev : net.devices()) rule.check_device(dev, sink);
    rule.check_network(net, sink);
  }
  return out;
}

auto fields(const Diagnostic& d) {
  return std::tie(d.rule_id, d.severity, d.category, d.device_id, d.object, d.message, d.span,
                  d.suppressed);
}

void expect_same_summary(const LintSummary& got, const LintSummary& want, const std::string& what) {
  EXPECT_EQ(got.total, want.total) << what;
  EXPECT_EQ(got.by_category, want.by_category) << what;
  EXPECT_EQ(got.by_severity, want.by_severity) << what;
  EXPECT_EQ(got.suppressed, want.suppressed) << what;
  EXPECT_EQ(got.rules_hit, want.rules_hit) << what;
  EXPECT_EQ(got.density, want.density) << what;
}

/// A rule with both scopes, so the merge has to interleave one rule's
/// device and network findings.
class BothScopesRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"both-scopes", "fires per stanza and per network", LintCategory::kHygiene,
            LintSeverity::kWarning};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    for (const StanzaFacts* f : dev.stanzas())
      if (f->stanza->options.size() % 2 == 1) sink.report(dev, f->stanza, "odd " + f->stanza->name);
  }
  void check_network(const NetworkView& net, LintSink& sink) const override {
    for (const DeviceView& dev : net.devices())
      if (dev.stanzas().size() > 2)
        sink.report(dev, dev.stanzas().back()->stanza, "busy " + dev.device_id());
    if (!net.devices().empty()) sink.report(net.devices().front(), nullptr, "network");
  }
};

class DeviceOnlyRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"device-only", "flags each device", LintCategory::kFilter, LintSeverity::kError};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    sink.report(dev, nullptr, [&] { return "seen " + dev.device_id(); });
  }
};

TEST(MonthEndLint, SplitPassesEqualRunLint) {
  RuleRegistry custom;
  custom.add(std::make_unique<DeviceOnlyRule>());
  custom.add(std::make_unique<BothScopesRule>());

  Rng rng(1402);
  for (int trial = 0; trial < 120; ++trial) {
    std::vector<std::string> texts;
    std::vector<Dialect> dialects;
    const auto n = rng.uniform_int(1, 5);
    for (std::int64_t i = 0; i < n; ++i) {
      dialects.push_back(rng.bernoulli(0.5) ? Dialect::kIosLike : Dialect::kJunosLike);
      texts.push_back(random_text(rng, dialects.back()));
    }
    std::vector<DeviceConfig> configs;
    std::vector<LintSource> sources;
    for (std::size_t i = 0; i < texts.size(); ++i) {
      configs.push_back(parse(texts[i], dialects[i], "dev" + std::to_string(i)));
      sources.push_back(LintSource::scan(texts[i], dialects[i]));
    }
    std::vector<LintInput> inputs;
    for (std::size_t i = 0; i < configs.size(); ++i)
      inputs.push_back(LintInput{&configs[i], &sources[i]});

    LintOptions opts;
    opts.keep_suppressed = rng.bernoulli(0.5);
    if (rng.bernoulli(0.5)) opts.registry = &custom;
    if (rng.bernoulli(0.3)) opts.enable[pick(rng, kPragmaIds)] = false;
    if (rng.bernoulli(0.3)) opts.severity[pick(rng, kPragmaIds)] = LintSeverity::kInfo;
    const std::string what = "trial " + std::to_string(trial);

    const std::vector<Diagnostic> want = rule_major_lint(inputs, opts);
    const std::vector<Diagnostic> got = run_lint(inputs, opts);
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(fields(got[i]) == fields(want[i])) << what << " finding " << i << ": "
                                                     << got[i].rule_id << " vs " << want[i].rule_id;

    // Counting instead of collecting: per-device tallies plus the
    // network tally summarize like the Diagnostics do.
    const NetworkView net(inputs);
    LintTally tally;
    for (const DeviceView& dev : net.devices()) {
      LintTally device;
      LintSink sink(opts, device);
      run_device_rules(dev, sink);
      tally += device;
    }
    LintSink sink(opts, tally);
    run_network_rules(net, sink);
    expect_same_summary(LintSummary::of(tally, inputs.size()),
                        LintSummary::of(want, inputs.size()), what);
  }
}

// -------------------------------------- interned sources == scanned ones

/// The line-by-line source scanner lint used before sources came from
/// the chunker walk, kept as the reference: per stanza its (type, name),
/// lines and leading comments, plus every comment of the text.
struct ScannedStanza {
  std::string type, name;
  SourceSpan span;
  std::vector<std::string> comments;
};
struct Scanned {
  std::vector<ScannedStanza> stanzas;
  std::vector<std::string> comments;
};

Scanned reference_scan(const std::string& text, Dialect d) {
  Scanned out;
  std::vector<std::string> pending;
  int open = -1;
  const auto lines = split(text, '\n');
  const int count = static_cast<int>(lines.size());
  const auto close = [&](int line) {
    if (open >= 0) out.stanzas[static_cast<std::size_t>(open)].span.last_line = line;
    open = -1;
  };
  const auto comment = [&](std::string_view body) {
    const std::string c(trim(body));
    if (c.empty()) return;
    out.comments.push_back(c);
    pending.push_back(c);
  };
  const auto header = [&](int no, std::string_view line) {
    const auto [type, name] = stanza_key(line, d);
    out.stanzas.push_back(ScannedStanza{std::string(type), std::string(name), {no, no}, pending});
    pending.clear();
    open = static_cast<int>(out.stanzas.size()) - 1;
  };
  for (int no = 1; no <= count; ++no) {
    const std::string& raw = lines[static_cast<std::size_t>(no - 1)];
    const std::string_view line = trim(raw);
    if (line.empty()) continue;
    if (d == Dialect::kIosLike) {
      if (line[0] == '!') {
        close(no);
        comment(line.substr(1));
      } else if (indent_of(raw) == 0) {
        close(no - 1);
        header(no, line);
      } else if (open >= 0) {
        out.stanzas[static_cast<std::size_t>(open)].span.last_line = no;
      }
    } else if (starts_with(line, "/*")) {
      std::string_view body = line.substr(2);
      if (body.size() >= 2 && body.substr(body.size() - 2) == "*/") body.remove_suffix(2);
      comment(body);
    } else if (line == "}") {
      close(no);
    } else if (line.back() == '{') {
      header(no, line);
    } else if (open >= 0) {
      out.stanzas[static_cast<std::size_t>(open)].span.last_line = no;
    }
  }
  if (d == Dialect::kIosLike) close(count);
  return out;
}

bool names_pragma(const std::vector<std::string>& comments, std::string_view keyword,
                  std::string_view rule_id) {
  for (const auto& c : comments) {
    const auto tokens = split_ws(c);
    if (tokens.empty() || tokens[0] != keyword) continue;
    for (std::size_t i = 1; i < tokens.size(); ++i)
      if (tokens[i] == rule_id || tokens[i] == "all") return true;
  }
  return false;
}

TEST(MonthEndLint, InternedSourceAnswersLikeScan) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    for (Dialect d : kBothDialects) {
      const std::string text = random_text(rng, d);
      const std::string what = "trial " + std::to_string(trial) + ":\n" + text;
      StanzaTable table;
      std::vector<StanzaId> ids;
      LintSource interned;
      table.intern(text, d, ids, &interned);
      const LintSource scanned = LintSource::scan(text, d);
      const Scanned ref = reference_scan(text, d);
      ASSERT_EQ(ref.stanzas.size(), ids.size()) << what;

      for (const ScannedStanza& s : ref.stanzas) {
        // The first stanza of a (type, name) is the one a lookup finds.
        const ScannedStanza* first = &s;
        for (const auto& other : ref.stanzas)
          if (other.type == s.type && other.name == s.name) {
            first = &other;
            break;
          }
        EXPECT_EQ(interned.span_of(s.type, s.name), first->span) << what;
        EXPECT_EQ(scanned.span_of(s.type, s.name), first->span) << what;
        for (const std::string& rule : kPragmaIds) {
          const bool want = names_pragma(ref.comments, "lint-disable-file", rule) ||
                            names_pragma(first->comments, "lint-disable", rule);
          EXPECT_EQ(interned.suppresses(rule, s.type, s.name), want) << what << rule;
          EXPECT_EQ(scanned.suppresses(rule, s.type, s.name), want) << what << rule;
        }
      }
      for (const std::string& rule : kPragmaIds) {
        const bool want = names_pragma(ref.comments, "lint-disable-file", rule);
        EXPECT_EQ(interned.suppresses(rule, "", ""), want) << what << rule;
        EXPECT_EQ(scanned.suppresses(rule, "", ""), want) << what << rule;
      }
      EXPECT_EQ(interned.span_of("no-such-type", "x"), SourceSpan{}) << what;
    }
  }
}

}  // namespace
}  // namespace mpa
