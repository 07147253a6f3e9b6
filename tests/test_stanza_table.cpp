// Property tests for stanza interning: StanzaTable must reproduce
// parse() and diff() exactly, and malformed text must fail with
// parse()'s error even when its stanzas repeat interned ones.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "config/diff.hpp"
#include "config/stanza_table.hpp"
#include "metrics/inference.hpp"
#include "util/rng.hpp"

namespace mpa {
namespace {

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& v) {
  return v[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
}

const std::vector<std::string> kIosTypes = {"interface", "vlan", "ip access-list", "router bgp",
                                            "router ospf", "qos policy", "snmp-server"};
const std::vector<std::string> kJunosTypes = {"interfaces", "vlans", "firewall-filter",
                                              "protocols-bgp", "protocols-ospf", "snmp"};
const std::vector<std::string> kNames = {"Eth0", "Eth1", "Eth2", "100", "200", "web", ""};
const std::vector<std::string> kIosKeys = {"ip address", "switchport access vlan", "description",
                                           "neighbor", "shutdown", "permit"};
const std::vector<std::string> kJunosKeys = {"ip-address", "vlan-id", "description", "neighbor",
                                             "disable", "term"};
const std::vector<std::string> kValues = {"", "10.0.0.1/24", "100", "uplink", "tcp any any",
                                          "10.0.0.2 remote-as 65001"};

Option random_option(Rng& rng, Dialect d) {
  return Option{pick(rng, d == Dialect::kIosLike ? kIosKeys : kJunosKeys), pick(rng, kValues)};
}

Stanza random_stanza(Rng& rng, Dialect d) {
  Stanza s;
  s.type = pick(rng, d == Dialect::kIosLike ? kIosTypes : kJunosTypes);
  s.name = pick(rng, kNames);
  const auto n = rng.uniform_int(0, 4);
  for (std::int64_t i = 0; i < n; ++i) s.options.push_back(random_option(rng, d));
  return s;
}

// Stanzas are pushed directly, so (type, name) may repeat: diff()
// matches the first one, and the interned diff must too.
DeviceConfig random_config(Rng& rng, Dialect d) {
  DeviceConfig c("d");
  const auto n = rng.uniform_int(1, 10);
  for (std::int64_t i = 0; i < n; ++i) c.stanzas().push_back(random_stanza(rng, d));
  return c;
}

DeviceConfig mutate(DeviceConfig c, Rng& rng, Dialect d) {
  auto& stanzas = c.stanzas();
  const auto edits = rng.uniform_int(0, 3);
  for (std::int64_t e = 0; e < edits; ++e) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(stanzas.size()) - 1));
    Stanza& s = stanzas[at];
    switch (rng.uniform_int(0, 7)) {
      case 0:  // add
        stanzas.push_back(random_stanza(rng, d));
        break;
      case 1:  // remove
        if (stanzas.size() > 1) stanzas.erase(stanzas.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      case 2:  // update a value
        if (!s.options.empty()) s.options.front().value = pick(rng, kValues);
        break;
      case 3:  // rename
        s.name = pick(rng, kNames);
        break;
      case 4:  // reorder options
        rng.shuffle(s.options);
        break;
      case 5:  // duplicate an option key
        if (!s.options.empty())
          s.options.push_back(Option{s.options.back().key, pick(rng, kValues)});
        break;
      case 6:  // drop an option
        if (!s.options.empty()) s.options.pop_back();
        break;
      default:  // move a stanza
        std::swap(s, stanzas.back());
        break;
    }
  }
  return c;
}

// Re-render `text` with whitespace-only differences: indentation,
// trailing blanks, CRLF endings, blank lines and comment lines.
std::string add_noise(const std::string& text, Dialect d, Rng& rng) {
  std::string out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    const bool indented = !line.empty() && line[0] == ' ';
    if (indented || d == Dialect::kJunosLike) {
      const std::size_t body = line.find_first_not_of(' ');
      const std::string indent =
          rng.bernoulli(0.3) ? "\t" : std::string(1 + rng.uniform_int(0, 3), ' ');
      line = (indented ? indent : "") + line.substr(body);
    }
    if (rng.bernoulli(0.2)) line += rng.bernoulli(0.5) ? "  " : "\t";
    if (rng.bernoulli(0.1)) line += '\r';
    out += line + '\n';
    if (rng.bernoulli(0.15)) out += rng.bernoulli(0.5) ? "\n" : "   \n";
    // A "!" line ends an IOS-like stanza, so comments go between stanzas.
    if (d == Dialect::kJunosLike && rng.bernoulli(0.1)) out += "  /* note */\n";
    if (d == Dialect::kIosLike && line[0] == '!' && rng.bernoulli(0.2)) out += "! note\n";
  }
  return out;
}

std::vector<StanzaId> intern(StanzaTable& table, const std::string& text, Dialect d) {
  std::vector<StanzaId> ids;
  table.intern(text, d, ids);
  return ids;
}

TEST(StanzaTable, InternedDiffAndParseMatchTheReference) {
  Rng rng(20150);
  for (int trial = 0; trial < 400; ++trial) {
    const Dialect d = trial % 2 == 0 ? Dialect::kIosLike : Dialect::kJunosLike;
    const DeviceConfig a = random_config(rng, d);
    const DeviceConfig b = mutate(a, rng, d);
    const std::string ta = add_noise(render(a, d), d, rng);
    const std::string ta2 = add_noise(render(a, d), d, rng);  // whitespace-only difference
    const std::string tb = add_noise(render(b, d), d, rng);
    const DeviceConfig pa = parse(ta, d, "d"), pa2 = parse(ta2, d, "d"), pb = parse(tb, d, "d");

    // parse() is exactly parse_stanza() over the chunks.
    std::vector<Stanza> per_stanza;
    StanzaChunker chunks(tb, d);
    while (const auto chunk = chunks.next()) per_stanza.push_back(parse_stanza(*chunk, d));
    ASSERT_EQ(per_stanza, pb.stanzas()) << tb;

    StanzaTable table;
    const auto ia = intern(table, ta, d), ia2 = intern(table, ta2, d), ib = intern(table, tb, d);
    ASSERT_EQ(table.config(ia, "d"), pa) << ta;
    ASSERT_EQ(table.config(ib, "d"), pb) << tb;
    ASSERT_EQ(table.diff(ia, ib), diff(pa, pb)) << ta << "---\n" << tb;
    ASSERT_EQ(table.diff(ib, ia), diff(pb, pa)) << tb << "---\n" << ta;
    ASSERT_EQ(table.diff(ia, ia2), diff(pa, pa2)) << ta << "---\n" << ta2;
    // Not always empty: a repeated (type, name) is matched to its first
    // occurrence, so a config can differ from itself.
    ASSERT_EQ(table.diff(ib, ib), diff(pb, pb)) << tb;
  }
}

TEST(StanzaTable, RepeatedStanzasParseOnce) {
  const std::string text = "vlan 100\n  name a\n!\nvlan 200\n!\n";
  StanzaTable table;
  std::vector<StanzaId> ids;
  table.intern(text, Dialect::kIosLike, ids);
  table.intern(text + "vlan 100\n  name a\n", Dialect::kIosLike, ids);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(ids, (std::vector<StanzaId>{0, 1, 0, 1, 0}));
}

TEST(StanzaTable, ChunksAreKeyedByDialectToo) {
  // One chunk in both dialects, parsing to different stanzas.
  const std::string text = "x {\n  y;\n  }\n";
  StanzaTable table;
  std::vector<StanzaId> ios, junos;
  table.intern(text, Dialect::kIosLike, ios);
  table.intern(text, Dialect::kJunosLike, junos);
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.config(ios, "d"), parse(text, Dialect::kIosLike, "d"));
  EXPECT_EQ(table.config(junos, "d"), parse(text, Dialect::kJunosLike, "d"));
  EXPECT_NE(table.stanza(ios[0]), table.stanza(junos[0]));
}

std::string parse_error(const std::string& text, Dialect d) {
  try {
    parse(text, d, "d");
  } catch (const DataError& e) {
    return e.what();
  }
  return "";
}

std::string intern_error(StanzaTable& table, const std::string& text, Dialect d) {
  try {
    std::vector<StanzaId> ids;
    table.intern(text, d, ids);
  } catch (const DataError& e) {
    return e.what();
  }
  return "";
}

TEST(StanzaTable, MalformedTextFailsLikeParseEvenAfterRepeats) {
  struct Case {
    Dialect dialect;
    std::string good;  ///< Interned first; its stanzas recur in `bad`.
    std::string bad;
    std::string error;
  };
  const std::string ios = "interface Eth0\n  description a\n!\n";
  const std::string junos = "vlans v100 {\n    vlan-id 100;\n}\n";
  const std::vector<Case> cases = {
      {Dialect::kIosLike, ios, ios + "  orphan option\n",
       "IOS parse: option line outside a stanza: orphan option"},
      {Dialect::kJunosLike, junos, junos + "}\n", "JunOS parse: unbalanced '}'"},
      {Dialect::kJunosLike, junos, "vlans v100 {\n    vlan-id 100;\n",
       "JunOS parse: unterminated block vlans"},
      {Dialect::kJunosLike, junos, junos + "vlans v200 {\n    vlan-id 100;\nvlans v300 {\n",
       "JunOS parse: nested block in vlans"},
      {Dialect::kJunosLike, junos, junos + "vlans v200 {\n    vlan-id 100\n}\n",
       "JunOS parse: missing ';' on: vlan-id 100"},
      {Dialect::kJunosLike, junos, junos + "vlan-id 100;\n",
       "JunOS parse: statement outside block: vlan-id 100;"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(parse_error(c.bad, c.dialect), c.error);
    StanzaTable table;
    EXPECT_EQ(intern_error(table, c.good, c.dialect), "");
    EXPECT_EQ(intern_error(table, c.bad, c.dialect), c.error) << c.bad;
  }
}

TEST(StanzaTable, DialectErrorMessagesAreUnchanged) {
  // The malformed inputs of test_dialect.cpp, with their messages.
  EXPECT_EQ(parse_error("  orphan option\n", Dialect::kIosLike),
            "IOS parse: option line outside a stanza: orphan option");
  EXPECT_EQ(parse_error("}\n", Dialect::kJunosLike), "JunOS parse: unbalanced '}'");
  EXPECT_EQ(parse_error("vlans 100 {\n", Dialect::kJunosLike),
            "JunOS parse: unterminated block vlans");
  EXPECT_EQ(parse_error("vlans 100 {\n  missing-semicolon\n}\n", Dialect::kJunosLike),
            "JunOS parse: missing ';' on: missing-semicolon");
  EXPECT_EQ(parse_error("stmt outside;\n", Dialect::kJunosLike),
            "JunOS parse: statement outside block: stmt outside;");
  EXPECT_EQ(parse_error("a {\n  b {\n", Dialect::kJunosLike), "JunOS parse: nested block in a");
  // The first problem in text order wins, as in a single-pass parse.
  EXPECT_EQ(parse_error("a {\n  x\n  b {\n", Dialect::kJunosLike),
            "JunOS parse: missing ';' on: x");
}

TEST(StanzaTable, InferenceReportsTheFirstMalformedSnapshot) {
  const std::string junos = "vlans v100 {\n    vlan-id 100;\n}\n";
  const std::string bad = junos + "vlans v200 {\n";
  Inventory inv;
  inv.add_network(NetworkRecord{"net1", {}, {}});
  inv.add_device(DeviceRecord{"d1", "net1", Vendor::kJunegrass, "m", Role::kSwitch, "f"});
  inv.add_device(DeviceRecord{"d2", "net1", Vendor::kCirrus, "m", Role::kSwitch, "f"});
  SnapshotStore store;
  store.add(ConfigSnapshot{"d1", 0, "svc", junos});
  store.add(ConfigSnapshot{"d1", 10, "svc", junos});
  store.add(ConfigSnapshot{"d1", 20, "svc", bad});
  store.add(ConfigSnapshot{"d2", 0, "svc", "  orphan\n"});
  InferenceOptions opts;
  opts.num_months = 1;
  try {
    infer_case_table(inv, store, TicketLog{}, opts);
    FAIL() << "malformed snapshot accepted";
  } catch (const DataError& e) {
    EXPECT_EQ(std::string(e.what()), parse_error(bad, Dialect::kJunosLike));
  }
}

}  // namespace
}  // namespace mpa
