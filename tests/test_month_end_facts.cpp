// Design metrics from month-end facts: case-table inference folds each
// month's design metrics from per-stanza and per-state facts
// (config/facts.hpp) instead of re-deriving them from config strings.
//
// Every month of every network must give the design metrics a
// string-based reference computes over parse() of that month-end state
// (the code inference used before facts): protocol counts, VLANs,
// BGP/OSPF instance counts and mean sizes, and intra/inter-device
// complexity. The dataset mixes both dialects, repeats (type, name)
// pairs, spans VLANs across devices, links BGP neighbors to peer
// addresses and OSPF networks to shared subnets, shares MSTP regions,
// carries address options that do not parse, and has devices that
// first appear mid-window.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "config/addr.hpp"
#include "config/dialect.hpp"
#include "config/refs.hpp"
#include "config/routing.hpp"
#include "config/types.hpp"
#include "engine/session.hpp"
#include "io/dataset_io.hpp"
#include "metrics/design_metrics.hpp"
#include "metrics/inference.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

constexpr int kMonths = 6;

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& v) {
  return v[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
}

// ------------------------------------------------------------ dataset

struct StanzaKind {
  std::string ios_type, junos_type;
  std::vector<std::string> names;
  std::vector<std::string> ios_keys, junos_keys;
};

const std::vector<StanzaKind> kKinds = {
    {"interface", "interfaces", {"Eth0", "Eth1", "Eth2"},
     {"ip address", "ip access-group", "switchport access vlan", "description"},
     {"ip-address", "filter", "description"}},
    {"vlan", "vlans", {"10", "20", "30"}, {"interface", "description"}, {"interface"}},
    {"ip access-list", "firewall-filter", {"web", "edge"}, {"permit"}, {"permit"}},
    {"router bgp", "protocols-bgp", {"65001", "65002"}, {"neighbor", "network"},
     {"neighbor", "network"}},
    {"router ospf", "protocols-ospf", {"1", "2"}, {"network"}, {"network"}},
    {"spanning-tree", "protocols-mstp", {"mst", "mst2"}, {"region"}, {"region"}},
    {"port-channel", "lag", {"ae0", "ae1"}, {"member"}, {"member"}},
    {"pool", "pool", {"p1"}, {"member"}, {"member"}},
    {"virtual-server", "virtual-server", {"v1"}, {"pool"}, {"pool"}},
    {"udld", "udld", {"x"}, {"mode"}, {"mode"}},
    {"ip dhcp-relay", "dhcp-relay", {"x"}, {"server"}, {"server"}},
    {"snmp-server", "snmp", {"x"}, {"community"}, {"community"}},
};

std::string random_value(Rng& rng, const std::string& key) {
  if (key == "ip address" || key == "ip-address")
    // Some do not parse: an octet past 255, no length, not an address.
    return pick(rng, std::vector<std::string>{"10.0.0.1/24", "10.0.0.2/24", "10.0.1.1/24",
                                              "10.0.2.1/30", "10.0.0.300/24", "10.0.0.3",
                                              "bogus"});
  if (key == "neighbor")
    return pick(rng, std::vector<std::string>{"10.0.0.1 remote-as 65001",
                                              "10.0.0.2 remote-as 65002", "10.0.1.1",
                                              "10.0.2.1 remote-as 65001", "10.0.0.256"});
  if (key == "network")
    return pick(rng, std::vector<std::string>{"10.0.0.0/24 area 0", "10.0.1.0/24 area 0",
                                              "10.0.0.7/24", "10.0.2.0/30 area 1",
                                              "10.0.9.0/33 area 0"});
  if (key == "ip access-group" || key == "filter")
    return pick(rng, std::vector<std::string>{"web in", "edge", "ghost"});
  if (key == "switchport access vlan") return pick(rng, std::vector<std::string>{"10", "20", "99"});
  if (key == "interface" || key == "member")
    return pick(rng, std::vector<std::string>{"Eth0", "Eth1", "Eth9"});
  if (key == "pool") return pick(rng, std::vector<std::string>{"p1", "p9"});
  if (key == "region") return pick(rng, std::vector<std::string>{"r1", "r2", ""});
  return "x";
}

/// One stanza's text, of kKinds[kind] or of a random kind; (type, name)
/// pairs repeat across calls.
std::string random_stanza(Rng& rng, Dialect d, int kind_index = -1) {
  const bool ios = d == Dialect::kIosLike;
  const StanzaKind& kind =
      kind_index < 0 ? pick(rng, kKinds) : kKinds[static_cast<std::size_t>(kind_index)];
  std::string out = (ios ? kind.ios_type : kind.junos_type) + " " + pick(rng, kind.names) +
                    (ios ? "\n" : " {\n");
  const auto options = rng.uniform_int(0, 3);
  for (std::int64_t o = 0; o < options; ++o) {
    const std::string& key = pick(rng, ios ? kind.ios_keys : kind.junos_keys);
    const std::string value = random_value(rng, key);
    out += (ios ? "  " : "    ") + key + (value.empty() ? "" : " " + value) + (ios ? "\n" : ";\n");
  }
  return out + (ios ? "!\n" : "}\n");
}

/// Networks of both dialects whose devices keep a pool of stanzas, so
/// consecutive snapshots share most of them; some devices first appear
/// mid-window.
DiskDataset facts_dataset(std::uint64_t seed) {
  Rng rng(seed);
  DiskDataset data;
  const std::vector<Vendor> vendors = {Vendor::kCirrus, Vendor::kJunegrass, Vendor::kAristos};
  for (int n = 0; n < 4; ++n) {
    const std::string net = "net" + std::to_string(n);
    data.inventory.add_network(NetworkRecord{net, {}, {}});
    const auto devices = rng.uniform_int(3, 7);
    for (std::int64_t i = 0; i < devices; ++i) {
      const std::string id = net + "-d" + std::to_string(i);
      const Vendor vendor = pick(rng, vendors);
      data.inventory.add_device(DeviceRecord{id, net, vendor, "m", Role::kSwitch, "f"});
      if (rng.bernoulli(0.1)) continue;  // never archived
      const Dialect d = dialect_of(vendor);
      // Most devices hold an interface, a routing process and a
      // spanning tree, so processes of different devices meet.
      std::vector<std::string> pool = {random_stanza(rng, d, 0),
                                       random_stanza(rng, d, rng.bernoulli(0.5) ? 3 : 4),
                                       random_stanza(rng, d, 5)};
      while (pool.size() < 8) pool.push_back(random_stanza(rng, d));
      const int first_month = rng.bernoulli(0.3) ? static_cast<int>(rng.uniform_int(1, 4)) : 0;
      Timestamp t = month_start(first_month) + rng.uniform_int(0, 1000);
      while (t < month_start(kMonths)) {
        if (rng.bernoulli(0.3)) pool[static_cast<std::size_t>(rng.uniform_int(0, 7))] =
            random_stanza(rng, d);
        std::string text = d == Dialect::kIosLike ? "! device " + id + "\n" : "/* " + id + " */\n";
        for (const std::string& s : pool)
          if (rng.bernoulli(0.75)) text += s;
        data.snapshots.add(ConfigSnapshot{id, t, "alice", std::move(text)});
        t += rng.uniform_int(month_start(1) / 4, month_start(1) * 2);
      }
    }
  }
  return data;
}

// ---------------------------------------------- string-based reference

struct Metrics {
  int l2 = 0, l3 = 0, vlans = 0, bgp = 0, ospf = 0, mstp = 0;
  double bgp_size = 0, ospf_size = 0, intra = 0, inter = 0;
};

std::vector<Ipv4Prefix> addresses(const DeviceConfig& dev) {
  std::vector<Ipv4Prefix> out;
  for (const auto& s : dev.stanzas()) {
    if (normalize_type(s.type) != "interface") continue;
    for (const auto& o : s.options)
      if (o.key == "ip address" || o.key == "ip-address")
        if (const auto p = parse_prefix(o.value)) out.push_back(*p);
  }
  return out;
}

std::set<std::string> names_of(const DeviceConfig& dev, const std::string& agnostic) {
  std::set<std::string> out;
  for (const auto& s : dev.stanzas())
    if (normalize_type(s.type) == agnostic) out.insert(s.name);
  return out;
}

std::vector<Ipv4Prefix> networks_of(const Stanza& s) {
  std::vector<Ipv4Prefix> out;
  for (const auto& o : s.options)
    if (o.key == "network")
      if (const auto p = parse_prefix(split_ws(o.value).empty() ? "" : split_ws(o.value)[0]))
        out.push_back(*p);
  return out;
}

int intra_refs(const DeviceConfig& dev) {
  const auto acls = names_of(dev, "acl");
  const auto vlans = names_of(dev, "vlan");
  const auto ifaces = names_of(dev, "interface");
  const auto pools = names_of(dev, "pool");
  int refs = 0;
  for (const auto& s : dev.stanzas()) {
    const std::string agnostic = normalize_type(s.type);
    for (const auto& o : s.options) {
      const auto words = split_ws(o.value);
      if (agnostic == "interface" && (o.key == "ip access-group" || o.key == "filter"))
        refs += !words.empty() && acls.count(words[0]);
      if (agnostic == "interface" && o.key == "switchport access vlan")
        refs += vlans.count(o.value);
      if (agnostic == "vlan" && o.key == "interface") refs += ifaces.count(o.value);
      if (agnostic == "virtual-server" && o.key == "pool") refs += pools.count(o.value);
      if (agnostic == "link-aggregation" && o.key == "member") refs += ifaces.count(o.value);
    }
    if (agnostic == "router")
      for (const auto& p : networks_of(s))
        for (const auto& a : addresses(dev)) refs += p.contains(a.addr);
  }
  return refs;
}

// References from `dev` to what its peers (other device ids) define.
int inter_refs(const DeviceConfig& dev, const std::vector<DeviceConfig>& network) {
  std::set<std::uint32_t> addrs;
  std::set<Ipv4Prefix> subnets;
  std::set<std::string> vlans;
  for (const auto& peer : network) {
    if (peer.device_id() == dev.device_id()) continue;
    for (const auto& a : addresses(peer)) {
      addrs.insert(a.addr);
      subnets.insert(a.subnet());
    }
    const auto v = names_of(peer, "vlan");
    vlans.insert(v.begin(), v.end());
  }
  int refs = 0;
  for (const auto& s : dev.stanzas()) {
    const std::string agnostic = normalize_type(s.type);
    if (agnostic == "vlan") refs += vlans.count(s.name);
    if (agnostic != "router") continue;
    for (const auto& o : s.options) {
      const auto words = split_ws(o.value);
      if (o.key == "neighbor" && !words.empty())
        if (const auto ip = parse_ipv4(words[0])) refs += addrs.count(*ip);
    }
    for (const auto& p : networks_of(s)) refs += subnets.count(p.subnet());
  }
  return refs;
}

struct Proc {
  std::string device, protocol, region;
  std::set<std::uint32_t> neighbors, local;
  std::set<Ipv4Prefix> subnets;
};

bool adjacent(const Proc& a, const Proc& b) {
  if (a.protocol != b.protocol || a.device == b.device) return false;
  if (a.protocol == "bgp") {
    for (auto ip : a.neighbors)
      if (b.local.count(ip)) return true;
    for (auto ip : b.neighbors)
      if (a.local.count(ip)) return true;
    return false;
  }
  if (a.protocol == "ospf") {
    for (const auto& s : a.subnets)
      if (b.subnets.count(s)) return true;
    return false;
  }
  return !a.region.empty() && a.region == b.region;
}

Metrics reference_metrics(const std::vector<DeviceConfig>& network) {
  Metrics m;
  std::set<std::string> l2, l3, vlans;
  std::vector<Proc> procs;
  for (const auto& dev : network) {
    std::set<std::uint32_t> local;
    for (const auto& a : addresses(dev)) local.insert(a.addr);
    for (const auto& s : dev.stanzas()) {
      const std::string construct(construct_of(s.type));
      if (!construct.empty()) (layer_of(construct) == PlaneLayer::kL2 ? l2 : l3).insert(construct);
      const std::string agnostic = normalize_type(s.type);
      if (agnostic == "vlan") vlans.insert(s.name);
      if (agnostic == "spanning-tree")
        procs.push_back(
            Proc{dev.device_id(), "mstp", s.get("region").value_or(s.name), {}, local, {}});
      if (agnostic != "router" || construct.empty()) continue;
      Proc p{dev.device_id(), construct, "", {}, local, {}};
      for (const auto& o : s.options) {
        const auto words = split_ws(o.value);
        if (o.key == "neighbor" && !words.empty())
          if (const auto ip = parse_ipv4(words[0])) p.neighbors.insert(*ip);
      }
      for (const auto& n : networks_of(s)) p.subnets.insert(n.subnet());
      procs.push_back(std::move(p));
    }
  }
  m.l2 = static_cast<int>(l2.size());
  m.l3 = static_cast<int>(l3.size());
  m.vlans = static_cast<int>(vlans.size());

  // Connected components by repeated relabeling.
  std::vector<std::size_t> label(procs.size());
  std::iota(label.begin(), label.end(), std::size_t{0});
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < procs.size(); ++i)
      for (std::size_t j = 0; j < procs.size(); ++j)
        if (adjacent(procs[i], procs[j]) && label[j] < label[i]) {
          label[i] = label[j];
          changed = true;
        }
  }
  std::set<std::size_t> mstp;
  for (std::size_t i = 0; i < procs.size(); ++i)
    if (procs[i].protocol == "mstp") mstp.insert(label[i]);
  m.mstp = static_cast<int>(mstp.size());
  for (const std::string protocol : {"bgp", "ospf"}) {
    std::set<std::size_t> instances;
    int members = 0;
    for (std::size_t i = 0; i < procs.size(); ++i)
      if (procs[i].protocol == protocol) {
        instances.insert(label[i]);
        ++members;
      }
    const int count = static_cast<int>(instances.size());
    const double size = count > 0 ? static_cast<double>(members) / count : 0;
    (protocol == "bgp" ? m.bgp : m.ospf) = count;
    (protocol == "bgp" ? m.bgp_size : m.ospf_size) = size;
  }

  int intra = 0, inter = 0;
  for (const auto& dev : network) {
    intra += intra_refs(dev);
    inter += inter_refs(dev, network);
  }
  if (!network.empty()) {
    m.intra = static_cast<double>(intra) / static_cast<double>(network.size());
    m.inter = static_cast<double>(inter) / static_cast<double>(network.size());
  }
  return m;
}

/// parse() of each device's last snapshot before the end of month `m`.
std::vector<DeviceConfig> month_end_state(const DiskDataset& data, const std::string& network,
                                          int m) {
  std::map<std::string, const DeviceRecord*> by_id;
  for (const auto* d : data.inventory.devices_in(network)) by_id[d->device_id] = d;
  std::vector<DeviceConfig> out;
  for (const auto& [id, d] : by_id) {
    const ConfigSnapshot* last = nullptr;
    for (const auto& s : data.snapshots.for_device(id))
      if (s.time < month_start(m + 1)) last = &s;
    if (last != nullptr) out.push_back(parse(last->text, dialect_of(d->vendor), id));
  }
  return out;
}

void expect_design_matches(const CaseTable& table, const DiskDataset& data,
                           const std::string& what) {
  ASSERT_EQ(table.size(), data.inventory.networks().size() * kMonths) << what;
  for (const Case& row : table.cases()) {
    const Metrics want = reference_metrics(month_end_state(data, row.network_id, row.month));
    const std::string at = what + " " + row.network_id + " month " + std::to_string(row.month);
    EXPECT_EQ(row[Practice::kNumL2Protocols], want.l2) << at;
    EXPECT_EQ(row[Practice::kNumL3Protocols], want.l3) << at;
    EXPECT_EQ(row[Practice::kNumProtocols], want.l2 + want.l3) << at;
    EXPECT_EQ(row[Practice::kNumVlans], want.vlans) << at;
    EXPECT_EQ(row[Practice::kNumBgpInstances], want.bgp) << at;
    EXPECT_EQ(row[Practice::kNumOspfInstances], want.ospf) << at;
    EXPECT_EQ(row[Practice::kAvgBgpInstanceSize], want.bgp_size) << at;
    EXPECT_EQ(row[Practice::kAvgOspfInstanceSize], want.ospf_size) << at;
    EXPECT_EQ(row[Practice::kIntraDeviceComplexity], want.intra) << at;
    EXPECT_EQ(row[Practice::kInterDeviceComplexity], want.inter) << at;
  }
}

AnalysisSession session_over(const DiskDataset& data, int months, int threads) {
  SessionOptions opts;
  opts.threads = threads;
  opts.inference.num_months = months;
  return AnalysisSession(data.inventory, data.snapshots, data.tickets, std::move(opts));
}

TEST(MonthEndFacts, DatasetExercisesEveryFact) {
  // Every metric must move, and every case the facts must get right
  // must occur, or the comparison proves little.
  std::set<double> inter, bgp, ospf;
  std::set<int> mstp;
  std::set<Dialect> dialects;
  bool repeated = false, unparsed = false, mid_window = false;
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const DiskDataset data = facts_dataset(seed);
    for (const auto& net : data.inventory.networks()) {
      for (int m = 0; m < kMonths; ++m) {
        const auto state = month_end_state(data, net.network_id, m);
        const Metrics got = reference_metrics(state);
        inter.insert(got.inter);
        bgp.insert(got.bgp_size);
        ospf.insert(got.ospf_size);
        mstp.insert(got.mstp);
        for (const auto& dev : state) {
          std::set<std::pair<std::string, std::string>> keys;
          for (const auto& s : dev.stanzas()) {
            repeated |= !keys.emplace(s.type, s.name).second;
            for (const auto& o : s.options)
              unparsed |=
                  (o.key == "ip address" || o.key == "ip-address") && !parse_prefix(o.value);
          }
        }
      }
      for (const auto* d : data.inventory.devices_in(net.network_id)) {
        const auto& snaps = data.snapshots.for_device(d->device_id);
        if (snaps.empty()) continue;
        dialects.insert(dialect_of(d->vendor));
        mid_window |= snaps.front().time >= month_start(1);
      }
    }
  }
  EXPECT_GE(inter.size(), 4u);
  EXPECT_GE(bgp.size(), 3u);
  EXPECT_GE(ospf.size(), 3u);
  EXPECT_GE(mstp.size(), 3u);
  EXPECT_EQ(dialects.size(), 2u);
  EXPECT_TRUE(repeated);
  EXPECT_TRUE(unparsed);
  EXPECT_TRUE(mid_window);
}

TEST(MonthEndFacts, RoutingInstancesOfParsedConfigsEqualTheReference) {
  // The DeviceConfig entry points fold the same facts; MSTP instances
  // show only here, since the case table has no MSTP column.
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const DiskDataset data = facts_dataset(seed);
    for (const auto& net : data.inventory.networks()) {
      for (int m = 0; m < kMonths; ++m) {
      const auto state = month_end_state(data, net.network_id, m);
      const Metrics want = reference_metrics(state);
      const auto instances = extract_routing_instances(state);
      const std::string at = net.network_id + " month " + std::to_string(m);
      EXPECT_EQ(instance_stats(instances, "bgp").count, want.bgp) << at;
      EXPECT_EQ(instance_stats(instances, "ospf").mean_size, want.ospf_size) << at;
      EXPECT_EQ(instance_stats(instances, "mstp").count, want.mstp) << at;
      const NetworkComplexity cx = referential_complexity(state);
      EXPECT_EQ(cx.mean_intra, want.intra) << at;
      EXPECT_EQ(cx.mean_inter, want.inter) << at;
      EXPECT_EQ(count_vlans(state), want.vlans) << at;
      EXPECT_EQ(count_protocols(state).l2, want.l2) << at;
      }
    }
  }
}

TEST(MonthEndFacts, DesignMetricsEqualTheReferenceAtEveryThreadCount) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const DiskDataset data = facts_dataset(seed);
    for (int threads : {1, 2, 8}) {
      AnalysisSession session = session_over(data, kMonths, threads);
      expect_design_matches(session.case_table(), data,
                            "seed " + std::to_string(seed) + " threads " + std::to_string(threads));
    }
  }
}

TEST(MonthEndFacts, DesignMetricsEqualTheReferenceAfterAppendingTheLastMonth) {
  for (std::uint64_t seed : {11u, 12u}) {
    const DiskDataset data = facts_dataset(seed);
    const SplitDataset split = split_dataset(data, kMonths - 1);
    for (int threads : {1, 8}) {
      AnalysisSession session = session_over(split.base, kMonths - 1, threads);
      session.case_table();
      for (const MonthDelta& delta : split.deltas) session.append_month(delta);
      expect_design_matches(session.case_table(), data,
                            "appended, seed " + std::to_string(seed) + " threads " +
                                std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace mpa
