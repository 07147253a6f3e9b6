#include "config/refs.hpp"

#include <algorithm>
#include <set>
#include <span>
#include <string_view>

#include "config/addr.hpp"
#include "config/types.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

// All interface addresses configured on a device (both dialects).
std::vector<Ipv4Prefix> interface_addresses(const DeviceConfig& dev) {
  std::vector<Ipv4Prefix> out;
  for (const auto& s : dev.stanzas()) {
    if (agnostic_type(s.type) != "interface") continue;
    for (const auto& o : s.options) {
      if (o.key == "ip address" || o.key == "ip-address") {
        if (const auto p = parse_prefix(o.value)) out.push_back(*p);
      }
    }
  }
  return out;
}

// Names of a device's stanzas of one agnostic type (views into `dev`).
std::set<std::string_view> names_of(const DeviceConfig& dev, std::string_view agnostic) {
  std::set<std::string_view> out;
  for (const auto& s : dev.stanzas())
    if (agnostic_type(s.type) == agnostic) out.insert(s.name);
  return out;
}

// The "network <prefix> [area N]" statements of a routing stanza.
std::vector<Ipv4Prefix> network_statements(const Stanza& s) {
  std::vector<Ipv4Prefix> out;
  for (const auto& o : s.options) {
    if (o.key != "network") continue;
    if (const auto p = parse_prefix(first_token(o.value))) out.push_back(*p);
  }
  return out;
}

template <typename T>
void sort_unique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// What a set of configs defines, one entry per (config, fact): a
// sorted multiset whose count says how many of the configs define it.
template <typename T>
struct Defined {
  std::vector<T> items;
  template <typename Src>
  void add(const std::vector<Src>& sorted) {
    for (std::size_t i = 0; i < sorted.size(); ++i)
      if (i == 0 || !(sorted[i] == sorted[i - 1])) items.push_back(T(sorted[i]));
  }
  std::ptrdiff_t count(const T& x) const {
    const auto [lo, hi] = std::equal_range(items.begin(), items.end(), x);
    return hi - lo;
  }
};

struct PeerFold {
  Defined<std::uint32_t> addrs;
  Defined<Ipv4Prefix> subnets;
  Defined<std::string_view> vlans;  ///< Views into the folded facts.

  void add(const RefFacts& f) {
    addrs.add(f.addrs);
    subnets.add(f.subnets);
    vlans.add(f.vlans);
  }
  void seal() {
    std::sort(addrs.items.begin(), addrs.items.end());
    std::sort(subnets.items.begin(), subnets.items.end());
    std::sort(vlans.items.begin(), vlans.items.end());
  }
};

// Reference sites of `dev` naming something a folded config defines,
// not counting the configs in `own` (dev's own device).
int inter_refs(const RefFacts& dev, const PeerFold& fold, std::span<const RefFacts* const> own) {
  const auto on_peer = [&](const auto& defined, auto RefFacts::*field, const auto& x) {
    std::ptrdiff_t n = defined.count(x);
    for (const RefFacts* o : own)
      n -= std::binary_search((o->*field).begin(), (o->*field).end(), x);
    return n > 0;
  };
  int refs = 0;
  // BGP neighbor statements naming a peer device's address.
  for (const std::uint32_t ip : dev.neighbor_ips) refs += on_peer(fold.addrs, &RefFacts::addrs, ip);
  // OSPF/BGP network statements covering a subnet shared with a peer.
  for (const Ipv4Prefix& p : dev.network_subnets)
    refs += on_peer(fold.subnets, &RefFacts::subnets, p);
  // A VLAN spanning devices: defined here and on at least one peer.
  for (const std::string& v : dev.vlans)
    refs += on_peer(fold.vlans, &RefFacts::vlans, std::string_view(v));
  return refs;
}

}  // namespace

int count_intra_refs(const DeviceConfig& dev) {
  const auto acls = names_of(dev, "acl");
  const auto vlans = names_of(dev, "vlan");
  const auto ifaces = names_of(dev, "interface");
  const auto pools = names_of(dev, "pool");
  const auto addrs = interface_addresses(dev);

  int refs = 0;
  for (const auto& s : dev.stanzas()) {
    const std::string_view agnostic = agnostic_type(s.type);
    if (agnostic == "interface") {
      for (const auto& o : s.options) {
        // ACL attachment: IOS "ip access-group NAME", JunOS "filter NAME".
        if (o.key == "ip access-group" || o.key == "filter") {
          const std::string_view acl = first_token(o.value);
          if (!acl.empty() && acls.count(acl)) ++refs;
        }
        // VLAN membership on IOS-like devices.
        if (o.key == "switchport access vlan" && vlans.count(o.value)) ++refs;
      }
    } else if (agnostic == "vlan") {
      // VLAN membership on JunOS-like devices: "interface IFNAME".
      for (const auto& o : s.options)
        if (o.key == "interface" && ifaces.count(o.value)) ++refs;
    } else if (agnostic == "virtual-server") {
      for (const auto& o : s.options)
        if (o.key == "pool" && pools.count(o.value)) ++refs;
    } else if (agnostic == "link-aggregation") {
      for (const auto& o : s.options)
        if (o.key == "member" && ifaces.count(o.value)) ++refs;
    } else if (agnostic == "router") {
      // A "network" statement covering a local interface subnet is an
      // intra-device reference from the control plane to that interface.
      for (const auto& p : network_statements(s))
        for (const auto& a : addrs)
          if (p.contains(a.addr)) ++refs;
    }
  }
  return refs;
}

RefFacts ref_facts(const DeviceConfig& dev) {
  RefFacts f;
  f.device_id = dev.device_id();
  f.intra = count_intra_refs(dev);
  for (const auto& a : interface_addresses(dev)) {
    f.addrs.push_back(a.addr);
    f.subnets.push_back(a.subnet());
  }
  for (const auto& s : dev.stanzas()) {
    const std::string_view agnostic = agnostic_type(s.type);
    if (agnostic == "router") {
      for (const auto& o : s.options)
        if (o.key == "neighbor")
          if (const auto ip = parse_ipv4(first_token(o.value))) f.neighbor_ips.push_back(*ip);
      for (const auto& p : network_statements(s)) f.network_subnets.push_back(p.subnet());
    } else if (agnostic == "vlan") {
      f.vlans.push_back(s.name);
    }
  }
  sort_unique(f.addrs);
  sort_unique(f.subnets);
  std::sort(f.vlans.begin(), f.vlans.end());
  return f;
}

int count_inter_refs(const DeviceConfig& dev, const std::vector<DeviceConfig>& peers) {
  std::vector<RefFacts> facts;
  for (const auto& p : peers)
    if (p.device_id() != dev.device_id()) facts.push_back(ref_facts(p));
  PeerFold fold;
  for (const RefFacts& f : facts) fold.add(f);
  fold.seal();
  return inter_refs(ref_facts(dev), fold, {});
}

RefCounts count_references(const DeviceConfig& dev, const std::vector<DeviceConfig>& network) {
  return RefCounts{count_intra_refs(dev), count_inter_refs(dev, network)};
}

NetworkComplexity referential_complexity(const std::vector<DeviceConfig>& network) {
  std::vector<RefFacts> facts;
  facts.reserve(network.size());
  for (const auto& dev : network) facts.push_back(ref_facts(dev));
  std::vector<const RefFacts*> ptrs;
  for (const auto& f : facts) ptrs.push_back(&f);
  return fold_referential_complexity(ptrs);
}

NetworkComplexity fold_referential_complexity(const std::vector<const RefFacts*>& network) {
  if (network.empty()) return {};
  PeerFold fold;
  for (const RefFacts* f : network) fold.add(*f);
  fold.seal();
  // Runs of one device id: each run's configs are none of each other's peers.
  std::vector<const RefFacts*> by_id = network;
  std::stable_sort(by_id.begin(), by_id.end(), [](const RefFacts* a, const RefFacts* b) {
    return a->device_id < b->device_id;
  });
  // Integer sums, so the order they are added in cannot change them.
  double intra = 0, inter = 0;
  for (auto run = by_id.begin(); run != by_id.end();) {
    const auto end = std::find_if(run, by_id.end(), [&](const RefFacts* f) {
      return f->device_id != (*run)->device_id;
    });
    const std::span<const RefFacts* const> own(run, end);
    for (const RefFacts* f : own) {
      intra += f->intra;
      inter += inter_refs(*f, fold, own);
    }
    run = end;
  }
  const double n = static_cast<double>(network.size());
  return NetworkComplexity{intra / n, inter / n};
}

}  // namespace mpa
