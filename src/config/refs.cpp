#include "config/refs.hpp"

#include <algorithm>
#include <span>

namespace mpa {
namespace {

// What a set of configs defines, one entry per (config, fact): a
// sorted multiset whose count says how many of the configs define it.
template <typename T>
struct Defined {
  std::vector<T> items;
  void add(const std::vector<T>& sorted) {
    for (std::size_t i = 0; i < sorted.size(); ++i)
      if (i == 0 || !(sorted[i] == sorted[i - 1])) items.push_back(sorted[i]);
  }
  std::ptrdiff_t count(const T& x) const {
    const auto [lo, hi] = std::equal_range(items.begin(), items.end(), x);
    return hi - lo;
  }
};

struct PeerFold {
  Defined<std::uint32_t> addrs;
  Defined<Ipv4Prefix> subnets;
  Defined<NameId> vlans;

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
  for (const NameId v : dev.vlans) refs += on_peer(fold.vlans, &RefFacts::vlans, v);
  return refs;
}

}  // namespace

int count_intra_refs(const DeviceConfig& dev) {
  return network_facts({&dev}).devices[0].refs.intra;
}

int count_inter_refs(const DeviceConfig& dev, const std::vector<DeviceConfig>& peers) {
  std::vector<const DeviceConfig*> configs{&dev};
  for (const auto& p : peers)
    if (p.device_id() != dev.device_id()) configs.push_back(&p);
  const NetworkFacts facts = network_facts(configs);
  PeerFold fold;
  for (std::size_t i = 1; i < facts.devices.size(); ++i) fold.add(facts.devices[i].refs);
  fold.seal();
  return inter_refs(facts.devices[0].refs, fold, {});
}

RefCounts count_references(const DeviceConfig& dev, const std::vector<DeviceConfig>& network) {
  return RefCounts{count_intra_refs(dev), count_inter_refs(dev, network)};
}

NetworkComplexity referential_complexity(const std::vector<DeviceConfig>& network) {
  return fold_referential_complexity(network_facts(network).borrow());
}

NetworkComplexity fold_referential_complexity(const std::vector<const DeviceFacts*>& network) {
  if (network.empty()) return {};
  PeerFold fold;
  for (const DeviceFacts* f : network) fold.add(f->refs);
  fold.seal();
  // Runs of one device id: each run's states are none of each other's peers.
  std::vector<const RefFacts*> by_id;
  by_id.reserve(network.size());
  for (const DeviceFacts* f : network) by_id.push_back(&f->refs);
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
