#include "config/routing.hpp"

#include <algorithm>
#include <map>
#include <numeric>

namespace mpa {
namespace {

/// Plain union-find over process indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

std::string_view to_string(RoutingProtocol p) {
  switch (p) {
    case RoutingProtocol::kBgp: return "bgp";
    case RoutingProtocol::kOspf: return "ospf";
    case RoutingProtocol::kMstp: return "mstp";
  }
  return {};
}

/// One process with the device state it runs on.
struct Process {
  const DeviceFacts* device = nullptr;
  const ProcessFacts* facts = nullptr;
};

std::vector<Process> processes_of(const std::vector<const DeviceFacts*>& network) {
  std::vector<Process> out;
  for (const DeviceFacts* d : network)
    for (const ProcessFacts& p : d->processes) out.push_back(Process{d, &p});
  return out;
}

bool adjacent(const Process& a, const Process& b) {
  const RoutingProtocol protocol = a.facts->protocol;
  if (protocol != b.facts->protocol) return false;
  const StanzaFacts& sa = *a.facts->stanza;
  const StanzaFacts& sb = *b.facts->stanza;
  bool linked = false;
  if (protocol == RoutingProtocol::kBgp) {
    // One names an interface address of the other's device.
    const auto names_addr_of = [](const StanzaFacts& s, const DeviceFacts& peer) {
      return std::any_of(s.neighbors.begin(), s.neighbors.end(), [&](std::uint32_t ip) {
        return std::binary_search(peer.refs.addrs.begin(), peer.refs.addrs.end(), ip);
      });
    };
    linked = names_addr_of(sa, *b.device) || names_addr_of(sb, *a.device);
  } else if (protocol == RoutingProtocol::kOspf) {
    // Their network statements cover a common subnet.
    linked = std::any_of(sa.networks.begin(), sa.networks.end(), [&](const Ipv4Prefix& p) {
      return std::find(sb.networks.begin(), sb.networks.end(), p) != sb.networks.end();
    });
  } else {
    linked = !sa.region.empty() && sa.region == sb.region;
  }
  return linked && a.device->refs.device_id != b.device->refs.device_id;
}

/// Unites every adjacent pair, in (i, j) order.
UnionFind unite_adjacent(const std::vector<Process>& procs) {
  UnionFind uf(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i)
    for (std::size_t j = i + 1; j < procs.size(); ++j)
      if (adjacent(procs[i], procs[j])) uf.unite(i, j);
  return uf;
}

}  // namespace

std::vector<RoutingProcess> extract_processes(const std::vector<DeviceConfig>& network) {
  const NetworkFacts facts = network_facts(network);
  std::vector<RoutingProcess> out;
  for (const Process& p : processes_of(facts.borrow()))
    out.push_back(RoutingProcess{std::string(p.device->refs.device_id),
                                 std::string(to_string(p.facts->protocol)),
                                 p.facts->stanza->stanza->name});
  return out;
}

std::vector<RoutingInstance> extract_routing_instances(const std::vector<DeviceConfig>& network) {
  const NetworkFacts facts = network_facts(network);
  const std::vector<Process> procs = processes_of(facts.borrow());
  UnionFind uf = unite_adjacent(procs);
  std::map<std::size_t, RoutingInstance> groups;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    auto& inst = groups[uf.find(i)];
    inst.protocol = to_string(procs[i].facts->protocol);
    inst.member_devices.emplace_back(procs[i].device->refs.device_id);
  }
  std::vector<RoutingInstance> out;
  out.reserve(groups.size());
  for (auto& [root, inst] : groups) out.push_back(std::move(inst));
  return out;
}

InstanceStats instance_stats(const std::vector<RoutingInstance>& instances,
                             std::string_view protocol) {
  InstanceStats st;
  double total = 0;
  for (const auto& inst : instances) {
    if (inst.protocol != protocol) continue;
    ++st.count;
    total += static_cast<double>(inst.size());
  }
  if (st.count > 0) st.mean_size = total / st.count;
  return st;
}

RoutingStats routing_stats(const std::vector<const DeviceFacts*>& network) {
  const std::vector<Process> procs = processes_of(network);
  UnionFind uf = unite_adjacent(procs);
  // A protocol's instances are its processes' distinct roots; their
  // sizes sum to its process count.
  RoutingStats out;
  int bgp = 0, ospf = 0;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    const RoutingProtocol protocol = procs[i].facts->protocol;
    if (protocol == RoutingProtocol::kMstp) continue;
    InstanceStats& st = protocol == RoutingProtocol::kBgp ? out.bgp : out.ospf;
    ++(protocol == RoutingProtocol::kBgp ? bgp : ospf);
    st.count += uf.find(i) == i;
  }
  if (out.bgp.count > 0) out.bgp.mean_size = static_cast<double>(bgp) / out.bgp.count;
  if (out.ospf.count > 0) out.ospf.mean_size = static_cast<double>(ospf) / out.ospf.count;
  return out;
}

}  // namespace mpa
