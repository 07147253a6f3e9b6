#include "config/facts.hpp"

#include <algorithm>
#include <array>

#include "config/lint.hpp"
#include "config/types.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

// The protocol constructs, in bit order: L2 ones, then L3 ones.
constexpr std::array<std::string_view, 7> kConstructs = {
    "vlan", "spanning-tree", "link-aggregation", "udld", "dhcp-relay", "bgp", "ospf"};

std::uint8_t construct_bit(std::string_view construct) {
  for (std::size_t i = 0; i < kConstructs.size(); ++i)
    if (kConstructs[i] == construct) return static_cast<std::uint8_t>(1u << i);
  return 0;
}

template <typename T>
void sort_unique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

StanzaFacts stanza_facts(const Stanza& s, NameTable* vlans) {
  StanzaFacts f;
  f.stanza = &s;
  f.agnostic = agnostic_type(s.type);
  f.construct = construct_of(s.type, f.agnostic);
  f.construct_bit = construct_bit(f.construct);
  const auto ref = [&](std::string_view agnostic, std::string_view name) {
    f.refs.push_back(NameRef{agnostic, name});
  };
  if (f.agnostic == "interface") {
    for (const auto& o : s.options) {
      if (o.key == "ip address" || o.key == "ip-address") {
        if (const auto p = parse_prefix(o.value)) f.addresses.push_back(*p);
      } else if (o.key == "ip access-group" || o.key == "filter") {
        // ACL attachment: IOS "ip access-group NAME", JunOS "filter NAME".
        if (const std::string_view acl = first_token(o.value); !acl.empty()) ref("acl", acl);
      } else if (o.key == "switchport access vlan") {
        ref("vlan", o.value);  // VLAN membership on IOS-like devices
      }
    }
  } else if (f.agnostic == "vlan") {
    // VLAN membership on JunOS-like devices: "interface IFNAME".
    for (const auto& o : s.options)
      if (o.key == "interface") ref("interface", o.value);
    if (vlans != nullptr) f.vlan = vlans->intern(s.name);
  } else if (f.agnostic == "virtual-server") {
    for (const auto& o : s.options)
      if (o.key == "pool") ref("pool", o.value);
  } else if (f.agnostic == "link-aggregation") {
    for (const auto& o : s.options)
      if (o.key == "member") ref("interface", o.value);
  } else if (f.agnostic == "router") {
    for (const auto& o : s.options) {
      if (o.key == "neighbor") {
        if (const auto ip = parse_ipv4(first_token(o.value))) f.neighbors.push_back(*ip);
      } else if (o.key == "network") {
        if (const auto p = parse_prefix(first_token(o.value))) f.networks.push_back(p->subnet());
      }
    }
  } else if (f.agnostic == "spanning-tree") {
    f.region = s.name;
    const auto region = std::find_if(s.options.begin(), s.options.end(),
                                     [](const Option& o) { return o.key == "region"; });
    if (region != s.options.end()) f.region = region->value;
  }
  return f;
}

DeviceFacts device_facts(const DeviceView& dev) {
  DeviceFacts out;
  RefFacts& r = out.refs;
  r.device_id = dev.device_id();
  for (const auto& a : dev.addresses()) {
    r.addrs.push_back(a.prefix.addr);
    r.subnets.push_back(a.prefix.subnet());
  }
  for (const StanzaFacts* f : dev.stanzas()) {
    out.constructs |= f->construct_bit;
    for (const NameRef& ref : f->refs) r.intra += dev.defines(ref.agnostic, ref.name);
    if (f->agnostic == "router") {
      // A "network" statement covering a local interface subnet is an
      // intra-device reference from the control plane to that interface.
      for (const Ipv4Prefix& p : f->networks)
        for (const auto& a : dev.addresses()) r.intra += p.contains(a.prefix.addr);
      r.neighbor_ips.insert(r.neighbor_ips.end(), f->neighbors.begin(), f->neighbors.end());
      r.network_subnets.insert(r.network_subnets.end(), f->networks.begin(), f->networks.end());
      if (!f->construct.empty())
        out.processes.push_back(ProcessFacts{
            f->construct == "bgp" ? RoutingProtocol::kBgp : RoutingProtocol::kOspf, f});
    } else if (f->agnostic == "vlan") {
      r.vlans.push_back(f->vlan);
    } else if (f->agnostic == "spanning-tree") {
      out.processes.push_back(ProcessFacts{RoutingProtocol::kMstp, f});
    }
  }
  sort_unique(r.addrs);
  sort_unique(r.subnets);
  std::sort(r.vlans.begin(), r.vlans.end());
  return out;
}

std::vector<const DeviceFacts*> NetworkFacts::borrow() const {
  std::vector<const DeviceFacts*> out;
  out.reserve(devices.size());
  for (const DeviceFacts& d : devices) out.push_back(&d);
  return out;
}

NetworkFacts network_facts(const std::vector<const DeviceConfig*>& configs) {
  NetworkFacts out;
  NameTable vlans;
  out.stanzas.reserve(configs.size());
  out.devices.reserve(configs.size());
  for (const DeviceConfig* config : configs) {
    auto& facts = out.stanzas.emplace_back();
    facts.reserve(config->stanzas().size());  // stanzas point into it
    std::vector<const StanzaFacts*> stanzas;
    for (const Stanza& s : config->stanzas())
      stanzas.push_back(&facts.emplace_back(stanza_facts(s, &vlans)));
    const DeviceView view(config->device_id(), std::move(stanzas), nullptr);
    out.devices.push_back(device_facts(view));
  }
  return out;
}

NetworkFacts network_facts(const std::vector<DeviceConfig>& configs) {
  std::vector<const DeviceConfig*> borrowed;
  borrowed.reserve(configs.size());
  for (const DeviceConfig& config : configs) borrowed.push_back(&config);
  return network_facts(borrowed);
}

}  // namespace mpa
