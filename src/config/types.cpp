#include "config/types.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace mpa {
namespace {

struct TypeMapping {
  std::string_view native;
  std::string_view agnostic;
};

// Both dialects' native types, mapped to the vendor-agnostic id.
constexpr std::array<TypeMapping, 26> kTypeMap = {{
    // interfaces
    {"interface", "interface"},
    {"interfaces", "interface"},
    // VLAN definitions
    {"vlan", "vlan"},
    {"vlans", "vlan"},
    // access control
    {"ip access-list", "acl"},
    {"firewall-filter", "acl"},
    // routing processes
    {"router bgp", "router"},
    {"router ospf", "router"},
    {"protocols-bgp", "router"},
    {"protocols-ospf", "router"},
    // spanning tree
    {"spanning-tree", "spanning-tree"},
    {"protocols-mstp", "spanning-tree"},
    // link aggregation
    {"port-channel", "link-aggregation"},
    {"lag", "link-aggregation"},
    // misc L2 helpers
    {"udld", "udld"},
    {"ip dhcp-relay", "dhcp-relay"},
    {"dhcp-relay", "dhcp-relay"},
    // users
    {"username", "user"},
    {"login-user", "user"},
    // middlebox constructs
    {"pool", "pool"},
    {"virtual-server", "virtual-server"},
    // management-plane plumbing
    {"snmp-server", "snmp"},
    {"snmp", "snmp"},
    {"qos policy", "qos"},
    {"class-of-service", "qos"},
    {"sflow", "sflow"},
}};

// kTypeMap ordered by native length.
constexpr auto kByLength = [] {
  auto sorted = kTypeMap;
  std::sort(sorted.begin(), sorted.end(), [](const TypeMapping& a, const TypeMapping& b) {
    return a.native.size() < b.native.size();
  });
  return sorted;
}();

}  // namespace

std::string normalize_type(std::string_view native_type) {
  return std::string(agnostic_type(native_type));
}

std::string_view agnostic_type(std::string_view native_type) {
  // Inference asks this of every stanza of every month-end state, so a
  // lookup compares only the names of the same length.
  const auto same_length = std::lower_bound(
      kByLength.begin(), kByLength.end(), native_type.size(),
      [](const TypeMapping& m, std::size_t n) { return m.native.size() < n; });
  for (auto it = same_length; it != kByLength.end() && it->native.size() == native_type.size();
       ++it) {
    if (it->native == native_type) return it->agnostic;
  }
  return native_type;
}

bool is_middlebox_type(std::string_view agnostic_type) {
  return agnostic_type == "pool" || agnostic_type == "virtual-server";
}

PlaneLayer layer_of(std::string_view construct) {
  if (construct == "vlan" || construct == "spanning-tree" || construct == "link-aggregation" ||
      construct == "udld" || construct == "dhcp-relay") {
    return PlaneLayer::kL2;
  }
  if (construct == "bgp" || construct == "ospf") return PlaneLayer::kL3;
  return PlaneLayer::kNeither;
}

std::string_view construct_of(std::string_view native_type) {
  return construct_of(native_type, agnostic_type(native_type));
}

std::string_view construct_of(std::string_view native_type, std::string_view agnostic) {
  if (agnostic == "router") {
    // The protocol is the routing-process flavour, recoverable from the
    // native type on both dialects.
    if (native_type.find("bgp") != std::string_view::npos) return "bgp";
    if (native_type.find("ospf") != std::string_view::npos) return "ospf";
    return {};
  }
  if (layer_of(agnostic) != PlaneLayer::kNeither) return agnostic;
  return {};
}

}  // namespace mpa
