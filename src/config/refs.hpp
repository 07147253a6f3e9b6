// Configuration reference extraction (Table 1, D6).
//
// Following Benson et al.'s referential-complexity metrics, we count:
//
//  * intra-device references — options in one stanza that name another
//    stanza on the same device (an interface attaching an ACL, an
//    interface's VLAN membership, a virtual server naming a pool, a
//    routing process covering an interface's subnet, ...);
//  * inter-device references — options on one device that name entities
//    defined on other devices of the same network (BGP neighbor
//    addresses, VLANs spanning devices, OSPF networks shared with peers).
//
// "These metrics capture the configuration complexity imposed in
// aggregate by all aspects of a network's design."
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "config/addr.hpp"
#include "config/stanza.hpp"

namespace mpa {

/// Reference counts for a single device (in the context of a network).
struct RefCounts {
  int intra = 0;
  int inter = 0;
};

/// Count the intra-device references inside one device config.
int count_intra_refs(const DeviceConfig& dev);

/// Count references from `dev` to entities configured on the other
/// devices of its network (`peers` excludes `dev` itself; including it
/// is harmless — self is skipped by device id).
int count_inter_refs(const DeviceConfig& dev, const std::vector<DeviceConfig>& peers);

/// Per-device counts in network context.
RefCounts count_references(const DeviceConfig& dev, const std::vector<DeviceConfig>& network);

/// Mean intra/inter reference counts over a network's devices —
/// the D6 metrics ("we enumerate the *average* number of inter- and
/// intra-device configuration references in a network").
struct NetworkComplexity {
  double mean_intra = 0;
  double mean_inter = 0;
};

NetworkComplexity referential_complexity(const std::vector<DeviceConfig>& network);

/// Everything referential complexity reads from one device config:
/// what it defines that peers may name, and where it names peers.
/// Computed once per distinct config, so a network-month costs one
/// fold over its devices' facts instead of re-gathering every peer's
/// facts for every device.
struct RefFacts {
  std::string device_id;
  int intra = 0;  ///< count_intra_refs()
  // Defined here (sorted; addrs and subnets also unique):
  std::vector<std::uint32_t> addrs;  ///< Interface addresses.
  std::vector<Ipv4Prefix> subnets;   ///< Their canonical subnets.
  std::vector<std::string> vlans;    ///< One name per VLAN stanza.
  // Inter-device reference sites besides the VLAN stanzas:
  std::vector<std::uint32_t> neighbor_ips;  ///< Router `neighbor` addresses.
  std::vector<Ipv4Prefix> network_subnets;  ///< Router `network` statement subnets.
};

RefFacts ref_facts(const DeviceConfig& dev);

/// referential_complexity() of the configs the facts were taken from.
/// Configs sharing a device id count as one device's, as in
/// count_inter_refs().
NetworkComplexity fold_referential_complexity(const std::vector<const RefFacts*>& network);

}  // namespace mpa
