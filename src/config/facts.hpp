// Config facts: what the design metrics (Table 1, D4-D6) and the lint
// index read of a config, derived once per stanza and once per device
// state.
//
// A StanzaFacts holds what one stanza contributes: its agnostic type,
// protocol construct, interface addresses, router `neighbor`/`network`
// targets, references to other stanzas by name, MSTP region and VLAN
// name id. StanzaTable derives it once per distinct stanza, as it
// interns it. A DeviceFacts holds what one device state contributes to
// a network-month: its RefFacts, a bitset of the protocol constructs it
// instantiates and its routing processes. A month then folds its
// states' DeviceFacts with integer work only (metrics/design_metrics,
// refs.hpp, routing.hpp).
//
// Parsed DeviceConfigs take the same path (network_facts()), so every
// design metric has one implementation.
#pragma once

// srclint-disable-file(unordered-iteration): NameTable's index is only
// looked up, never iterated; ids come from insertion order.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "config/addr.hpp"
#include "config/stanza.hpp"

namespace mpa {

class DeviceView;

using NameId = std::uint32_t;
inline constexpr NameId kNoName = ~NameId{0};

/// Dense ids for names, in first-seen order. Holds views: the named
/// bytes must outlive the table. Not synchronized.
class NameTable {
 public:
  NameId intern(std::string_view name) {
    return ids_.try_emplace(name, static_cast<NameId>(ids_.size())).first->second;
  }

 private:
  std::unordered_map<std::string_view, NameId> ids_;
};

/// Bits of the protocol constructs (construct_of(), types.hpp).
inline constexpr std::uint8_t kL2Constructs = 0x1f;  ///< vlan .. dhcp-relay
inline constexpr std::uint8_t kL3Constructs = 0x60;  ///< bgp, ospf

/// A reference from a stanza to a stanza of its device, by name.
struct NameRef {
  std::string_view agnostic;  ///< Agnostic type of the named stanza.
  std::string_view name;
};

/// What lint and the design metrics read of one stanza. Views point
/// into the stanza or into static storage.
struct StanzaFacts {
  const Stanza* stanza = nullptr;
  std::string_view agnostic;         ///< agnostic_type(stanza->type).
  std::string_view construct;        ///< construct_of(); empty when none.
  std::uint8_t construct_bit = 0;    ///< Its bit in kL2/kL3Constructs; 0 when none.
  std::vector<Ipv4Prefix> addresses;  ///< Interface: address options that parse.
  std::vector<NameRef> refs;          ///< Intra-device references by name.
  std::vector<std::uint32_t> neighbors;  ///< Router: `neighbor` addresses that parse.
  std::vector<Ipv4Prefix> networks;  ///< Router: canonical subnets of `network` lines.
  std::string_view region;           ///< Spanning tree: `region`, else the name.
  NameId vlan = kNoName;             ///< VLAN: id of the name, when interned.
};

/// The facts of `s`, all in option order. A VLAN stanza's name is
/// interned into `vlans` when one is given.
StanzaFacts stanza_facts(const Stanza& s, NameTable* vlans);

/// Everything referential complexity reads from one device state:
/// what it defines that peers may name, and where it names peers.
struct RefFacts {
  std::string_view device_id;
  int intra = 0;  ///< count_intra_refs()
  // Defined here (sorted; addrs and subnets also unique):
  std::vector<std::uint32_t> addrs;  ///< Interface addresses.
  std::vector<Ipv4Prefix> subnets;   ///< Their canonical subnets.
  std::vector<NameId> vlans;         ///< One name id per VLAN stanza.
  // Inter-device reference sites besides the VLAN stanzas:
  std::vector<std::uint32_t> neighbor_ips;  ///< Router `neighbor` addresses.
  std::vector<Ipv4Prefix> network_subnets;  ///< Router `network` statement subnets.
};

enum class RoutingProtocol : std::uint8_t { kBgp, kOspf, kMstp };

/// One routing process (routing.hpp): a BGP or OSPF router stanza, or a
/// spanning-tree stanza.
struct ProcessFacts {
  RoutingProtocol protocol{};
  const StanzaFacts* stanza = nullptr;
};

/// What one device state contributes to a network-month's design
/// metrics. Points into the StanzaFacts it was derived from.
struct DeviceFacts {
  RefFacts refs;
  std::uint8_t constructs = 0;  ///< OR of the stanzas' construct bits.
  std::vector<ProcessFacts> processes;  ///< In stanza order.
};

/// The facts of the device state `dev` views.
DeviceFacts device_facts(const DeviceView& dev);

/// DeviceFacts of parsed configs, VLAN names interned network-wide.
/// Views the configs: keep them alive while the facts are used. Not
/// copyable: `devices` points into `stanzas`.
struct NetworkFacts {
  NetworkFacts() = default;
  NetworkFacts(NetworkFacts&&) = default;
  NetworkFacts(const NetworkFacts&) = delete;

  std::vector<std::vector<StanzaFacts>> stanzas;  ///< By config.
  std::vector<DeviceFacts> devices;               ///< By config.

  std::vector<const DeviceFacts*> borrow() const;
};

NetworkFacts network_facts(const std::vector<const DeviceConfig*>& configs);
NetworkFacts network_facts(const std::vector<DeviceConfig>& configs);

}  // namespace mpa
