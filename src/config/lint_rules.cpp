// The built-in lint rules. Each rule is a small LintRule subclass
// registered in RuleRegistry::builtin(); the engine (lint.cpp) drives
// them and handles severity overrides, suppression, and spans.
//
// Device-scope rules use the per-device type and name indexes in
// DeviceView; network-scope rules use the shared address/BGP indexes in
// NetworkView. Rules report against the vendor-agnostic model, so each
// fires identically on IOS-like and JunOS-like configs.
//
// Case-table inference runs every rule once per device state or network
// state, so the kernels look at option values in place, as views, and
// build a finding's message only when the sink keeps findings.
#include <algorithm>
#include <array>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "config/lint.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

std::string concat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view p : parts) out.append(p);
  return out;
}

/// The first N whitespace-separated words of `s`, empty past its last
/// word: split_ws(s)'s first N elements without the copies.
template <std::size_t N>
std::array<std::string_view, N> words(std::string_view s) {
  std::array<std::string_view, N> out{};
  for (auto& w : out) {
    w = first_token(s);
    if (w.empty()) break;
    s.remove_prefix(static_cast<std::size_t>(w.data() + w.size() - s.data()));
  }
  return out;
}

/// Calls f(value) for each option of `s` with this key, in option
/// order: Stanza::get_all() without the copies.
template <typename F>
void for_each_value(const Stanza& s, std::string_view key, F&& f) {
  for (const auto& o : s.options)
    if (o.key == key) f(o.value);
}

/// Calls f(name) for each ACL an interface stanza attaches (via "ip
/// access-group" / "filter"), in option order.
template <typename F>
void for_each_attached_acl(const Stanza& iface, F&& f) {
  for (const auto& o : iface.options) {
    if (o.key != "ip access-group" && o.key != "filter") continue;
    const std::string_view acl = first_token(o.value);
    if (!acl.empty()) f(acl);
  }
}

/// Calls f(id) for each VLAN id a stanza references (not defines):
/// access membership ("switchport access vlan" / "vlan-members"), and
/// per-VLAN spanning-tree tuning on interfaces.
template <typename F>
void for_each_referenced_vlan(const Stanza& s, F&& f) {
  for (const auto& o : s.options)
    if (o.key == "switchport access vlan" || o.key == "spanning-tree vlan" ||
        o.key == "vlan-members") {
      f(std::string_view(o.value));
    }
}

/// Names to test membership in, held as views: a std::set<std::string>
/// without the copies. Add every name, then seal() once.
class NameSet {
 public:
  void add(std::string_view name) { names_.push_back(name); }
  void seal() { std::sort(names_.begin(), names_.end()); }
  bool contains(std::string_view name) const {
    return std::binary_search(names_.begin(), names_.end(), name);
  }

 private:
  std::vector<std::string_view> names_;
};

bool is_acl_term(const Option& o) { return o.key == "permit" || o.key == "deny"; }

/// A term value that matches all traffic, making later terms dead.
bool is_catch_all(std::string_view value) {
  return value == "any" || value == "ip any any" || value == "any any";
}

// ------------------------------------------------------------ referential

class DanglingAclRefRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"dangling-acl-ref", "Interface attaches an ACL that is not defined on the device",
            LintCategory::kReferential, LintSeverity::kError};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    for (const Stanza* s : dev.of_type("interface"))
      for_each_attached_acl(*s, [&](std::string_view acl) {
        if (!dev.defines("acl", acl))
          sink.report(dev, s, [&] { return concat({s->name, " -> acl '", acl, "'"}); });
      });
  }
};

class DanglingVlanRefRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"dangling-vlan-ref", "VLAN membership or member interface without a definition",
            LintCategory::kReferential, LintSeverity::kError};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    for (const StanzaFacts* f : dev.stanzas()) {
      const Stanza& s = *f->stanza;
      if (f->agnostic == "interface") {
        for_each_referenced_vlan(s, [&](std::string_view vlan) {
          if (!dev.defines("vlan", vlan))
            sink.report(dev, &s, [&] { return concat({s.name, " -> vlan '", vlan, "'"}); });
        });
      } else if (f->agnostic == "vlan") {
        for_each_value(s, "interface", [&](const std::string& name) {
          if (!dev.defines("interface", name))
            sink.report(dev, &s,
                        [&] { return concat({"vlan ", s.name, " -> interface '", name, "'"}); });
        });
      }
    }
  }
};

class DanglingPoolRefRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"dangling-pool-ref", "Virtual server names a pool that does not exist",
            LintCategory::kReferential, LintSeverity::kError};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    for (const Stanza* s : dev.of_type("virtual-server"))
      for_each_value(*s, "pool", [&](const std::string& name) {
        if (!dev.defines("pool", name))
          sink.report(dev, s, [&] { return concat({s->name, " -> pool '", name, "'"}); });
      });
  }
};

class DanglingLagMemberRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"dangling-lag-member", "Port-channel member interface is missing",
            LintCategory::kReferential, LintSeverity::kError};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    for (const Stanza* s : dev.of_type("link-aggregation"))
      for_each_value(*s, "member", [&](const std::string& name) {
        if (!dev.defines("interface", name))
          sink.report(dev, s, [&] { return concat({s->name, " -> interface '", name, "'"}); });
      });
  }
};

// ----------------------------------------------------------------- filter

class EmptyAclRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"empty-acl", "ACL defined with no permit/deny terms", LintCategory::kFilter,
            LintSeverity::kWarning};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    for (const Stanza* s : dev.of_type("acl")) {
      if (std::none_of(s->options.begin(), s->options.end(), is_acl_term))
        sink.report(dev, s, [&] { return concat({"acl '", s->name, "' has no terms"}); });
    }
  }
};

class ShadowedAclTermRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"acl-shadowed-term", "ACL term duplicates an earlier term and never matches",
            LintCategory::kFilter, LintSeverity::kWarning};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    for (const Stanza* s : dev.of_type("acl")) {
      std::set<std::pair<std::string_view, std::string_view>> seen;
      bool catch_all = false;
      for (const auto& o : s->options) {
        if (!is_acl_term(o)) continue;
        // Terms after a catch-all belong to acl-unreachable-term.
        if (!catch_all && !seen.insert({o.key, o.value}).second) {
          sink.report(dev, s, [&] {
            return concat({"acl '", s->name, "': duplicate term '", o.key, " ", o.value, "'"});
          });
        }
        if (is_catch_all(o.value)) catch_all = true;
      }
    }
  }
};

class UnreachableAclTermRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"acl-unreachable-term", "ACL term follows a catch-all term and is dead",
            LintCategory::kFilter, LintSeverity::kWarning};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    for (const Stanza* s : dev.of_type("acl")) {
      bool catch_all = false;
      for (const auto& o : s->options) {
        if (!is_acl_term(o)) continue;
        if (catch_all) {
          sink.report(dev, s, [&] {
            return concat({"acl '", s->name, "': term '", o.key, " ", o.value,
                           "' is unreachable after a catch-all"});
          });
        }
        if (is_catch_all(o.value)) catch_all = true;
      }
    }
  }
};

// ---------------------------------------------------------------- hygiene

class UnreferencedAclRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"unreferenced-acl", "ACL defined but attached to no interface",
            LintCategory::kHygiene, LintSeverity::kInfo};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    const auto& acls = dev.of_type("acl");
    if (acls.empty()) return;
    NameSet used;
    for (const Stanza* s : dev.of_type("interface"))
      for_each_attached_acl(*s, [&](std::string_view acl) { used.add(acl); });
    used.seal();
    for (const Stanza* s : acls)
      if (!used.contains(s->name))
        sink.report(dev, s, [&] { return concat({"acl '", s->name, "' is never attached"}); });
  }
};

class UnreferencedPoolRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"unreferenced-pool", "Pool defined but used by no virtual server",
            LintCategory::kHygiene, LintSeverity::kInfo};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    const auto& pools = dev.of_type("pool");
    if (pools.empty()) return;
    NameSet used;
    for (const Stanza* s : dev.of_type("virtual-server"))
      for_each_value(*s, "pool", [&](const std::string& p) { used.add(p); });
    used.seal();
    for (const Stanza* s : pools)
      if (!used.contains(s->name))
        sink.report(dev, s, [&] { return concat({"pool '", s->name, "' is never used"}); });
  }
};

class UnreferencedVlanRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"unreferenced-vlan", "VLAN defined with no member interface anywhere on the device",
            LintCategory::kHygiene, LintSeverity::kInfo};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    const auto& vlans = dev.of_type("vlan");
    if (vlans.empty()) return;
    NameSet used;
    for (const Stanza* s : dev.of_type("interface"))
      for_each_referenced_vlan(*s, [&](std::string_view v) { used.add(v); });
    used.seal();
    for (const Stanza* s : vlans) {
      if (used.contains(s->name)) continue;
      const auto member = [](const Option& o) { return o.key == "interface"; };
      if (std::any_of(s->options.begin(), s->options.end(), member)) continue;  // inline members
      sink.report(dev, s, [&] { return concat({"vlan ", s->name, " has no members"}); });
    }
  }
};

class UnusedInterfaceUpRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"unused-interface-up", "Interface carries no config but is not shut down",
            LintCategory::kHygiene, LintSeverity::kInfo};
  }
  void check_device(const DeviceView& dev, LintSink& sink) const override {
    // Interfaces referenced by VLAN member lists or LAGs are in use.
    NameSet referenced;
    for (const Stanza* s : dev.of_type("vlan"))
      for_each_value(*s, "interface", [&](const std::string& n) { referenced.add(n); });
    for (const Stanza* s : dev.of_type("link-aggregation"))
      for_each_value(*s, "member", [&](const std::string& n) { referenced.add(n); });
    referenced.seal();
    for (const Stanza* s : dev.of_type("interface")) {
      if (referenced.contains(s->name)) continue;
      bool in_use = false;
      bool shut = false;
      for (const auto& o : s->options) {
        if (o.key == "ip address" || o.key == "ip-address" || o.key == "ip access-group" ||
            o.key == "filter" || o.key == "switchport access vlan" || o.key == "vlan-members") {
          in_use = true;
        }
        if (o.key == "shutdown" || o.key == "disable") shut = true;
      }
      if (!in_use && !shut)
        sink.report(dev, s, [&] { return concat({s->name, " carries no config; add 'shutdown'"}); });
    }
  }
};

// ------------------------------------------------------------- addressing

class DuplicateAddressRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"duplicate-address", "Same IP address configured on two interfaces",
            LintCategory::kAddressing, LintSeverity::kError};
  }
  void check_network(const NetworkView& net, LintSink& sink) const override {
    std::map<std::uint32_t, const NetworkView::IfaceAddr*> owners;  // ip -> first interface
    for (const auto& ia : net.iface_addrs()) {
      const auto [it, inserted] = owners.emplace(ia.prefix.addr, &ia);
      if (inserted) continue;
      const NetworkView::IfaceAddr& first = *it->second;
      sink.report(net.devices()[ia.device], ia.stanza, [&] {
        return concat({format_ipv4(ia.prefix.addr), " also on ",
                       net.devices()[first.device].device_id(), "/", first.stanza->name});
      });
    }
  }
};

class SubnetOverlapRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"subnet-overlap", "Interface subnets overlap without being identical",
            LintCategory::kAddressing, LintSeverity::kWarning};
  }
  void check_network(const NetworkView& net, LintSink& sink) const override {
    // Distinct subnets, keeping the first interface seen on each.
    std::map<Ipv4Prefix, const NetworkView::IfaceAddr*> subnets;
    for (const auto& ia : net.iface_addrs()) subnets.emplace(ia.prefix.subnet(), &ia);
    for (auto a = subnets.begin(); a != subnets.end(); ++a) {
      for (auto b = std::next(a); b != subnets.end(); ++b) {
        const Ipv4Prefix& pa = a->first;
        const Ipv4Prefix& pb = b->first;
        if (pa.len == pb.len) continue;  // identical handled above; equal-len disjoint or same
        const Ipv4Prefix& wide = pa.len < pb.len ? pa : pb;
        const Ipv4Prefix& narrow = pa.len < pb.len ? pb : pa;
        if (!wide.contains(narrow.network())) continue;
        const auto* ia = narrow == pa ? a->second : b->second;
        sink.report(net.devices()[ia->device], ia->stanza, [&] {
          return concat({format_prefix(narrow), " overlaps ", format_prefix(wide)});
        });
      }
    }
  }
};

// --------------------------------------------------------------- protocol

class OneSidedBgpRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"one-sided-bgp-session", "BGP neighbor whose owner runs no BGP process",
            LintCategory::kProtocol, LintSeverity::kWarning};
  }
  void check_network(const NetworkView& net, LintSink& sink) const override {
    for (const auto& proc : net.bgp_procs()) {
      const DeviceView& dev = net.devices()[proc.device];
      for_each_value(*proc.stanza, "neighbor", [&](const std::string& v) {
        const std::string_view peer = first_token(v);
        if (peer.empty()) return;
        const auto ip = parse_ipv4(peer);
        if (!ip) return;
        const std::size_t owner = net.owner_of(*ip);
        if (owner == NetworkView::npos || net.runs_bgp(owner)) return;
        sink.report(dev, proc.stanza, [&] {
          return concat({"neighbor ", peer, " (", net.devices()[owner].device_id(),
                         " runs no BGP process)"});
        });
      });
    }
  }
};

class BgpAsMismatchRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"bgp-as-mismatch", "BGP neighbor's configured remote-as disagrees with the peer",
            LintCategory::kProtocol, LintSeverity::kError};
  }
  void check_network(const NetworkView& net, LintSink& sink) const override {
    // AS number of each BGP-speaking device: the process stanza's name.
    std::map<std::size_t, std::string_view> as_of;
    for (const auto& proc : net.bgp_procs()) as_of.emplace(proc.device, proc.stanza->name);
    for (const auto& proc : net.bgp_procs()) {
      const DeviceView& dev = net.devices()[proc.device];
      for_each_value(*proc.stanza, "neighbor", [&](const std::string& v) {
        // "neighbor <ip> remote-as <asn>"
        const auto [peer, keyword, asn] = words<3>(v);
        if (asn.empty() || keyword != "remote-as") return;
        const auto ip = parse_ipv4(peer);
        if (!ip) return;
        const std::size_t owner = net.owner_of(*ip);
        if (owner == NetworkView::npos) return;
        const auto peer_as = as_of.find(owner);
        if (peer_as == as_of.end() || peer_as->second == asn) return;
        sink.report(dev, proc.stanza, [&] {
          return concat({"neighbor ", peer, " remote-as ", asn, " but ",
                         net.devices()[owner].device_id(), " runs AS ", peer_as->second});
        });
      });
    }
  }
};

class OspfAreaMismatchRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"ospf-area-mismatch", "Devices disagree on the OSPF area of a shared subnet",
            LintCategory::kProtocol, LintSeverity::kError};
  }
  void check_network(const NetworkView& net, LintSink& sink) const override {
    struct Claim {
      std::size_t device;
      const Stanza* stanza;
      std::string_view area;
    };
    std::map<std::string_view, std::vector<Claim>> by_prefix;
    for (std::size_t d = 0; d < net.devices().size(); ++d) {
      for (const Stanza* s : net.devices()[d].of_construct("ospf")) {
        for_each_value(*s, "network", [&](const std::string& v) {
          // "network <prefix> area <id>"
          const auto [prefix, keyword, area] = words<3>(v);
          if (area.empty() || keyword != "area") return;
          by_prefix[prefix].push_back(Claim{d, s, area});
        });
      }
    }
    for (const auto& [prefix, claims] : by_prefix) {
      std::set<std::string_view> areas;
      for (const auto& c : claims) areas.insert(c.area);
      if (areas.size() <= 1) continue;
      for (const auto& c : claims) {
        sink.report(net.devices()[c.device], c.stanza, [&] {
          const std::string all = join(std::vector<std::string>(areas.begin(), areas.end()), ", ");
          return concat({prefix, " claimed in area ", c.area, " (network also uses ", all, ")"});
        });
      }
    }
  }
};

class MtuMismatchRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"mtu-mismatch", "Interfaces on an inferred link disagree on MTU",
            LintCategory::kProtocol, LintSeverity::kWarning};
  }
  void check_network(const NetworkView& net, LintSink& sink) const override {
    // Interfaces sharing a subnet form an inferred link; explicit MTU
    // values on them must agree (absent = platform default, unknown).
    struct End {
      std::size_t device;
      const Stanza* stanza;
      std::string_view mtu;
    };
    std::map<Ipv4Prefix, std::vector<End>> links;
    for (const auto& ia : net.iface_addrs()) {
      const auto& opts = ia.stanza->options;
      const auto mtu = std::find_if(opts.begin(), opts.end(),
                                    [](const Option& o) { return o.key == "mtu"; });
      if (mtu == opts.end()) continue;
      links[ia.prefix.subnet()].push_back(End{ia.device, ia.stanza, mtu->value});
    }
    for (const auto& [subnet, ends] : links) {
      const std::string_view first = ends.front().mtu;
      const bool mismatch =
          std::any_of(ends.begin(), ends.end(), [&](const End& e) { return e.mtu != first; });
      if (!mismatch) continue;
      for (const auto& e : ends) {
        sink.report(net.devices()[e.device], e.stanza, [&] {
          return concat({e.stanza->name, " mtu ", e.mtu, " on link ", format_prefix(subnet),
                         " (peers disagree)"});
        });
      }
    }
  }
};

class VlanSpanGapRule final : public LintRule {
 public:
  RuleInfo info() const override {
    return {"vlan-span-undefined", "VLAN used here but defined only on other devices",
            LintCategory::kProtocol, LintSeverity::kWarning};
  }
  void check_network(const NetworkView& net, LintSink& sink) const override {
    // The first device defining each VLAN id, network-wide.
    std::map<std::string_view, std::size_t> defined_on;
    for (std::size_t d = 0; d < net.devices().size(); ++d)
      for (const std::string_view name : net.devices()[d].names_of("vlan"))
        defined_on.emplace(name, d);
    if (defined_on.empty()) return;
    for (const DeviceView& dev : net.devices()) {
      for (const Stanza* s : dev.of_type("interface")) {
        for_each_referenced_vlan(*s, [&](std::string_view vlan) {
          if (dev.defines("vlan", vlan)) return;
          const auto it = defined_on.find(vlan);
          if (it == defined_on.end()) return;  // dangling-vlan-ref's case
          sink.report(dev, s, [&] {
            return concat({s->name, " uses vlan ", vlan, " defined on ",
                           net.devices()[it->second].device_id(), " but not here"});
          });
        });
      }
    }
  }
};

}  // namespace

const RuleRegistry& RuleRegistry::builtin() {
  static const RuleRegistry registry = [] {
    RuleRegistry r;
    r.add(std::make_unique<DanglingAclRefRule>());
    r.add(std::make_unique<DanglingVlanRefRule>());
    r.add(std::make_unique<DanglingPoolRefRule>());
    r.add(std::make_unique<DanglingLagMemberRule>());
    r.add(std::make_unique<EmptyAclRule>());
    r.add(std::make_unique<ShadowedAclTermRule>());
    r.add(std::make_unique<UnreachableAclTermRule>());
    r.add(std::make_unique<UnreferencedAclRule>());
    r.add(std::make_unique<UnreferencedPoolRule>());
    r.add(std::make_unique<UnreferencedVlanRule>());
    r.add(std::make_unique<UnusedInterfaceUpRule>());
    r.add(std::make_unique<DuplicateAddressRule>());
    r.add(std::make_unique<SubnetOverlapRule>());
    r.add(std::make_unique<OneSidedBgpRule>());
    r.add(std::make_unique<BgpAsMismatchRule>());
    r.add(std::make_unique<OspfAreaMismatchRule>());
    r.add(std::make_unique<MtuMismatchRule>());
    r.add(std::make_unique<VlanSpanGapRule>());
    return r;
  }();
  return registry;
}

}  // namespace mpa
