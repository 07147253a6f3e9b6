#include "metrics/design_metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <set>

#include "config/refs.hpp"
#include "config/routing.hpp"
#include "stats/info.hpp"

namespace mpa {
namespace {

// Entropy over (key, role) cells, normalized by log2(N).
template <typename KeyFn>
double normalized_pair_entropy(const std::vector<const DeviceRecord*>& devices, KeyFn key_of) {
  const std::size_t n = devices.size();
  if (n <= 1) return 0;
  std::map<std::pair<std::string, Role>, double> cells;
  for (const auto* d : devices) cells[{key_of(*d), d->role}] += 1.0;
  std::vector<double> counts;
  counts.reserve(cells.size());
  for (const auto& [cell, c] : cells) counts.push_back(c);
  const double h = entropy_of_counts(counts);
  return h / std::log2(static_cast<double>(n));
}

ProtocolUsage protocols_of(const std::vector<const DeviceFacts*>& state) {
  std::uint8_t constructs = 0;
  for (const DeviceFacts* d : state) constructs |= d->constructs;
  return ProtocolUsage{std::popcount(static_cast<unsigned>(constructs & kL2Constructs)),
                       std::popcount(static_cast<unsigned>(constructs & kL3Constructs))};
}

int vlans_of(const std::vector<const DeviceFacts*>& state) {
  std::vector<NameId> vlans;
  for (const DeviceFacts* d : state)
    vlans.insert(vlans.end(), d->refs.vlans.begin(), d->refs.vlans.end());
  std::sort(vlans.begin(), vlans.end());
  return static_cast<int>(std::unique(vlans.begin(), vlans.end()) - vlans.begin());
}

}  // namespace

double hardware_entropy(const std::vector<const DeviceRecord*>& devices) {
  return normalized_pair_entropy(devices, [](const DeviceRecord& d) { return d.model; });
}

double firmware_entropy(const std::vector<const DeviceRecord*>& devices) {
  return normalized_pair_entropy(devices, [](const DeviceRecord& d) { return d.firmware; });
}

ProtocolUsage count_protocols(const std::vector<DeviceConfig>& configs) {
  return protocols_of(network_facts(configs).borrow());
}

int count_vlans(const std::vector<DeviceConfig>& configs) {
  return vlans_of(network_facts(configs).borrow());
}

void compute_design_metrics(const NetworkRecord& net,
                            const std::vector<const DeviceRecord*>& devices,
                            const std::vector<DeviceConfig>& configs, Case& out) {
  compute_inventory_metrics(net, devices, out);
  compute_config_metrics(network_facts(configs).borrow(), out);
}

void compute_inventory_metrics(const NetworkRecord& net,
                               const std::vector<const DeviceRecord*>& devices, Case& out) {
  out[Practice::kNumWorkloads] = static_cast<double>(net.workloads.size());
  out[Practice::kNumDevices] = static_cast<double>(devices.size());

  std::set<Vendor> vendors;
  std::set<std::string> models, firmwares;
  std::set<Role> roles;
  for (const auto* d : devices) {
    vendors.insert(d->vendor);
    models.insert(d->model);
    firmwares.insert(d->firmware);
    roles.insert(d->role);
  }
  out[Practice::kNumVendors] = static_cast<double>(vendors.size());
  out[Practice::kNumModels] = static_cast<double>(models.size());
  out[Practice::kNumRoles] = static_cast<double>(roles.size());
  out[Practice::kNumFirmwareVersions] = static_cast<double>(firmwares.size());
  out[Practice::kHardwareEntropy] = hardware_entropy(devices);
  out[Practice::kFirmwareEntropy] = firmware_entropy(devices);
}

void compute_config_metrics(const std::vector<const DeviceFacts*>& state, Case& out) {
  const ProtocolUsage protos = protocols_of(state);
  out[Practice::kNumL2Protocols] = protos.l2;
  out[Practice::kNumL3Protocols] = protos.l3;
  out[Practice::kNumProtocols] = protos.total();
  out[Practice::kNumVlans] = vlans_of(state);

  const RoutingStats routing = routing_stats(state);
  out[Practice::kNumBgpInstances] = routing.bgp.count;
  out[Practice::kNumOspfInstances] = routing.ospf.count;
  out[Practice::kAvgBgpInstanceSize] = routing.bgp.mean_size;
  out[Practice::kAvgOspfInstanceSize] = routing.ospf.mean_size;

  const NetworkComplexity cx = fold_referential_complexity(state);
  out[Practice::kIntraDeviceComplexity] = cx.mean_intra;
  out[Practice::kInterDeviceComplexity] = cx.mean_inter;
}

}  // namespace mpa
