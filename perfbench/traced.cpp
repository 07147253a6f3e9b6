#include "traced.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "common.hpp"
#include "config/dialect.hpp"
#include "config/diff.hpp"
#include "metrics/design_metrics.hpp"
#include "metrics/lint_metrics.hpp"
#include "telemetry/time.hpp"

namespace perfbench {
namespace {

using namespace mpa;

/// Runs `fn`, adding its wall time to `acc`.
template <typename Fn>
auto timed(double& acc, Fn&& fn) {
  const double t0 = now_s();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    acc += now_s() - t0;
  } else {
    auto r = fn();
    acc += now_s() - t0;
    return r;
  }
}

void count_stanzas(const DeviceConfig& config, LayerTrace& trace) {
  const double t0 = now_s();
  std::string key;
  for (const Stanza& s : config.stanzas()) {
    key.clear();
    key.append(s.type).push_back('\x1f');
    key.append(s.name);
    for (const Option& o : s.options) {
      key.push_back('\x1e');
      key.append(o.key).push_back('\x1f');
      key.append(o.value);
    }
    trace.distinct_stanzas.insert(fnv1a_words(key.data(), key.size()));
  }
  trace.stanzas_parsed += config.stanzas().size();
  trace.bookkeeping_s += now_s() - t0;
}

DeviceConfig traced_parse(const std::string& text, Dialect d, const std::string& device_id,
                          LayerTrace& trace) {
  DeviceConfig c = timed(trace.parse_s, [&] { return parse(text, d, device_id); });
  ++trace.parse_calls;
  count_stanzas(c, trace);
  return c;
}

struct Timeline {
  std::vector<Timestamp> times;
  std::vector<DeviceConfig> configs;
  std::vector<LintSource> sources;
  int state_before(Timestamp t) const {
    const auto it = std::lower_bound(times.begin(), times.end(), t);
    return static_cast<int>(it - times.begin()) - 1;
  }
};

/// Mirrors the library's per-network inference step by step.
std::vector<Case> network_rows(const NetworkRecord& net, const Inventory& inventory,
                               const SnapshotStore& snapshots, const TicketLog& tickets,
                               const InferenceOptions& opts, int first_month, LayerTrace& trace) {
  const auto devices = inventory.devices_in(net.network_id);
  const Timestamp window_start = month_start(first_month);
  std::map<std::string, Role> device_roles;
  for (const auto* d : devices) device_roles[d->device_id] = d->role;

  std::map<std::string, Timeline> timelines;
  std::vector<ChangeRecord> changes;
  for (const auto* d : devices) {
    const auto& snaps = snapshots.for_device(d->device_id);
    if (snaps.empty()) continue;
    const Dialect dialect = dialect_of(d->vendor);
    std::size_t begin = 0;
    if (first_month > 0) {
      const auto before = static_cast<std::size_t>(
          std::partition_point(snaps.begin(), snaps.end(),
                               [&](const ConfigSnapshot& s) { return s.time < window_start; }) -
          snaps.begin());
      begin = before > 0 ? before - 1 : 0;
    }
    Timeline tl;
    for (std::size_t i = begin; i < snaps.size(); ++i) {
      tl.times.push_back(snaps[i].time);
      tl.configs.push_back(traced_parse(snaps[i].text, dialect, d->device_id, trace));
      tl.sources.push_back(
          timed(trace.scan_s, [&] { return LintSource::scan(snaps[i].text, dialect); }));
    }
    for (std::size_t i = 1; i < tl.configs.size(); ++i) {
      auto stanza_changes =
          timed(trace.diff_s, [&] { return diff(tl.configs[i - 1], tl.configs[i]); });
      ++trace.diff_calls;
      trace.stanzas_compared += tl.configs[i].stanzas().size();
      trace.stanza_changes += stanza_changes.size();
      if (stanza_changes.empty()) continue;
      ChangeRecord cr;
      cr.device_id = d->device_id;
      cr.network_id = net.network_id;
      cr.time = snaps[begin + i].time;
      cr.login = snaps[begin + i].login;
      cr.automated = opts.automation(snaps[begin + i].login);
      cr.stanza_changes = std::move(stanza_changes);
      changes.push_back(std::move(cr));
    }
    timelines.emplace(d->device_id, std::move(tl));
  }
  timed(trace.events_s, [&] {
    std::stable_sort(changes.begin(), changes.end(),
                     [](const ChangeRecord& a, const ChangeRecord& b) {
                       return a.time != b.time ? a.time < b.time : a.device_id < b.device_id;
                     });
  });

  std::vector<Case> rows;
  for (int m = first_month; m < opts.num_months; ++m) {
    const Timestamp m_start = month_start(m);
    const Timestamp m_end = month_start(m + 1);
    Case row;
    row.network_id = net.network_id;
    row.month = m;

    std::vector<DeviceConfig> state;
    std::vector<LintInput> lint_inputs;
    timed(trace.state_s, [&] {
      for (const auto& [dev_id, tl] : timelines) {
        const int idx = tl.state_before(m_end);
        if (idx < 0) continue;
        const auto i = static_cast<std::size_t>(idx);
        state.push_back(tl.configs[i]);
        lint_inputs.push_back(LintInput{&tl.configs[i], &tl.sources[i]});
      }
    });
    timed(trace.design_s, [&] { compute_design_metrics(net, devices, state, row); });
    timed(trace.lint_s, [&] {
      const auto diags = run_lint(lint_inputs, opts.lint);
      apply_lint_metrics(LintSummary::of(diags, lint_inputs.size()), row);
    });
    timed(trace.events_s, [&] {
      std::vector<const ChangeRecord*> month_changes;
      for (const auto& c : changes)
        if (c.time >= m_start && c.time < m_end) month_changes.push_back(&c);
      const auto events = group_events(month_changes, opts.event_window);
      compute_operational_metrics(month_changes, events, devices.size(), device_roles, row);
    });
    row.tickets =
        timed(trace.tickets_s, [&] { return tickets.count_health_tickets(net.network_id, m); });
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

CaseTable traced_infer(const Inventory& inventory, const SnapshotStore& snapshots,
                       const TicketLog& tickets, const InferenceOptions& opts, int first_month,
                       LayerTrace& trace) {
  CaseTable table;
  for (const NetworkRecord& net : inventory.networks()) {
    const double t0 = now_s();
    for (Case& row : network_rows(net, inventory, snapshots, tickets, opts, first_month, trace))
      table.add(std::move(row));
    trace.network_s.push_back(now_s() - t0);
  }
  return table;
}

NetworkLint traced_network_lint(const NetworkRecord& net, const Inventory& inventory,
                                const SnapshotStore& snapshots, const LintOptions& opts,
                                LayerTrace& trace) {
  NetworkLint out;
  out.network_id = net.network_id;
  std::vector<DeviceConfig> configs;
  std::vector<LintSource> sources;
  for (const auto* d : inventory.devices_in(net.network_id)) {
    const auto& snaps = snapshots.for_device(d->device_id);
    if (snaps.empty()) continue;
    const Dialect dialect = dialect_of(d->vendor);
    configs.push_back(traced_parse(snaps.back().text, dialect, d->device_id, trace));
    sources.push_back(
        timed(trace.scan_s, [&] { return LintSource::scan(snaps.back().text, dialect); }));
  }
  std::vector<LintInput> inputs;
  for (std::size_t i = 0; i < configs.size(); ++i)
    inputs.push_back(LintInput{&configs[i], &sources[i]});
  out.num_devices = configs.size();
  out.diagnostics = timed(trace.lint_s, [&] { return run_lint(inputs, opts); });
  return out;
}

LintReport traced_lint(const Inventory& inventory, const SnapshotStore& snapshots,
                       const LintOptions& opts, LayerTrace& trace) {
  LintReport report;
  for (const NetworkRecord& net : inventory.networks())
    report.networks.push_back(traced_network_lint(net, inventory, snapshots, opts, trace));
  return report;
}

}  // namespace perfbench
