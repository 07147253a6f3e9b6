#include "metrics/inference.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <span>

#include "config/dialect.hpp"
#include "config/stanza_table.hpp"
#include "metrics/design_metrics.hpp"
#include "metrics/lint_metrics.hpp"
#include "util/parallel.hpp"

namespace mpa {
namespace {

/// Interned snapshot timeline of one device, plus its month-end state:
/// the lint view, design facts and device-scope lint of the latest
/// snapshot a month end selected, built once per selected snapshot.
struct DeviceTimeline {
  const ConfigSnapshot* snaps = nullptr;  ///< First snapshot of the parsed suffix.
  Dialect dialect = Dialect::kIosLike;
  std::vector<Timestamp> times;
  std::vector<StanzaId> ids;         ///< Every snapshot's stanza ids, concatenated.
  std::vector<std::size_t> offsets;  ///< Snapshot i's ids: [offsets[i], offsets[i + 1]).
  /// The snapshots some month end selects, ascending, and their lint
  /// sources, recorded by the interning walk.
  std::vector<int> selected;
  std::vector<LintSource> sources;

  int state_idx = -1;
  std::optional<DeviceView> view;  ///< Lint view of the state, with its source.
  DeviceFacts facts;               ///< The state's design facts.
  LintTally lint;                  ///< The state's device-scope lint.

  std::span<const StanzaId> ids_of(std::size_t i) const {
    return std::span<const StanzaId>(ids).subspan(offsets[i], offsets[i + 1] - offsets[i]);
  }

  /// Index of the last snapshot strictly before the end of month `m`,
  /// or -1.
  int state_at_end_of(int m) const {
    const auto it = std::lower_bound(times.begin(), times.end(), month_start(m + 1));
    return static_cast<int>(it - times.begin()) - 1;
  }

  /// Make snapshot `idx` the month-end state. Month ends only move
  /// forward, so each snapshot is viewed and device-linted at most
  /// once. The view points at the table's stanza facts: nothing is
  /// copied or re-parsed.
  void select(int idx, const StanzaTable& table, const std::string& device_id,
              const LintOptions& lint_opts) {
    if (idx == state_idx) return;
    const auto state = ids_of(static_cast<std::size_t>(idx));
    std::vector<const StanzaFacts*> stanzas;
    stanzas.reserve(state.size());
    for (const StanzaId id : state) stanzas.push_back(&table.facts(id));
    const auto slot = std::lower_bound(selected.begin(), selected.end(), idx) - selected.begin();
    view.emplace(device_id, std::move(stanzas), &sources[static_cast<std::size_t>(slot)]);
    facts = device_facts(*view);
    lint = LintTally{};
    LintSink sink(lint_opts, lint);
    run_device_rules(*view, sink);
    state_idx = idx;
  }
};

/// Rows of one network for months [first_month, opts.num_months), in
/// month order. Pure function of its inputs: safe to fan out per
/// network, and the concatenation in inventory order is byte-identical
/// to the serial loop.
///
/// Every snapshot is interned into one StanzaTable owned by this call,
/// so each distinct stanza chunk is parsed once and consecutive
/// snapshots are diffed by stanza id.
///
/// With first_month > 0 only the per-device snapshot *suffix* from the
/// last snapshot strictly before the window is interned and diffed —
/// the carry-in snapshot supplies every earlier config state a
/// month-end lookup inside the window can resolve to, and every change
/// record the window's months select survives (change i pairs
/// snapshots (i-1, i), and snapshot i is inside the suffix exactly when
/// its time is >= month_start(first_month)). This is what makes
/// append_month O(delta) instead of O(history).
std::vector<Case> infer_network_cases(const NetworkRecord& net, const Inventory& inventory,
                                      const SnapshotStore& snapshots, const TicketLog& tickets,
                                      const InferenceOptions& opts, int first_month) {
  const auto devices = inventory.devices_in(net.network_id);
  const Timestamp window_start = month_start(first_month);

  std::map<std::string, Role> device_roles;
  for (const auto* d : devices) device_roles[d->device_id] = d->role;

  // Intern each device's snapshot archive once (only the suffix that
  // can influence the requested months); derive both the monthly
  // config states and the change stream from it.
  StanzaTable table;
  std::map<std::string, DeviceTimeline> timelines;
  std::vector<ChangeRecord> changes;
  for (const auto* d : devices) {
    const auto& snaps = snapshots.for_device(d->device_id);
    if (snaps.empty()) continue;
    std::size_t begin = 0;
    if (first_month > 0) {
      // Last snapshot strictly before the window (carry-in state);
      // parse from there. Snapshots are time-ordered per device.
      const auto before = static_cast<std::size_t>(
          std::partition_point(snaps.begin(), snaps.end(),
                               [&](const ConfigSnapshot& s) { return s.time < window_start; }) -
          snaps.begin());
      begin = before > 0 ? before - 1 : 0;
    }
    DeviceTimeline tl;
    tl.snaps = &snaps[begin];
    tl.dialect = dialect_of(d->vendor);
    tl.times.reserve(snaps.size() - begin);
    for (std::size_t i = begin; i < snaps.size(); ++i) tl.times.push_back(snaps[i].time);
    for (int m = first_month; m < opts.num_months; ++m) {
      const int idx = tl.state_at_end_of(m);
      if (idx >= 0 && (tl.selected.empty() || tl.selected.back() != idx))
        tl.selected.push_back(idx);
    }
    tl.sources.resize(tl.selected.size());
    tl.offsets.reserve(tl.times.size() + 1);
    tl.offsets.push_back(0);
    for (std::size_t i = 0, next = 0; i < tl.times.size(); ++i) {
      LintSource* source = nullptr;
      if (next < tl.selected.size() && tl.selected[next] == static_cast<int>(i))
        source = &tl.sources[next++];
      table.intern(tl.snaps[i].text, tl.dialect, tl.ids, source);
      tl.offsets.push_back(tl.ids.size());
    }
    for (std::size_t i = 1; i < tl.times.size(); ++i) {
      auto stanza_changes = table.diff(tl.ids_of(i - 1), tl.ids_of(i));
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
  // stable_sort, not sort: records tied on (time, device_id) keep their
  // generation order, so sorting a per-device suffix of the change
  // stream and sorting the full stream agree on every month window —
  // the property the tail path's bit-exactness contract rests on.
  std::stable_sort(changes.begin(), changes.end(),
                   [](const ChangeRecord& a, const ChangeRecord& b) {
                     return a.time != b.time ? a.time < b.time : a.device_id < b.device_id;
                   });

  // The inventory metrics and the health tickets of every month, once.
  Case base;
  base.network_id = net.network_id;
  compute_inventory_metrics(net, devices, base);
  const int num_months = std::max(0, opts.num_months - first_month);
  std::vector<int> month_tickets(static_cast<std::size_t>(num_months));
  for (const Ticket* t : tickets.health_tickets(net.network_id)) {
    const int m = month_of(t->created);
    if (m >= first_month && m < opts.num_months)
      ++month_tickets[static_cast<std::size_t>(m - first_month)];
  }

  std::vector<Case> rows;
  rows.reserve(month_tickets.size());
  std::vector<const DeviceFacts*> state;
  std::vector<const ChangeRecord*> month_changes;
  for (int m = first_month; m < opts.num_months; ++m) {
    Case row = base;
    row.month = m;

    // Design metrics from the configuration state at month end.
    state.clear();
    std::vector<DeviceView> views;
    LintTally lint;
    for (auto& [dev_id, tl] : timelines) {
      const int idx = tl.state_at_end_of(m);
      if (idx < 0) continue;
      tl.select(idx, table, dev_id, opts.lint);
      state.push_back(&tl.facts);
      views.push_back(*tl.view);
      lint += tl.lint;
    }
    compute_config_metrics(state, row);

    // Hygiene metrics from linting the same month-end state: the device
    // passes counted when each state was selected, plus a network pass
    // over the same views.
    const std::size_t num_linted = views.size();
    LintSink sink(opts.lint, lint);
    run_network_rules(NetworkView(std::move(views)), sink);
    apply_lint_metrics(LintSummary::of(lint, num_linted), row);

    // Operational metrics from this month's changes: a range of the
    // time-sorted stream.
    const auto at = [&](Timestamp t) {
      return std::lower_bound(changes.begin(), changes.end(), t,
                              [](const ChangeRecord& c, Timestamp u) { return c.time < u; });
    };
    month_changes.clear();
    for (auto c = at(month_start(m)), end = at(month_start(m + 1)); c != end; ++c)
      month_changes.push_back(&*c);
    const auto events = group_events(month_changes, opts.event_window);
    compute_operational_metrics(month_changes, events, devices.size(), device_roles, row);

    row.tickets = month_tickets[static_cast<std::size_t>(m - first_month)];
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

CaseTable infer_case_table(const Inventory& inventory, const SnapshotStore& snapshots,
                           const TicketLog& tickets, const InferenceOptions& opts) {
  return infer_case_table_tail(inventory, snapshots, tickets, opts, 0);
}

CaseTable infer_case_table_tail(const Inventory& inventory, const SnapshotStore& snapshots,
                                const TicketLog& tickets, const InferenceOptions& opts,
                                int first_month) {
  const auto& networks = inventory.networks();
  std::vector<std::vector<Case>> per_network(networks.size());
  parallel_for(opts.pool, networks.size(), [&](std::size_t n) {
    per_network[n] =
        infer_network_cases(networks[n], inventory, snapshots, tickets, opts, first_month);
  });

  CaseTable table;
  for (auto& rows : per_network)
    for (auto& row : rows) table.add(std::move(row));
  return table;
}

}  // namespace mpa
