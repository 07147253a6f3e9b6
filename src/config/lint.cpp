// Lint engine core: rule registry plumbing, source resolution, and the
// run driver. The rules themselves live in lint_rules.cpp.
#include "config/lint.hpp"

#include <algorithm>
#include <memory>
#include <span>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace mpa {
namespace {

/// Append the rule ids a pragma comment names ("lint-disable a b" -> a,
/// b) to `out`; nothing when the comment is not a pragma of this kind.
void pragma_ids(std::string_view comment, std::string_view keyword,
                std::vector<std::string_view>& out) {
  if (!starts_with(comment, keyword)) return;
  const auto tokens = split_ws_views(comment);
  if (tokens.empty() || tokens[0] != keyword) return;
  out.insert(out.end(), tokens.begin() + 1, tokens.end());
}

bool disabled_in(std::span<const std::string_view> ids, std::string_view rule_id) {
  return std::any_of(ids.begin(), ids.end(),
                     [&](std::string_view id) { return id == rule_id || id == "all"; });
}

}  // namespace

// ---------------------------------------------------------------- taxonomy

std::string_view to_string(LintSeverity s) {
  switch (s) {
    case LintSeverity::kInfo: return "info";
    case LintSeverity::kWarning: return "warning";
    case LintSeverity::kError: return "error";
  }
  return "unknown";
}

std::string_view to_string(LintCategory c) {
  switch (c) {
    case LintCategory::kReferential: return "referential";
    case LintCategory::kAddressing: return "addressing";
    case LintCategory::kFilter: return "filter";
    case LintCategory::kProtocol: return "protocol";
    case LintCategory::kHygiene: return "hygiene";
  }
  return "unknown";
}

std::optional<LintSeverity> parse_severity(std::string_view s) {
  if (s == "info") return LintSeverity::kInfo;
  if (s == "warning") return LintSeverity::kWarning;
  if (s == "error") return LintSeverity::kError;
  return std::nullopt;
}

// ------------------------------------------------------- source resolution

LintSource LintSource::scan(std::string_view text, Dialect d) {
  LintSource out;
  StanzaChunker walk(text, d);
  while (const auto chunk = walk.next()) {
    const auto [type, name] = stanza_key(*chunk, d);
    out.add(type, name, walk);
  }
  out.finish(walk);
  return out;
}

void LintSource::add(std::string_view type, std::string_view name, const StanzaChunker& walk) {
  Entry e{type, name, SourceSpan{walk.first_line(), walk.last_line()}};
  e.disabled_begin = static_cast<std::uint32_t>(disabled_.size());
  for (const std::string_view comment : walk.comments()) {
    pragma_ids(comment, "lint-disable", disabled_);
    pragma_ids(comment, "lint-disable-file", device_disabled_);
  }
  e.disabled_end = static_cast<std::uint32_t>(disabled_.size());
  stanzas_.push_back(e);
}

void LintSource::finish(const StanzaChunker& walk) {
  for (const std::string_view comment : walk.comments())
    pragma_ids(comment, "lint-disable-file", device_disabled_);
  stanzas_.shrink_to_fit();  // inference keeps a source per month-end snapshot
}

// A scan in text order, so a repeated (type, name) finds its first
// stanza. Sorting every source up front cost more than the lookups it
// saved: a config has tens of stanzas, and a counting sink looks up only
// when stanza pragmas exist.
const LintSource::Entry* LintSource::find(std::string_view type, std::string_view name) const {
  const auto it = std::find_if(stanzas_.begin(), stanzas_.end(), [&](const Entry& e) {
    return e.type == type && e.name == name;
  });
  return it == stanzas_.end() ? nullptr : &*it;
}

SourceSpan LintSource::span_of(std::string_view type, std::string_view name) const {
  const Entry* e = find(type, name);
  return e == nullptr ? SourceSpan{} : e->span;
}

bool LintSource::suppresses(std::string_view rule_id, std::string_view type,
                            std::string_view name) const {
  if (disabled_in(device_disabled_, rule_id)) return true;
  if (type.empty() || disabled_.empty()) return false;
  const Entry* e = find(type, name);
  return e != nullptr &&
         disabled_in(std::span(disabled_).subspan(e->disabled_begin,
                                                  e->disabled_end - e->disabled_begin),
                     rule_id);
}

// ------------------------------------------------------------------ rules

void LintRule::check_device(const DeviceView& /*dev*/, LintSink& /*sink*/) const {}
void LintRule::check_network(const NetworkView& /*net*/, LintSink& /*sink*/) const {}

void RuleRegistry::add(std::unique_ptr<LintRule> rule) {
  require(rule != nullptr, "RuleRegistry::add: null rule");
  const std::string_view id = rule->info().id;
  require(!id.empty(), "RuleRegistry::add: rule with empty id");
  require(find(id) == nullptr, "RuleRegistry::add: duplicate rule id '" + std::string(id) + "'");
  rules_.push_back(std::move(rule));
}

const LintRule* RuleRegistry::find(std::string_view id) const {
  for (const auto& r : rules_)
    if (r->info().id == id) return r.get();
  return nullptr;
}

// ----------------------------------------------------------------- views

DeviceView::DeviceView(const std::string& device_id, std::vector<const StanzaFacts*> stanzas,
                       const LintSource* source)
    : device_id_(&device_id), source_(source) {
  auto index = std::make_shared<Index>();
  index->stanzas = std::move(stanzas);
  index->build();
  index_ = std::move(index);
}

DeviceView::DeviceView(const DeviceConfig& config, const LintSource* source)
    : device_id_(&config.device_id()), source_(source) {
  auto index = std::make_shared<Index>();
  index->owned.reserve(config.stanzas().size());  // stanzas point into it
  for (const auto& s : config.stanzas())
    index->stanzas.push_back(&index->owned.emplace_back(stanza_facts(s, nullptr)));
  index->build();
  index_ = std::move(index);
}

void DeviceView::Index::build() {
  const auto group = [](std::vector<Group>& groups, std::string_view key) -> Group& {
    for (auto& g : groups)
      if (g.key == key) return g;
    return groups.emplace_back(Group{key, {}, {}});
  };
  for (const StanzaFacts* f : stanzas) {
    const Stanza* s = f->stanza;
    Group& type = group(types, f->agnostic);
    type.stanzas.push_back(s);
    type.names.push_back(s->name);
    if (!f->construct.empty()) group(constructs, f->construct).stanzas.push_back(s);
    for (const Ipv4Prefix& p : f->addresses) addresses.push_back(Address{s, p});
  }
  for (auto& t : types) {
    std::sort(t.names.begin(), t.names.end());
    t.names.erase(std::unique(t.names.begin(), t.names.end()), t.names.end());
  }
}

const DeviceView::Group& DeviceView::find(const std::vector<Group>& groups, std::string_view key) {
  for (const auto& g : groups)
    if (g.key == key) return g;
  static const Group kNone;
  return kNone;
}

const std::vector<const Stanza*>& DeviceView::of_type(std::string_view agnostic) const {
  return find(index_->types, agnostic).stanzas;
}

const std::vector<std::string_view>& DeviceView::names_of(std::string_view agnostic) const {
  return find(index_->types, agnostic).names;
}

bool DeviceView::defines(std::string_view agnostic, std::string_view name) const {
  const auto& names = names_of(agnostic);
  return std::binary_search(names.begin(), names.end(), name);
}

const std::vector<const Stanza*>& DeviceView::of_construct(std::string_view construct) const {
  return find(index_->constructs, construct).stanzas;
}

namespace {

std::vector<DeviceView> views_of(const std::vector<LintInput>& inputs) {
  std::vector<DeviceView> views;
  views.reserve(inputs.size());
  for (const auto& in : inputs) {
    require(in.config != nullptr, "NetworkView: null config");
    views.emplace_back(*in.config, in.source);
  }
  return views;
}

}  // namespace

NetworkView::NetworkView(const std::vector<LintInput>& inputs) : NetworkView(views_of(inputs)) {}

NetworkView::NetworkView(std::vector<DeviceView> devices) : devices_(std::move(devices)) {
  runs_bgp_.assign(devices_.size(), false);
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    for (const auto& a : devices_[d].addresses()) {
      iface_addrs_.push_back(IfaceAddr{d, a.stanza, a.prefix});
      addr_owner_.emplace(a.prefix.addr, d);  // first owner wins
    }
    for (const Stanza* s : devices_[d].of_construct("bgp")) {
      bgp_procs_.push_back(BgpProc{d, s});
      runs_bgp_[d] = true;
    }
  }
}

std::size_t NetworkView::owner_of(std::uint32_t ip) const {
  const auto it = addr_owner_.find(ip);
  return it == addr_owner_.end() ? npos : it->second;
}

bool NetworkView::runs_bgp(std::size_t device) const { return runs_bgp_[device]; }

// ------------------------------------------------------------------ sink

LintSink::LintSink(const LintOptions& opts, std::vector<Diagnostic>& out)
    : opts_(&opts), out_(&out) {}

LintSink::LintSink(const LintOptions& opts, LintTally& tally) : opts_(&opts), tally_(&tally) {}

const RuleRegistry& LintSink::registry() const {
  return opts_->registry != nullptr ? *opts_->registry : RuleRegistry::builtin();
}

void LintSink::set_active(const LintRule* rule, std::size_t position) {
  active_ = rule;
  position_ = position;
  active_info_ = rule != nullptr ? rule->info() : RuleInfo{};
  severity_ = active_info_.severity;
  if (!opts_->severity.empty()) {
    const auto it = opts_->severity.find(std::string(active_info_.id));
    if (it != opts_->severity.end()) severity_ = it->second;
  }
}

void LintSink::report(const DeviceView& dev, const Stanza* anchor, std::string message) {
  require(active_ != nullptr, "LintSink::report outside a rule");
  const bool suppressed =
      dev.source() != nullptr &&
      dev.source()->suppresses(active_info_.id, anchor != nullptr ? anchor->type : "",
                               anchor != nullptr ? anchor->name : "");
  if (suppressed && !opts_->keep_suppressed) return;
  if (tally_ != nullptr) {
    if (suppressed) {
      ++tally_->suppressed;
      return;
    }
    ++tally_->total;
    ++tally_->by_category[static_cast<std::size_t>(active_info_.category)];
    ++tally_->by_severity[static_cast<std::size_t>(severity_)];
    if (tally_->rules_hit.size() <= position_) tally_->rules_hit.resize(position_ + 1);
    tally_->rules_hit[position_] = true;
    return;
  }
  Diagnostic d;
  d.rule_id = std::string(active_info_.id);
  d.category = active_info_.category;
  d.severity = severity_;
  d.device_id = dev.device_id();
  if (anchor != nullptr) {
    d.object = anchor->type + (anchor->name.empty() ? "" : " " + anchor->name);
    if (dev.source() != nullptr) d.span = dev.source()->span_of(anchor->type, anchor->name);
  }
  d.message = std::move(message);
  d.suppressed = suppressed;
  out_->push_back(std::move(d));
}

LintTally& LintTally::operator+=(const LintTally& other) {
  total += other.total;
  for (std::size_t i = 0; i < by_category.size(); ++i) by_category[i] += other.by_category[i];
  for (std::size_t i = 0; i < by_severity.size(); ++i) by_severity[i] += other.by_severity[i];
  suppressed += other.suppressed;
  if (rules_hit.size() < other.rules_hit.size()) rules_hit.resize(other.rules_hit.size());
  for (std::size_t i = 0; i < other.rules_hit.size(); ++i)
    if (other.rules_hit[i]) rules_hit[i] = true;
  return *this;
}

// ----------------------------------------------------------------- driver

namespace {

bool rule_enabled(const LintOptions& opts, std::string_view id) {
  if (opts.enable.empty()) return true;
  const auto it = opts.enable.find(std::string(id));
  if (it != opts.enable.end()) return it->second;
  const auto all = opts.enable.find("all");
  if (all != opts.enable.end()) return all->second;
  return true;
}

/// Run `check` on every enabled rule of the sink's registry, in order.
template <typename Check>
void run_rules(LintSink& sink, Check check) {
  const auto& rules = sink.registry().rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (!rule_enabled(sink.options(), rules[i]->info().id)) continue;
    sink.set_active(rules[i].get(), i);
    check(*rules[i]);
  }
  sink.set_active(nullptr, 0);
}

}  // namespace

void run_device_rules(const DeviceView& dev, LintSink& sink) {
  run_rules(sink, [&](const LintRule& rule) { rule.check_device(dev, sink); });
}

void run_network_rules(const NetworkView& net, LintSink& sink) {
  run_rules(sink, [&](const LintRule& rule) { rule.check_network(net, sink); });
}

std::vector<Diagnostic> run_lint(const std::vector<LintInput>& network, const LintOptions& opts) {
  const NetworkView net(network);
  std::vector<std::vector<Diagnostic>> by_device(net.devices().size());
  for (std::size_t d = 0; d < by_device.size(); ++d) {
    LintSink sink(opts, by_device[d]);
    run_device_rules(net.devices()[d], sink);
  }
  std::vector<Diagnostic> by_network;
  LintSink sink(opts, by_network);
  run_network_rules(net, sink);

  // Each pass reports in registry order; interleave them rule by rule.
  std::vector<Diagnostic> out;
  const auto take = [&](std::vector<Diagnostic>& from, std::size_t& at, std::string_view id) {
    for (; at < from.size() && from[at].rule_id == id; ++at) out.push_back(std::move(from[at]));
  };
  std::vector<std::size_t> device_at(by_device.size(), 0);
  std::size_t network_at = 0;
  for (const auto& rule : sink.registry().rules()) {
    const std::string_view id = rule->info().id;
    for (std::size_t d = 0; d < by_device.size(); ++d) take(by_device[d], device_at[d], id);
    take(by_network, network_at, id);
  }
  return out;
}

std::vector<Diagnostic> lint_device(const DeviceConfig& config, const LintOptions& opts) {
  return run_lint({LintInput{&config, nullptr}}, opts);
}

std::vector<Diagnostic> lint_network(const std::vector<DeviceConfig>& network,
                                     const LintOptions& opts) {
  std::vector<LintInput> inputs;
  inputs.reserve(network.size());
  for (const auto& c : network) inputs.push_back(LintInput{&c, nullptr});
  return run_lint(inputs, opts);
}

std::vector<Diagnostic> lint_network_text(const std::vector<DeviceText>& network,
                                          const LintOptions& opts) {
  std::vector<DeviceConfig> configs;
  std::vector<LintSource> sources;
  configs.reserve(network.size());
  sources.reserve(network.size());
  for (const auto& dev : network) {
    // parse() and LintSource::scan() in one walk.
    DeviceConfig& config = configs.emplace_back(dev.device_id);
    LintSource& source = sources.emplace_back();
    StanzaChunker walk(dev.text, dev.dialect);
    while (const auto chunk = walk.next()) {
      config.stanzas().push_back(parse_stanza(*chunk, dev.dialect));
      const auto [type, name] = stanza_key(*chunk, dev.dialect);
      source.add(type, name, walk);
    }
    source.finish(walk);
  }
  std::vector<LintInput> inputs;
  inputs.reserve(network.size());
  for (std::size_t i = 0; i < network.size(); ++i)
    inputs.push_back(LintInput{&configs[i], &sources[i]});
  return run_lint(inputs, opts);
}

}  // namespace mpa
