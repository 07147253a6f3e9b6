// Config static analysis: a rule-engine lint over vendor-dialect
// configuration snapshots.
//
// The paper's motivation is that error-prone manual management
// introduces config inconsistencies that degrade network health. This
// module detects those inconsistencies with a registry of LintRule
// objects — referential integrity (dangling ACL/VLAN/pool/LAG
// references), addressing (duplicate addresses, overlapping subnets),
// filter hygiene (empty ACLs, shadowed and unreachable terms),
// protocol coherence (one-sided or AS-mismatched BGP sessions, OSPF
// area disagreement, MTU mismatch on inferred links, VLAN span gaps),
// and housekeeping (unreferenced definitions, unused interfaces left
// enabled).
//
// Diagnostics carry source spans resolved against the rendered dialect
// text (both IOS-like and JunOS-like flavours), and rules can be
// suppressed per stanza or per device with comment pragmas:
//
//   IOS-like    ! lint-disable <rule-id> [<rule-id>...]     (next stanza)
//               ! lint-disable-file <rule-id> [...]         (whole device)
//   JunOS-like  /* lint-disable <rule-id> [...] */          (next block)
//               /* lint-disable-file <rule-id> [...] */     (whole device)
//
// The rule id "all" suppresses every rule. Pragmas live in comments,
// so they survive parse()/render() round trips untouched.
//
// Downstream, findings become per-(network, month) hygiene metrics in
// the case table (metrics/lint_metrics.hpp), a memoized session
// artifact (engine/session.hpp), and `mpa_cli lint` output in text,
// JSON, and SARIF form.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "config/addr.hpp"
#include "config/dialect.hpp"
#include "config/facts.hpp"
#include "config/stanza.hpp"

namespace mpa {

// ---------------------------------------------------------------- taxonomy

enum class LintSeverity : std::uint8_t { kInfo, kWarning, kError };
inline constexpr int kNumLintSeverities = 3;

enum class LintCategory : std::uint8_t {
  kReferential,  ///< A reference that does not resolve.
  kAddressing,   ///< IP addressing inconsistencies.
  kFilter,       ///< ACL / firewall-filter structure problems.
  kProtocol,     ///< Cross-device protocol disagreements.
  kHygiene,      ///< Dead or sloppy configuration.
};
inline constexpr int kNumLintCategories = 5;

std::string_view to_string(LintSeverity s);
std::string_view to_string(LintCategory c);
std::optional<LintSeverity> parse_severity(std::string_view s);

// ------------------------------------------------------------- diagnostics

/// 1-based line range in the rendered dialect text; {0, 0} when the
/// finding was produced without source text.
struct SourceSpan {
  int first_line = 0;
  int last_line = 0;
  bool resolved() const { return first_line > 0; }

  friend bool operator==(const SourceSpan&, const SourceSpan&) = default;
};

struct Diagnostic {
  std::string rule_id;
  LintSeverity severity{};
  LintCategory category{};
  std::string device_id;
  std::string object;   ///< "type name" of the anchoring stanza ("" = device).
  std::string message;  ///< Human-readable specifics.
  SourceSpan span;
  bool suppressed = false;  ///< Pragma-suppressed (kept only on request).
};

// ------------------------------------------------------- source resolution

/// Per-device source info taken from dialect text: stanza spans and
/// suppression pragmas. Built from one StanzaChunker walk, either by
/// scan() or alongside interning (StanzaTable::intern), once per
/// snapshot and reused across lint runs.
///
/// A LintSource holds views, not copies: of the text (pragma rule ids)
/// and of the (type, name) strings handed to add(). Keep those bytes
/// alive while the source is used.
class LintSource {
 public:
  LintSource() = default;
  /// Walk `text` once. Throws the DataError parse() throws for
  /// malformed text.
  static LintSource scan(std::string_view text, Dialect d);

  /// Record the chunk `walk` last returned, whose stanza has this native
  /// (type, name). Call for every chunk in text order, then finish().
  void add(std::string_view type, std::string_view name, const StanzaChunker& walk);
  /// Record the comments after the last chunk, once `walk` is done.
  void finish(const StanzaChunker& walk);

  /// Span of the stanza with this native (type, name), if the text
  /// contains it (the first such stanza when the text repeats it).
  SourceSpan span_of(std::string_view type, std::string_view name) const;

  /// True if `rule_id` is suppressed for this stanza (stanza pragma or
  /// device-wide pragma). An empty type/name asks about device scope.
  bool suppresses(std::string_view rule_id, std::string_view type, std::string_view name) const;

 private:
  struct Entry {
    std::string_view type, name;
    SourceSpan span;
    std::uint32_t disabled_begin = 0, disabled_end = 0;  ///< Range of disabled_.
  };
  const Entry* find(std::string_view type, std::string_view name) const;

  std::vector<Entry> stanzas_;  ///< In text order.
  std::vector<std::string_view> disabled_;  ///< Rule ids of stanza pragmas.
  std::vector<std::string_view> device_disabled_;
};

// ------------------------------------------------------------------ rules

struct RuleInfo {
  std::string_view id;       ///< Stable kebab-case identifier.
  std::string_view summary;  ///< One-line description (SARIF rule help).
  LintCategory category{};
  LintSeverity severity{};  ///< Default severity; overridable per run.
};

class DeviceView;
class NetworkView;
class LintSink;

/// One check. Implementations override the scope(s) they need;
/// device-scope rules see one device at a time, network-scope rules
/// see the whole network with shared cross-device indexes.
class LintRule {
 public:
  virtual ~LintRule() = default;
  virtual RuleInfo info() const = 0;
  virtual void check_device(const DeviceView& dev, LintSink& sink) const;
  virtual void check_network(const NetworkView& net, LintSink& sink) const;
};

/// Ordered, id-unique collection of rules. The built-in registry holds
/// every rule in this module; custom registries can mix in their own.
class RuleRegistry {
 public:
  RuleRegistry() = default;
  RuleRegistry(RuleRegistry&&) = default;
  RuleRegistry& operator=(RuleRegistry&&) = default;

  /// Add a rule; its id must not collide with a registered one.
  void add(std::unique_ptr<LintRule> rule);

  const std::vector<std::unique_ptr<LintRule>>& rules() const { return rules_; }
  /// Look up by id; nullptr when absent.
  const LintRule* find(std::string_view id) const;

  /// The built-in rules, constructed once.
  static const RuleRegistry& builtin();

 private:
  std::vector<std::unique_ptr<LintRule>> rules_;
};

// ------------------------------------------------------------ analysis API

struct LintOptions {
  /// Per-rule enablement; rules absent from the map run. {"all", false}
  /// disables everything not explicitly re-enabled.
  std::map<std::string, bool> enable;
  /// Per-rule severity overrides.
  std::map<std::string, LintSeverity> severity;
  /// Keep pragma-suppressed findings, marked suppressed=true, instead
  /// of dropping them.
  bool keep_suppressed = false;
  /// Rule set to run (null = RuleRegistry::builtin()).
  const RuleRegistry* registry = nullptr;
};

/// One device of a network under analysis: the parsed config plus its
/// optional source info (spans + pragmas).
struct LintInput {
  const DeviceConfig* config = nullptr;
  const LintSource* source = nullptr;  ///< May be null (no text available).
};

/// Run all applicable rules over one network. Diagnostics come out
/// grouped by rule (registry order), then device, then stanza order —
/// deterministic for identical inputs. This is a device pass over each
/// device plus one network pass, merged by rule.
std::vector<Diagnostic> run_lint(const std::vector<LintInput>& network,
                                 const LintOptions& opts = {});

/// The two halves of run_lint(). A device-scope check sees one device
/// only, so a device's device pass can run once per config state and be
/// reused by every network state that includes it; the network pass
/// runs over each network state. Both feed the sink in registry order.
void run_device_rules(const DeviceView& dev, LintSink& sink);
void run_network_rules(const NetworkView& net, LintSink& sink);

/// Counts of findings without the findings: what a LintSink tallies
/// instead of collecting Diagnostics. Tallies of the passes that make
/// up a run_lint() add up to the counts of its Diagnostics.
struct LintTally {
  int total = 0;  ///< Unsuppressed findings.
  std::array<int, kNumLintCategories> by_category{};
  std::array<int, kNumLintSeverities> by_severity{};
  int suppressed = 0;  ///< Pragma-suppressed findings (counted when kept).
  /// Registry positions of rules with an unsuppressed finding.
  std::vector<bool> rules_hit;

  LintTally& operator+=(const LintTally& other);
};

/// Convenience: intra-device checks on one parsed config (no spans).
std::vector<Diagnostic> lint_device(const DeviceConfig& config, const LintOptions& opts = {});

/// Convenience: all checks over parsed configs (no spans).
std::vector<Diagnostic> lint_network(const std::vector<DeviceConfig>& network,
                                     const LintOptions& opts = {});

/// Raw dialect text of one device, for span-resolving runs. The text
/// is a view: the caller keeps the bytes alive for the lint call.
struct DeviceText {
  std::string device_id;
  std::string_view text;
  Dialect dialect = Dialect::kIosLike;
};

/// Parse + scan each device's text, then run all checks with spans
/// resolved and pragmas honored. Throws DataError on malformed text.
std::vector<Diagnostic> lint_network_text(const std::vector<DeviceText>& network,
                                          const LintOptions& opts = {});

// ------------------------------------------------ rule execution contexts

/// Device under analysis with the indexes its rules share: a device id
/// and its stanzas' facts (facts.hpp), indexed once, on construction;
/// copies share the indexes, so one view can serve a device pass and
/// every network pass it joins.
class DeviceView {
 public:
  /// A view of stanzas whose facts are already derived (e.g. by a
  /// StanzaTable), in config order. `device_id` and the facts must
  /// outlive the view.
  DeviceView(const std::string& device_id, std::vector<const StanzaFacts*> stanzas,
             const LintSource* source);
  /// A view of a parsed config; derives its stanzas' facts. `config`
  /// must outlive the view.
  DeviceView(const DeviceConfig& config, const LintSource* source);

  const LintSource* source() const { return source_; }
  const std::string& device_id() const { return *device_id_; }

  /// Every stanza with its facts, in config order.
  const std::vector<const StanzaFacts*>& stanzas() const { return index_->stanzas; }
  /// Stanzas whose agnostic type matches, in config order.
  const std::vector<const Stanza*>& of_type(std::string_view agnostic) const;
  /// Their names, sorted and unique.
  const std::vector<std::string_view>& names_of(std::string_view agnostic) const;
  bool defines(std::string_view agnostic, std::string_view name) const;
  /// Stanzas instantiating this protocol construct (construct_of()), in
  /// config order.
  const std::vector<const Stanza*>& of_construct(std::string_view construct) const;

  /// An interface's address option that parses as a prefix.
  struct Address {
    const Stanza* stanza = nullptr;
    Ipv4Prefix prefix;
  };
  /// Every interface address, in stanza and option order.
  const std::vector<Address>& addresses() const { return index_->addresses; }

 private:
  struct Group {
    std::string_view key;
    std::vector<const Stanza*> stanzas;
    std::vector<std::string_view> names;  ///< Sorted, unique (type groups only).
  };
  struct Index {
    std::vector<StanzaFacts> owned;  ///< Facts derived by the view itself.
    std::vector<const StanzaFacts*> stanzas;
    std::vector<Group> types, constructs;
    std::vector<Address> addresses;
    /// Fill the groups and addresses from `stanzas`.
    void build();
  };
  static const Group& find(const std::vector<Group>& groups, std::string_view key);

  const std::string* device_id_;
  const LintSource* source_;
  std::shared_ptr<const Index> index_;
};

/// Whole network with cross-device indexes shared by network rules.
class NetworkView {
 public:
  explicit NetworkView(const std::vector<LintInput>& inputs);
  /// A network of views already built, e.g. by device passes.
  explicit NetworkView(std::vector<DeviceView> devices);

  const std::vector<DeviceView>& devices() const { return devices_; }

  struct IfaceAddr {
    std::size_t device = 0;  ///< Index into devices().
    const Stanza* stanza = nullptr;
    Ipv4Prefix prefix;
  };
  /// Every interface address in the network, in device/stanza order.
  const std::vector<IfaceAddr>& iface_addrs() const { return iface_addrs_; }

  /// Device index owning `ip` on an interface, or npos.
  std::size_t owner_of(std::uint32_t ip) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Devices running a BGP process, with the process stanza.
  struct BgpProc {
    std::size_t device = 0;
    const Stanza* stanza = nullptr;
  };
  const std::vector<BgpProc>& bgp_procs() const { return bgp_procs_; }
  bool runs_bgp(std::size_t device) const;

 private:
  std::vector<DeviceView> devices_;
  std::vector<IfaceAddr> iface_addrs_;
  std::map<std::uint32_t, std::size_t> addr_owner_;
  std::vector<BgpProc> bgp_procs_;
  std::vector<bool> runs_bgp_;  ///< By device index.
};

/// Where rules deposit findings. Handles severity overrides, pragma
/// suppression, and span resolution so rules only say what is wrong
/// and where. A sink either collects Diagnostics or only counts them
/// into a LintTally.
class LintSink {
 public:
  LintSink(const LintOptions& opts, std::vector<Diagnostic>& out);
  LintSink(const LintOptions& opts, LintTally& tally);

  /// Anchor a finding to a stanza of `dev` (null = whole device).
  void report(const DeviceView& dev, const Stanza* anchor, std::string message);
  /// report() with the message built only when the sink collects.
  template <std::invocable MakeMessage>
  void report(const DeviceView& dev, const Stanza* anchor, MakeMessage&& message) {
    report(dev, anchor, tally_ != nullptr ? std::string() : std::string(message()));
  }

  const LintOptions& options() const { return *opts_; }
  const RuleRegistry& registry() const;

  /// The rule currently executing and its registry position (set by
  /// the engine).
  void set_active(const LintRule* rule, std::size_t position);

 private:
  const LintOptions* opts_;
  std::vector<Diagnostic>* out_ = nullptr;
  LintTally* tally_ = nullptr;
  const LintRule* active_ = nullptr;
  std::size_t position_ = 0;
  RuleInfo active_info_{};
  LintSeverity severity_{};  ///< active_info_'s, after overrides.
};

}  // namespace mpa
