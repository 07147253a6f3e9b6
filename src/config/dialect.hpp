// Vendor config dialects: rendering a DeviceConfig to vendor-flavoured
// text and parsing it back.
//
// The paper's pipeline extends Batfish to parse "the configuration
// languages of various device vendors (e.g., Cisco IOS)". We model two
// dialect families that cover the same inference problems:
//
//  * IOS-like   — flat stanzas, "!"-terminated, indented option lines,
//                 multi-word native types ("ip access-list", "router bgp")
//                 and a few multi-word option keys.
//  * JunOS-like — braced blocks, ";"-terminated options, hyphenated
//                 single-token types and keys.
//
// The two families deliberately typify the same logical change
// differently (e.g. VLAN membership lives under `interface` on IOS-like
// devices but under `vlans` on JunOS-like ones), reproducing the
// vendor-typification limitation discussed in §2.2.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "config/stanza.hpp"
#include "model/inventory.hpp"

namespace mpa {

enum class Dialect : std::uint8_t { kIosLike, kJunosLike };

/// Which dialect a vendor's devices speak.
Dialect dialect_of(Vendor v);

/// Render a config to dialect text. Round-trips through parse() for
/// configs whose option keys come from the dialect's known-key set
/// (everything the simulator generates does).
std::string render(const DeviceConfig& config, Dialect d);

/// Parse dialect text into a DeviceConfig. Unknown stanza types and
/// option keys are preserved verbatim (first token = key). Throws
/// DataError on structurally malformed text (e.g. unbalanced braces).
/// Equivalent to parse_stanza() over every StanzaChunker chunk.
DeviceConfig parse(std::string_view text, Dialect d, std::string device_id);

/// Cuts dialect text into stanza chunks, one at a time and in text
/// order: the bytes from a stanza's header line through its last
/// option line (IOS-like) or its closing "}" (JunOS-like). All of the
/// text's structure is checked here, so next() throws exactly the
/// DataError parse() throws, at the same stanza. A chunk's text alone
/// determines its parsed Stanza, which is what lets inference parse
/// each distinct chunk once (config/stanza_table.hpp).
class StanzaChunker {
 public:
  StanzaChunker(std::string_view text, Dialect d) : text_(text), dialect_(d) {}

  /// The next chunk (a view into the text), or nullopt at the end.
  std::optional<std::string_view> next();

 private:
  std::optional<std::string_view> next_ios();
  std::optional<std::string_view> next_junos();

  std::string_view text_;
  Dialect dialect_;
  std::size_t pos_ = 0;  ///< Start of the first line not yet consumed.
};

/// Parse one chunk cut by StanzaChunker. Never throws: malformed text
/// is rejected by the chunker.
Stanza parse_stanza(std::string_view chunk, Dialect d);

/// Structural source map of dialect text: where each stanza lives and
/// which comments precede it. This is what lets the lint engine point
/// diagnostics at real lines of the rendered config and honor
/// suppression pragmas, without re-teaching it either dialect's syntax.
struct SourceStanza {
  std::string type;  ///< Vendor-native stanza type (as parse() yields).
  std::string name;
  int first_line = 0;  ///< 1-based line of the stanza header.
  int last_line = 0;   ///< 1-based line of the last body/terminator line.
  /// Comment lines immediately preceding the header, stripped of the
  /// dialect's comment markers and trimmed.
  std::vector<std::string> leading_comments;
};

struct SourceMap {
  std::vector<SourceStanza> stanzas;
  /// Every comment in the file (stripped + trimmed), wherever it sits;
  /// file-scope lint pragmas are fished out of these.
  std::vector<std::string> all_comments;
};

/// Scan dialect text without building a DeviceConfig. Tolerant of the
/// same inputs parse() accepts; stanza (type, name) pairs match what
/// parse() would produce for them.
SourceMap scan_source(std::string_view text, Dialect d);

}  // namespace mpa
