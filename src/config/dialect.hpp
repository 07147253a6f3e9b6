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
#include <utility>
#include <vector>

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
///
/// The walk also yields what a chunk's text leaves out: where the chunk
/// sits in the whole text and the comments before it. This is what
/// lets the lint engine point diagnostics at real lines and honor
/// suppression pragmas (LintSource) from the same walk that interns.
class StanzaChunker {
 public:
  StanzaChunker(std::string_view text, Dialect d) : text_(text), dialect_(d) {}

  /// The next chunk (a view into the text), or nullopt at the end.
  std::optional<std::string_view> next();

  /// 1-based line range of the chunk next() last returned. The header
  /// line comes first; the last line is the closing "}" (JunOS-like),
  /// or on IOS-like text the "!" line that ended the stanza, the line
  /// before the next header, or the text's last line.
  int first_line() const { return first_line_; }
  int last_line() const { return last_line_; }

  /// Comments between the previous chunk's header and the header of
  /// the chunk next() last returned, in text order; once next() has
  /// returned nullopt, those after the last header. Each is stripped of
  /// the dialect's comment markers and trimmed; empty ones are left
  /// out. Every comment of the text is yielded exactly once. The views
  /// alias the text.
  const std::vector<std::string_view>& comments() const { return comments_; }

 private:
  std::optional<std::string_view> next_ios();
  std::optional<std::string_view> next_junos();
  /// Start collecting the comments of the chunk after this one.
  void open_chunk();

  std::string_view text_;
  Dialect dialect_;
  std::size_t pos_ = 0;  ///< Start of the first line not yet consumed.
  int line_ = 0;         ///< Number of lines consumed.
  int first_line_ = 0, last_line_ = 0;
  std::vector<std::string_view> comments_, pending_;
};

/// Parse one chunk cut by StanzaChunker. Never throws: malformed text
/// is rejected by the chunker.
Stanza parse_stanza(std::string_view chunk, Dialect d);

/// The native (type, name) of a chunk cut by StanzaChunker: what
/// parse_stanza() yields for them, as views of the chunk (or of static
/// storage), without parsing the options.
std::pair<std::string_view, std::string_view> stanza_key(std::string_view chunk, Dialect d);

}  // namespace mpa
