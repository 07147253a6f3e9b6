#include "config/dialect.hpp"

#include <array>
#include <optional>
#include <sstream>

#include "util/strings.hpp"

namespace mpa {
namespace {

// Multi-word constructs must be listed longest-first so the parser
// greedily matches "ip access-list" before a hypothetical "ip".
constexpr std::array<std::string_view, 6> kIosMultiwordTypes = {
    "ip access-list", "ip dhcp-relay", "router bgp", "router ospf", "qos policy",
    "port-channel",  // single token but hyphenated; harmless to list
};

constexpr std::array<std::string_view, 5> kIosMultiwordKeys = {
    "switchport access vlan", "switchport mode", "ip access-group", "ip address",
    "spanning-tree vlan",
};

std::string_view match_prefix(std::string_view line,
                              std::string_view candidate) {
  // Returns candidate if `line` starts with it followed by end/space.
  if (line.size() >= candidate.size() && line.substr(0, candidate.size()) == candidate &&
      (line.size() == candidate.size() || line[candidate.size()] == ' ')) {
    return candidate;
  }
  return {};
}

// Split one option line into (key, value) for the IOS-like dialect.
Option parse_ios_option(std::string_view line) {
  for (std::string_view key : kIosMultiwordKeys) {
    if (!match_prefix(line, key).empty()) {
      std::string_view rest = line.substr(key.size());
      return Option{std::string(key), std::string(trim(rest))};
    }
  }
  const std::size_t sp = line.find(' ');
  if (sp == std::string_view::npos) return Option{std::string(line), ""};
  return Option{std::string(line.substr(0, sp)), std::string(trim(line.substr(sp + 1)))};
}

// Split a stanza header line into (type, name) for the IOS-like dialect.
std::pair<std::string_view, std::string_view> split_ios_header(std::string_view line) {
  for (std::string_view t : kIosMultiwordTypes)
    if (!match_prefix(line, t).empty()) return {t, trim(line.substr(t.size()))};
  const std::size_t sp = line.find(' ');
  if (sp == std::string_view::npos) return {line, {}};
  return {line.substr(0, sp), trim(line.substr(sp + 1))};
}

// Split a JunOS-like block header (the trimmed line without its "{")
// into (type, name).
std::pair<std::string_view, std::string_view> split_junos_header(std::string_view header) {
  const std::size_t sp = header.find(' ');
  if (sp == std::string_view::npos) return {header, {}};
  return {header.substr(0, sp), trim(header.substr(sp + 1))};
}

// The line of `text` starting at `pos` (without its '\n'); advances
// `pos` past it. Yields the same lines as split(text, '\n') without
// copying them; returns false once every line has been taken.
bool next_line(std::string_view text, std::size_t& pos, std::string_view& raw) {
  if (pos > text.size()) return false;
  const std::size_t nl = text.find('\n', pos);
  const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
  raw = text.substr(pos, end - pos);
  pos = end + 1;
  return true;
}

// The text of a comment line (trimmed, starting with "/*"), without its
// markers.
std::string_view junos_comment(std::string_view line) {
  std::string_view body = line.substr(2);
  if (body.size() >= 2 && body.substr(body.size() - 2) == "*/") body.remove_suffix(2);
  return trim(body);
}

Stanza parse_ios_stanza(std::string_view chunk) {
  Stanza s;
  bool header = true;
  std::size_t pos = 0;
  std::string_view raw;
  while (next_line(chunk, pos, raw)) {
    const std::string_view line = trim(raw);
    if (line.empty()) continue;
    if (header) {
      const auto [type, name] = split_ios_header(line);
      s.type = std::string(type);
      s.name = std::string(name);
      header = false;
    } else {
      s.options.push_back(parse_ios_option(line));
    }
  }
  return s;
}

Stanza parse_junos_stanza(std::string_view chunk) {
  Stanza s;
  bool header = true;
  std::size_t pos = 0;
  std::string_view raw;
  while (next_line(chunk, pos, raw)) {
    std::string_view line = trim(raw);
    if (line.empty() || starts_with(line, "/*") || line == "}") continue;
    if (header) {
      if (line.back() == '{') line.remove_suffix(1);
      const auto [type, name] = split_junos_header(trim(line));
      s.type = std::string(type);
      s.name = std::string(name);
      header = false;
      continue;
    }
    if (line.back() == ';') line.remove_suffix(1);
    const std::string_view stmt = trim(line);
    const std::size_t sp = stmt.find(' ');
    if (sp == std::string_view::npos) {
      s.options.push_back(Option{std::string(stmt), ""});
    } else {
      s.options.push_back(
          Option{std::string(stmt.substr(0, sp)), std::string(trim(stmt.substr(sp + 1)))});
    }
  }
  return s;
}

std::string render_ios(const DeviceConfig& c) {
  std::ostringstream os;
  os << "! device " << c.device_id() << "\n";
  for (const auto& s : c.stanzas()) {
    os << s.type;
    if (!s.name.empty()) os << ' ' << s.name;
    os << '\n';
    for (const auto& o : s.options) {
      os << "  " << o.key;
      if (!o.value.empty()) os << ' ' << o.value;
      os << '\n';
    }
    os << "!\n";
  }
  return os.str();
}

std::string render_junos(const DeviceConfig& c) {
  std::ostringstream os;
  os << "/* device " << c.device_id() << " */\n";
  for (const auto& s : c.stanzas()) {
    os << s.type;
    if (!s.name.empty()) os << ' ' << s.name;
    os << " {\n";
    for (const auto& o : s.options) {
      os << "    " << o.key;
      if (!o.value.empty()) os << ' ' << o.value;
      os << ";\n";
    }
    os << "}\n";
  }
  return os.str();
}

}  // namespace

Dialect dialect_of(Vendor v) {
  switch (v) {
    case Vendor::kJunegrass:
    case Vendor::kBrocatel:
      return Dialect::kJunosLike;
    case Vendor::kCirrus:
    case Vendor::kAristos:
    case Vendor::kEffen:
    case Vendor::kPaloverde:
      return Dialect::kIosLike;
  }
  return Dialect::kIosLike;
}

std::string render(const DeviceConfig& config, Dialect d) {
  return d == Dialect::kIosLike ? render_ios(config) : render_junos(config);
}

std::optional<std::string_view> StanzaChunker::next() {
  return dialect_ == Dialect::kIosLike ? next_ios() : next_junos();
}

void StanzaChunker::open_chunk() {
  comments_.swap(pending_);
  pending_.clear();
}

// A stanza runs from its header to its last option line; a "!" line or
// the next header ends it.
std::optional<std::string_view> StanzaChunker::next_ios() {
  std::size_t begin = std::string_view::npos, end = 0;
  std::string_view raw;
  for (std::size_t at = pos_; next_line(text_, pos_, raw); at = pos_) {
    ++line_;
    const std::string_view line = trim(raw);
    if (line.empty()) continue;
    if (line[0] == '!') {  // comment or terminator
      if (const std::string_view c = trim(line.substr(1)); !c.empty()) pending_.push_back(c);
      if (begin != std::string_view::npos) {
        last_line_ = line_;
        return text_.substr(begin, end - begin);
      }
      continue;
    }
    if (indent_of(raw) == 0) {
      if (begin != std::string_view::npos) {
        pos_ = at;  // this header opens the next chunk
        last_line_ = --line_;
        return text_.substr(begin, end - begin);
      }
      begin = at;
      first_line_ = line_;
      open_chunk();
    } else if (begin == std::string_view::npos) {
      throw DataError("IOS parse: option line outside a stanza: " + std::string(line));
    }
    end = at + raw.size();
  }
  if (begin != std::string_view::npos) {
    last_line_ = line_;
    return text_.substr(begin, end - begin);
  }
  open_chunk();
  return std::nullopt;
}

// A block runs from its "{" header through its closing "}".
std::optional<std::string_view> StanzaChunker::next_junos() {
  std::size_t begin = std::string_view::npos;
  std::string_view header, raw;
  const auto open_type = [&] {
    return std::string(split_junos_header(trim(header.substr(0, header.size() - 1))).first);
  };
  for (std::size_t at = pos_; next_line(text_, pos_, raw); at = pos_) {
    ++line_;
    const std::string_view line = trim(raw);
    if (line.empty()) continue;
    if (starts_with(line, "/*")) {
      if (const std::string_view c = junos_comment(line); !c.empty()) pending_.push_back(c);
      continue;
    }
    if (line == "}") {
      if (begin == std::string_view::npos) throw DataError("JunOS parse: unbalanced '}'");
      last_line_ = line_;
      return text_.substr(begin, at + raw.size() - begin);
    }
    if (line.back() == '{') {
      if (begin != std::string_view::npos)
        throw DataError("JunOS parse: nested block in " + open_type());
      begin = at;
      header = line;
      first_line_ = line_;
      open_chunk();
      continue;
    }
    if (begin == std::string_view::npos)
      throw DataError("JunOS parse: statement outside block: " + std::string(line));
    if (line.back() != ';') throw DataError("JunOS parse: missing ';' on: " + std::string(line));
  }
  if (begin != std::string_view::npos)
    throw DataError("JunOS parse: unterminated block " + open_type());
  open_chunk();
  return std::nullopt;
}

Stanza parse_stanza(std::string_view chunk, Dialect d) {
  return d == Dialect::kIosLike ? parse_ios_stanza(chunk) : parse_junos_stanza(chunk);
}

DeviceConfig parse(std::string_view text, Dialect d, std::string device_id) {
  DeviceConfig c(std::move(device_id));
  StanzaChunker chunks(text, d);
  while (const auto chunk = chunks.next()) c.stanzas().push_back(parse_stanza(*chunk, d));
  return c;
}

std::pair<std::string_view, std::string_view> stanza_key(std::string_view chunk, Dialect d) {
  std::string_view header = trim(chunk.substr(0, chunk.find('\n')));
  if (d == Dialect::kIosLike) return split_ios_header(header);
  if (!header.empty() && header.back() == '{') header.remove_suffix(1);
  return split_junos_header(trim(header));
}

}  // namespace mpa
