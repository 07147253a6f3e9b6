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

// Split a stanza header into (type, name) for the IOS-like dialect.
Stanza parse_ios_header(std::string_view line) {
  Stanza s;
  for (std::string_view t : kIosMultiwordTypes) {
    if (!match_prefix(line, t).empty()) {
      s.type = std::string(t);
      s.name = std::string(trim(line.substr(t.size())));
      return s;
    }
  }
  const std::size_t sp = line.find(' ');
  if (sp == std::string_view::npos) {
    s.type = std::string(line);
  } else {
    s.type = std::string(line.substr(0, sp));
    s.name = std::string(trim(line.substr(sp + 1)));
  }
  return s;
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

Stanza parse_ios_stanza(std::string_view chunk) {
  Stanza s;
  bool header = true;
  std::size_t pos = 0;
  std::string_view raw;
  while (next_line(chunk, pos, raw)) {
    const std::string_view line = trim(raw);
    if (line.empty()) continue;
    if (header) {
      s = parse_ios_header(line);
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

SourceMap scan_ios(std::string_view text) {
  SourceMap map;
  std::vector<std::string> pending_comments;
  int line_no = 0;
  int open = -1;  // index into map.stanzas of the stanza being scanned
  auto close = [&](int end_line) {
    if (open >= 0) map.stanzas[static_cast<std::size_t>(open)].last_line = end_line;
    open = -1;
  };
  std::string_view raw;
  for (std::size_t pos = 0; next_line(text, pos, raw);) {
    ++line_no;
    std::string_view line = trim(raw);
    if (line.empty()) continue;
    if (line[0] == '!') {
      close(line_no);  // "!" terminates the current stanza
      const std::string comment(trim(line.substr(1)));
      if (!comment.empty()) {
        map.all_comments.push_back(comment);
        pending_comments.push_back(comment);
      }
      continue;
    }
    if (indent_of(raw) == 0) {
      close(line_no - 1);
      Stanza header = parse_ios_header(line);
      SourceStanza src;
      src.type = std::move(header.type);
      src.name = std::move(header.name);
      src.first_line = line_no;
      src.last_line = line_no;
      src.leading_comments = std::move(pending_comments);
      pending_comments.clear();
      open = static_cast<int>(map.stanzas.size());
      map.stanzas.push_back(std::move(src));
    } else if (open >= 0) {
      map.stanzas[static_cast<std::size_t>(open)].last_line = line_no;
    }
  }
  close(line_no);
  return map;
}

SourceMap scan_junos(std::string_view text) {
  SourceMap map;
  std::vector<std::string> pending_comments;
  int line_no = 0;
  int open = -1;
  std::string_view raw;
  for (std::size_t pos = 0; next_line(text, pos, raw);) {
    ++line_no;
    std::string_view line = trim(raw);
    if (line.empty()) continue;
    if (starts_with(line, "/*")) {
      std::string_view body = line.substr(2);
      if (body.size() >= 2 && body.substr(body.size() - 2) == "*/")
        body = body.substr(0, body.size() - 2);
      const std::string comment(trim(body));
      if (!comment.empty()) {
        map.all_comments.push_back(comment);
        pending_comments.push_back(comment);
      }
      continue;
    }
    if (line == "}") {
      if (open >= 0) map.stanzas[static_cast<std::size_t>(open)].last_line = line_no;
      open = -1;
      continue;
    }
    if (line.back() == '{') {
      const auto [type, name] = split_junos_header(trim(line.substr(0, line.size() - 1)));
      SourceStanza src;
      src.type = std::string(type);
      src.name = std::string(name);
      src.first_line = line_no;
      src.last_line = line_no;
      src.leading_comments = std::move(pending_comments);
      pending_comments.clear();
      open = static_cast<int>(map.stanzas.size());
      map.stanzas.push_back(std::move(src));
      continue;
    }
    if (open >= 0) map.stanzas[static_cast<std::size_t>(open)].last_line = line_no;
  }
  return map;
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

// A stanza runs from its header to its last option line; a "!" line or
// the next header ends it.
std::optional<std::string_view> StanzaChunker::next_ios() {
  std::size_t begin = std::string_view::npos, end = 0;
  std::string_view raw;
  for (std::size_t at = pos_; next_line(text_, pos_, raw); at = pos_) {
    const std::string_view line = trim(raw);
    if (line.empty()) continue;
    if (line[0] == '!') {  // comment or terminator
      if (begin != std::string_view::npos) return text_.substr(begin, end - begin);
      continue;
    }
    if (indent_of(raw) == 0) {
      if (begin != std::string_view::npos) {
        pos_ = at;  // this header opens the next chunk
        return text_.substr(begin, end - begin);
      }
      begin = at;
    } else if (begin == std::string_view::npos) {
      throw DataError("IOS parse: option line outside a stanza: " + std::string(line));
    }
    end = at + raw.size();
  }
  if (begin != std::string_view::npos) return text_.substr(begin, end - begin);
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
    const std::string_view line = trim(raw);
    if (line.empty() || starts_with(line, "/*")) continue;
    if (line == "}") {
      if (begin == std::string_view::npos) throw DataError("JunOS parse: unbalanced '}'");
      return text_.substr(begin, at + raw.size() - begin);
    }
    if (line.back() == '{') {
      if (begin != std::string_view::npos)
        throw DataError("JunOS parse: nested block in " + open_type());
      begin = at;
      header = line;
      continue;
    }
    if (begin == std::string_view::npos)
      throw DataError("JunOS parse: statement outside block: " + std::string(line));
    if (line.back() != ';') throw DataError("JunOS parse: missing ';' on: " + std::string(line));
  }
  if (begin != std::string_view::npos)
    throw DataError("JunOS parse: unterminated block " + open_type());
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

SourceMap scan_source(std::string_view text, Dialect d) {
  return d == Dialect::kIosLike ? scan_ios(text) : scan_junos(text);
}

}  // namespace mpa
