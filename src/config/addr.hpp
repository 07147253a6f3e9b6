// Minimal IPv4 address / prefix handling for reference and adjacency
// extraction. Header-only; only the operations the analyzers need.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/strings.hpp"

namespace mpa {

/// An IPv4 prefix (address + mask length). Value type, totally ordered
/// so it can key maps.
struct Ipv4Prefix {
  std::uint32_t addr = 0;  ///< Host-order address bits.
  int len = 32;            ///< Mask length, 0-32.

  /// The network (masked) address of this prefix.
  std::uint32_t network() const {
    return len == 0 ? 0 : addr & (~std::uint32_t{0} << (32 - len));
  }
  /// True if `ip` falls inside this prefix.
  bool contains(std::uint32_t ip) const {
    return len == 0 || (ip & (~std::uint32_t{0} << (32 - len))) == network();
  }
  /// The enclosing subnet as a canonical prefix (network address + len).
  Ipv4Prefix subnet() const { return Ipv4Prefix{network(), len}; }

  friend auto operator<=>(const Ipv4Prefix&, const Ipv4Prefix&) = default;
};

/// Parse "a.b.c.d" into host-order bits; nullopt on malformed input.
inline std::optional<std::uint32_t> parse_ipv4(std::string_view s) {
  std::uint32_t out = 0;
  int octets = 0;
  for (std::size_t start = 0;;) {
    const std::size_t dot = s.find('.', start);
    const std::string_view part =
        s.substr(start, dot == std::string_view::npos ? dot : dot - start);
    if (part.empty() || part.size() > 3 || octets == 4) return std::nullopt;
    int v = 0;
    for (char c : part) {
      if (c < '0' || c > '9') return std::nullopt;
      v = v * 10 + (c - '0');
    }
    if (v > 255) return std::nullopt;
    out = (out << 8) | static_cast<std::uint32_t>(v);
    ++octets;
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  return octets == 4 ? std::optional<std::uint32_t>(out) : std::nullopt;
}

/// Parse "a.b.c.d/len"; nullopt on malformed input.
inline std::optional<Ipv4Prefix> parse_prefix(std::string_view s) {
  const std::size_t slash = s.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto ip = parse_ipv4(s.substr(0, slash));
  if (!ip) return std::nullopt;
  int len = 0;
  const std::string_view ls = s.substr(slash + 1);
  if (ls.empty() || ls.size() > 2) return std::nullopt;
  for (char c : ls) {
    if (c < '0' || c > '9') return std::nullopt;
    len = len * 10 + (c - '0');
  }
  if (len > 32) return std::nullopt;
  return Ipv4Prefix{*ip, len};
}

/// Format host-order bits as dotted quad.
inline std::string format_ipv4(std::uint32_t ip) {
  return std::to_string((ip >> 24) & 0xff) + '.' + std::to_string((ip >> 16) & 0xff) + '.' +
         std::to_string((ip >> 8) & 0xff) + '.' + std::to_string(ip & 0xff);
}

/// Format a prefix as "a.b.c.d/len".
inline std::string format_prefix(const Ipv4Prefix& p) {
  return format_ipv4(p.addr) + '/' + std::to_string(p.len);
}

}  // namespace mpa
