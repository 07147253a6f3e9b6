// SharedText: an immutable text handle that points into bytes someone
// else owns.
//
// A handle is a std::string_view plus a std::shared_ptr<const void>
// that keeps the viewed bytes alive. Copies share the bytes (one
// reference-count increment, no byte copy), so a config snapshot loaded
// from a mapped snapshots.log or an mpac shard costs a pointer pair,
// and the mapping lives exactly as long as the last handle into it
// (DESIGN.md §17). Owned text — the generator's renders, test literals
// — is wrapped by moving it into a shared std::string.
#pragma once

#include <concepts>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace mpa {

class SharedText {
 public:
  SharedText() = default;

  /// Wrap owned text: the handle (and its copies) own the string.
  SharedText(std::string owned) {
    auto s = std::make_shared<const std::string>(std::move(owned));
    view_ = *s;
    owner_ = std::move(s);
  }
  SharedText(const char* owned) : SharedText(std::string(owned)) {}

  /// View `view`, which must lie inside bytes kept alive by `owner`.
  SharedText(std::string_view view, std::shared_ptr<const void> owner)
      : view_(view), owner_(std::move(owner)) {}

  std::string_view view() const { return view_; }

  /// `view().substr(pos, n)`, sharing this handle's bytes.
  SharedText substr(std::size_t pos, std::size_t n = std::string_view::npos) const {
    return SharedText(view_.substr(pos, n), owner_);
  }

  operator std::string_view() const { return view_; }

  /// An owned copy. Implicit on purpose: callers written against the
  /// earlier std::string member (a const std::string& parameter fed
  /// snapshot text) keep compiling, at the cost of one copy per call.
  /// Library code passes the view instead.
  operator std::string() const { return std::string(view_); }

  const char* data() const { return view_.data(); }
  std::size_t size() const { return view_.size(); }

  template <typename T>
    requires std::convertible_to<const T&, std::string_view>
  friend bool operator==(const SharedText& a, const T& b) {
    return a.view_ == std::string_view(b);
  }

  friend std::ostream& operator<<(std::ostream& os, const SharedText& t) {
    return os << t.view_;
  }

 private:
  std::string_view view_;
  std::shared_ptr<const void> owner_;
};

}  // namespace mpa
