// Interned stanzas: each distinct stanza chunk parsed once.
//
// A device's config is archived on every change, so consecutive
// snapshots share almost every stanza. A StanzaTable cuts each
// snapshot into chunks (StanzaChunker), keys them by their text, and
// parses a chunk and derives its facts (facts.hpp) only the first time
// it is seen; a snapshot becomes an ordered vector of stanza ids. Equal
// ids mean byte-equal chunks and therefore equal stanzas, so diffing two
// snapshots compares only the stanzas whose id changed.
//
// The table is not synchronized: one owner (in inference, the pool
// task inferring one network) interns, diffs and reads it, which keeps
// ids and output deterministic at any thread count.
#pragma once

// srclint-disable-file(unordered-iteration): the chunk and key indexes
// are only looked up, never iterated; ids come from insertion order.

#include <cstdint>
#include <deque>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "config/dialect.hpp"
#include "config/diff.hpp"
#include "config/facts.hpp"

namespace mpa {

class LintSource;

using StanzaId = std::uint32_t;

class StanzaTable {
 public:
  /// Append the ids of `text`'s stanzas, in text order, to `out`.
  /// Throws the DataError parse() throws for malformed text. Chunks are
  /// referenced, not copied: `text` must outlive the table. With a
  /// `source`, the same walk also records the text's spans and pragmas
  /// into it; its (type, name) views then point into this table.
  void intern(std::string_view text, Dialect d, std::vector<StanzaId>& out,
              LintSource* source = nullptr);

  const Stanza& stanza(StanzaId id) const { return stanzas_[id]; }
  /// The facts of stanza `id`, derived once, when it was first interned.
  /// VLAN names get ids from one NameTable per StanzaTable.
  const StanzaFacts& facts(StanzaId id) const { return facts_[id]; }
  /// Number of distinct stanzas interned.
  std::size_t size() const { return stanzas_.size(); }

  /// The config a snapshot's ids stand for; equals parse() of its text.
  /// A copy: inference reads states through facts() instead.
  DeviceConfig config(std::span<const StanzaId> ids, std::string device_id) const;

  /// diff() of the configs `before` and `after` stand for: the same
  /// StanzaChange sequence. Unchanged ids are equal without comparing;
  /// (type, name) matches come from a dense index, not a scan.
  std::vector<StanzaChange> diff(std::span<const StanzaId> before,
                                 std::span<const StanzaId> after);

 private:
  struct Chunk {
    std::string_view text;
    Dialect dialect;
    friend bool operator==(const Chunk&, const Chunk&) = default;
  };
  struct ChunkHash {
    std::size_t operator()(const Chunk& c) const;
  };
  using Key = std::pair<std::string_view, std::string_view>;  ///< (type, name)
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  std::unordered_map<Chunk, StanzaId, ChunkHash> ids_;
  std::deque<Stanza> stanzas_;  ///< By id; a deque so views and pointers stay valid.
  std::deque<StanzaFacts> facts_;  ///< By id.
  NameTable vlans_;
  std::vector<std::uint32_t> key_of_;  ///< Stanza id -> dense (type, name) id.
  std::unordered_map<Key, std::uint32_t, KeyHash> keys_;
  /// diff() scratch, by key id: first position in before / after, or -1.
  /// All -1 between calls.
  std::vector<std::int32_t> pos_before_, pos_after_;
};

}  // namespace mpa
