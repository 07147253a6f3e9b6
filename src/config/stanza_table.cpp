#include "config/stanza_table.hpp"

#include "config/lint.hpp"
#include "util/hash.hpp"

namespace mpa {

std::size_t StanzaTable::ChunkHash::operator()(const Chunk& c) const {
  return fnv1a_words(c.text.data(), c.text.size()) ^ static_cast<std::size_t>(c.dialect);
}

std::size_t StanzaTable::KeyHash::operator()(const Key& k) const {
  return fnv1a_words(k.first.data(), k.first.size()) * kFnvPrime ^
         fnv1a_words(k.second.data(), k.second.size());
}

void StanzaTable::intern(std::string_view text, Dialect d, std::vector<StanzaId>& out,
                         LintSource* source) {
  StanzaChunker chunks(text, d);
  while (const auto chunk = chunks.next()) {
    const auto [it, fresh] = ids_.try_emplace(Chunk{*chunk, d}, static_cast<StanzaId>(size()));
    if (fresh) {
      const Stanza& s = stanzas_.emplace_back(parse_stanza(*chunk, d));
      facts_.push_back(stanza_facts(s, &vlans_));
      const auto key = keys_.try_emplace(Key{s.type, s.name},
                                         static_cast<std::uint32_t>(keys_.size()));
      key_of_.push_back(key.first->second);
    }
    out.push_back(it->second);
    if (source != nullptr) source->add(stanza(it->second).type, stanza(it->second).name, chunks);
  }
  if (source != nullptr) source->finish(chunks);
}

DeviceConfig StanzaTable::config(std::span<const StanzaId> ids, std::string device_id) const {
  DeviceConfig c(std::move(device_id));
  c.stanzas().reserve(ids.size());
  for (const StanzaId id : ids) c.stanzas().push_back(stanza(id));
  return c;
}

std::vector<StanzaChange> StanzaTable::diff(std::span<const StanzaId> before,
                                            std::span<const StanzaId> after) {
  std::vector<StanzaChange> out;
  pos_before_.resize(keys_.size(), -1);
  pos_after_.resize(keys_.size(), -1);
  // DeviceConfig::find() matches the first stanza with a (type, name).
  const auto index = [&](std::span<const StanzaId> ids, std::vector<std::int32_t>& pos) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      std::int32_t& p = pos[key_of_[ids[i]]];
      if (p < 0) p = static_cast<std::int32_t>(i);
    }
  };
  index(before, pos_before_);
  index(after, pos_after_);

  // Removed or updated stanzas, then added ones: diff()'s order.
  for (const StanzaId id : before) {
    const std::int32_t j = pos_after_[key_of_[id]];
    if (j >= 0 && after[static_cast<std::size_t>(j)] == id) continue;
    const Stanza* other = j < 0 ? nullptr : &stanza(after[static_cast<std::size_t>(j)]);
    if (auto c = stanza_change(&stanza(id), other)) out.push_back(std::move(*c));
  }
  for (const StanzaId id : after)
    if (pos_before_[key_of_[id]] < 0) out.push_back(*stanza_change(nullptr, &stanza(id)));

  for (const StanzaId id : before) pos_before_[key_of_[id]] = -1;
  for (const StanzaId id : after) pos_after_[key_of_[id]] = -1;
  return out;
}

}  // namespace mpa
