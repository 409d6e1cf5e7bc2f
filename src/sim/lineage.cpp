#include "sim/lineage.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "util/contracts.hpp"

namespace ftsort::sim {

namespace {

/// One past the last entry of `v` sharing `v[i]`'s value.
std::size_t run_end(const auto& v, std::size_t i) {
  std::size_t end = i;
  while (end < v.size() && v[end].value == v[i].value) ++end;
  return end;
}

}  // namespace

void Lineage::enable(std::uint32_t num_nodes, cube::Dim dim) {
  FTSORT_REQUIRE(dim > 0);
  enabled_ = true;
  dim_ = dim;
  holding_.assign(num_nodes, {});
  untracked_.assign(static_cast<std::size_t>(dim), 0);
  reset();
}

void Lineage::disable() {
  enabled_ = false;
  reset();
  holding_.clear();
  untracked_.clear();
}

void Lineage::reset() {
  recs_.clear();
  hops_.clear();
  chain_len_.clear();
  events_.clear();
  resolved_.clear();
  for (auto& h : holding_) h.clear();
  std::fill(untracked_.begin(), untracked_.end(), 0);
  dummies_ = dropped_events_ = resolve_mismatches_ = 0;
}

void Lineage::append_event(std::uint64_t id, LineageEvent ev) {
  if (chain_len_[id] >= kLineageMaxEventsPerKey) {
    ++dropped_events_;
    return;
  }
  ++chain_len_[id];
  events_.emplace_back(id, ev);
}

std::span<const Key> Lineage::sorted_view(std::span<const Key> keys) {
  if (std::is_sorted(keys.begin(), keys.end())) return keys;
  sorted_.assign(keys.begin(), keys.end());
  std::sort(sorted_.begin(), sorted_.end());
  return sorted_;
}

/// Appends (value, id) to node's holding unsorted; callers re-sort.
std::uint64_t Lineage::mint(cube::NodeId node, Key value, Phase phase) {
  const std::uint64_t id = recs_.size();
  LineageKeyRecord& rec = recs_.emplace_back();
  rec.value = value;
  rec.origin = rec.holder = node;
  rec.dummy = value == kDummyKey;
  if (rec.dummy) ++dummies_;
  hops_.resize(hops_.size() + static_cast<std::size_t>(dim_), 0);
  chain_len_.push_back(0);
  append_event(id, {LineageEventKind::Assign, phase, node, node, -1});
  holding_[node].push_back({value, id});
  return id;
}

void Lineage::assign_block(cube::NodeId node, std::span<const Key> block) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> guard(mutex_);
  for (const Key v : block) mint(node, v, Phase::Scatter);
  std::sort(holding_[node].begin(), holding_[node].end());
}

void Lineage::charge_send(cube::NodeId src,
                          std::span<const cube::NodeId> path,
                          std::span<const Key> payload) {
  if (!enabled_ || path.size() < 2) return;
  const std::lock_guard<std::mutex> guard(mutex_);
  // Crossings per dimension of this walk, counted once per send.
  std::array<std::uint64_t, cube::kMaxDim> crossings{};
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    ++crossings[static_cast<std::size_t>(
        cube::lowest_set_dim(path[i] ^ path[i + 1]))];
  const auto dim = static_cast<std::size_t>(dim_);
  // Walk the sorted payload against the sorted holding: the k-th
  // occurrence of a value is charged to the k-th smallest held id of it.
  const std::vector<Held>& held = holding_[src];
  auto h = held.begin();
  const std::span<const Key> words = sorted_view(payload);
  for (std::size_t i = 0; i < words.size();) {
    const Key v = words[i];
    h = std::lower_bound(h, held.end(), Held{v, 0});
    for (; i < words.size() && words[i] == v; ++i) {
      std::uint64_t* row = h != held.end() && h->value == v
                               ? &hops_[(h++)->id * dim]
                               : untracked_.data();
      for (std::size_t d = 0; d < dim; ++d) row[d] += crossings[d];
    }
  }
}

void Lineage::note_retain(cube::NodeId me, cube::NodeId partner,
                          std::uint32_t tag, std::span<const Key> kept,
                          Phase phase, std::int32_t witness_step) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> guard(mutex_);
  const cube::NodeId lower = std::min(me, partner);
  const cube::NodeId higher = std::max(me, partner);
  const PairStep key{lower, higher, tag};
  const auto at = std::lower_bound(resolved_.begin(), resolved_.end(), key);
  if (at != resolved_.end() && *at == key)
    return;  // the partner already resolved this pair-step
  resolved_.insert(at, key);

  // Pool: every (value, id) the pair holds, merged by value then id.
  std::vector<Held>& lo = holding_[lower];
  std::vector<Held>& hi = holding_[higher];
  pool_.resize(lo.size() + hi.size());
  std::merge(lo.begin(), lo.end(), hi.begin(), hi.end(), pool_.begin());
  lo.clear();
  hi.clear();

  // Canonical partition: the lower node's retained multiset takes the
  // smallest ids per value. When the higher node resolved first, its kept
  // multiset determines the lower's as the pool complement. Walking the
  // pool in order keeps both new holdings sorted.
  const std::span<const Key> mine = sorted_view(kept);
  std::size_t k = 0;
  const std::int32_t step = static_cast<std::int32_t>(tag);
  for (std::size_t i = 0; i < pool_.size();) {
    const std::size_t end = run_end(pool_, i);
    const std::size_t n = end - i;
    // Retained values with no id in the pair's pool at all.
    for (; k < mine.size() && mine[k] < pool_[i].value; ++k)
      ++resolve_mismatches_;
    std::size_t count = 0;
    for (; k < mine.size() && mine[k] == pool_[i].value; ++k) ++count;
    if (count > n) resolve_mismatches_ += count - n;
    const std::size_t lower_n =
        me == lower ? std::min(count, n) : n - std::min(count, n);
    for (std::size_t j = 0; j < n; ++j) {
      const Held held = pool_[i + j];
      const cube::NodeId to = j < lower_n ? lower : higher;
      LineageKeyRecord& rec = recs_[held.id];
      if (rec.holder != to) {
        append_event(held.id,
                     {LineageEventKind::Move, phase, to, rec.holder, step});
        rec.holder = to;
        ++rec.moves;
      }
      if (witness_step >= 0) {
        rec.witness = to == lower ? higher : lower;
        rec.witness_step = witness_step;
      }
      holding_[to].push_back(held);
    }
    i = end;
  }
  resolve_mismatches_ += mine.size() - k;
}

void Lineage::note_rescatter(const std::vector<std::vector<Key>>& blocks,
                             std::span<const SalvageInfo> salvage,
                             Phase phase) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> guard(mutex_);
  // Per node, its salvage record; a later entry for the same node wins.
  std::vector<const SalvageInfo*> dead(holding_.size(), nullptr);
  for (const SalvageInfo& s : salvage) dead[s.dead] = &s;

  // Pull every id out of circulation; dummies retire for good (the new
  // padding gets fresh ids), real ids re-enter at their new holders.
  pool_.clear();
  for (std::vector<Held>& held : holding_) {
    const auto pad =
        std::lower_bound(held.begin(), held.end(), Held{kDummyKey, 0});
    pool_.insert(pool_.end(), held.begin(), pad);
    for (auto h = pad; h != held.end(); ++h) {
      recs_[h->id].retired = true;
      const cube::NodeId at = recs_[h->id].holder;
      append_event(h->id, {LineageEventKind::Retire, phase, at, at, -1});
    }
    held.clear();
  }
  std::sort(pool_.begin(), pool_.end());
  // cursor_[first index of a value's run] = its next unpopped index.
  cursor_.resize(pool_.size());
  std::iota(cursor_.begin(), cursor_.end(), std::size_t{0});

  for (cube::NodeId u = 0; u < blocks.size(); ++u) {
    for (const Key v : blocks[u]) {
      const auto first = static_cast<std::size_t>(
          std::lower_bound(pool_.begin(), pool_.end(), Held{v, 0}) -
          pool_.begin());
      const std::size_t next = first < pool_.size() ? cursor_[first] : first;
      if (v == kDummyKey || next == pool_.size() || pool_[next].value != v) {
        // New padding, or a value salvage produced that lineage never
        // saw: mint it, counting the latter as a discrepancy.
        if (v != kDummyKey) ++resolve_mismatches_;
        mint(u, v, phase);
        continue;
      }
      ++cursor_[first];
      const std::uint64_t id = pool_[next].id;
      LineageKeyRecord& rec = recs_[id];
      if (const SalvageInfo* s = dead[rec.holder]; s != nullptr) {
        rec.salvaged = true;
        append_event(id, {LineageEventKind::Salvage, phase, u, s->witness,
                          s->step});
      } else if (rec.holder != u) {
        append_event(id,
                     {LineageEventKind::Rescatter, phase, u, rec.holder, -1});
      }
      rec.holder = u;
      holding_[u].push_back({v, id});
    }
  }
  for (std::vector<Held>& held : holding_) std::sort(held.begin(), held.end());

  // Real ids nobody re-adopted: the salvage lost them.
  for (std::size_t i = 0, end = 0; i < pool_.size(); i = end) {
    end = run_end(pool_, i);
    for (std::size_t j = cursor_[i]; j < end; ++j) {
      LineageKeyRecord& rec = recs_[pool_[j].id];
      rec.lost = true;
      append_event(pool_[j].id, {LineageEventKind::Lost, phase, rec.holder,
                                 rec.holder, -1});
    }
  }
}

LineageSnapshot Lineage::snapshot() const {
  const std::lock_guard<std::mutex> guard(mutex_);
  LineageSnapshot snap;
  snap.enabled = enabled_;
  if (!enabled_) return snap;
  snap.dim = dim_;
  snap.assigned = recs_.size();
  snap.dummies = dummies_;
  snap.dropped_events = dropped_events_;
  snap.resolve_mismatches = resolve_mismatches_;
  snap.untracked = untracked_;
  snap.keys = recs_;
  const auto dim = static_cast<std::ptrdiff_t>(dim_);
  for (std::size_t id = 0; id < recs_.size(); ++id) {
    const auto row = hops_.begin() + static_cast<std::ptrdiff_t>(id) * dim;
    snap.keys[id].hops.assign(row, row + dim);
    snap.keys[id].chain.reserve(chain_len_[id]);
  }
  for (const auto& [id, ev] : events_) snap.keys[id].chain.push_back(ev);
  return snap;
}

void audit_lineage(LineageSnapshot& snap, std::span<const Key> output) {
  if (!snap.enabled) return;
  LineageAudit audit;
  audit.checked = true;

  // Live real ids by value, then id; popping the front of a value's run
  // pops its smallest id. Walk them against the sorted output.
  std::vector<std::pair<Key, std::uint64_t>> live;
  for (std::uint64_t id = 0; id < snap.keys.size(); ++id) {
    const LineageKeyRecord& k = snap.keys[id];
    if (!k.dummy && !k.retired) live.emplace_back(k.value, id);
  }
  std::sort(live.begin(), live.end());
  std::vector<Key> out(output.begin(), output.end());
  std::sort(out.begin(), out.end());
  std::size_t j = 0;
  const auto lose = [&](const std::pair<Key, std::uint64_t>& l) {
    const LineageKeyRecord& rec = snap.keys[l.second];
    audit.lost.push_back({l.second, l.first, rec.holder,
                          rec.chain.empty() ? Phase::Unattributed
                                            : rec.chain.back().phase});
  };
  for (std::size_t i = 0; i < out.size();) {
    const Key v = out[i];
    std::uint64_t copies = 0;
    for (; i < out.size() && out[i] == v; ++i) ++copies;
    for (; j < live.size() && live[j].first < v; ++j) lose(live[j]);
    for (; copies > 0 && j < live.size() && live[j].first == v; ++j)
      --copies;
    if (copies > 0) audit.duplicated.push_back({v, copies});
  }
  for (; j < live.size(); ++j) lose(live[j]);
  std::sort(audit.lost.begin(), audit.lost.end(),
            [](const LineageAudit::LostKey& a,
               const LineageAudit::LostKey& b) { return a.id < b.id; });
  for (const LineageKeyRecord& k : snap.keys)
    if (k.salvaged) {
      ++audit.salvaged;
      if (k.witness != kLineageNoWitness ||
          std::any_of(k.chain.begin(), k.chain.end(),
                      [](const LineageEvent& ev) {
                        return ev.kind == LineageEventKind::Salvage &&
                               ev.peer != kLineageNoWitness;
                      }))
        ++audit.witnessed_salvaged;
    }
  audit.ok = audit.lost.empty() && audit.duplicated.empty();
  snap.audit = std::move(audit);
}

}  // namespace ftsort::sim
