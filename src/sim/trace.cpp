#include "sim/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace ftsort::sim {

namespace {
const char* kind_name(EventKind k) {
  switch (k) {
    case EventKind::Send: return "send";
    case EventKind::Recv: return "recv";
    case EventKind::Compute: return "compute";
    case EventKind::Drop: return "drop";
    case EventKind::Timeout: return "timeout";
    case EventKind::Kill: return "kill";
    case EventKind::SpanBegin: return "begin";
    case EventKind::SpanEnd: return "end";
  }
  return "?";
}
}  // namespace

void Trace::reshard(std::uint32_t num_shards) {
  shards_.clear();
  shards_.reserve(num_shards == 0 ? 1 : num_shards);
  for (std::uint32_t i = 0; i < std::max<std::uint32_t>(num_shards, 1); ++i)
    shards_.push_back(std::make_unique<Shard>());
}

void Trace::record(TraceEvent ev) {
  if (!enabled_) return;
  Shard& shard =
      *shards_[ev.node < shards_.size() ? static_cast<std::size_t>(ev.node) : 0];
  ev.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> guard(shard.mutex);
  if (capacity_ == 0 || shard.ring.size() < capacity_) {
    shard.ring.push_back(ev);
    return;
  }
  // Ring full: overwrite the oldest retained event (append order, which on
  // each shard tracks seq order up to cross-thread Drop interleaving).
  if (shard.head >= shard.ring.size()) shard.head = 0;  // after a shrink
  shard.ring[shard.head] = ev;
  shard.head = (shard.head + 1) % shard.ring.size();
  ++shard.dropped;
}

void Trace::clear() {
  for (auto& shard : shards_) {
    const std::lock_guard<std::mutex> guard(shard->mutex);
    shard->ring.clear();
    shard->head = 0;
    shard->dropped = 0;
  }
}

std::size_t Trace::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> guard(shard->mutex);
    total += shard->ring.size();
  }
  return total;
}

std::uint64_t Trace::dropped() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> guard(shard->mutex);
    total += shard->dropped;
  }
  return total;
}

namespace {
void sort_by_seq(std::vector<TraceEvent>& events) {
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.seq < b.seq; });
}
}  // namespace

std::vector<TraceEvent> Trace::snapshot() const {
  std::vector<TraceEvent> events;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> guard(shard->mutex);
    events.insert(events.end(), shard->ring.begin(), shard->ring.end());
  }
  sort_by_seq(events);
  return events;
}

std::vector<TraceEvent> Trace::snapshot(
    std::uint64_t since, std::initializer_list<EventKind> kinds) const {
  std::vector<TraceEvent> events;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> guard(shard->mutex);
    for (const TraceEvent& ev : shard->ring)
      if (ev.seq >= since &&
          std::find(kinds.begin(), kinds.end(), ev.kind) != kinds.end())
        events.push_back(ev);
  }
  sort_by_seq(events);
  return events;
}

std::string Trace::to_string(std::size_t max_lines) const {
  return format_trace(snapshot(), max_lines);
}

std::string format_trace(std::span<const TraceEvent> events,
                         std::size_t max_lines) {
  std::ostringstream os;
  std::size_t shown = 0;
  for (const auto& ev : events) {
    if (shown++ >= max_lines) {
      os << "... (" << events.size() - max_lines << " more events)\n";
      break;
    }
    os << std::fixed << std::setprecision(1) << std::setw(12) << ev.time
       << "us  node " << std::setw(3) << ev.node << "  "
       << kind_name(ev.kind);
    if (ev.kind == EventKind::Compute)
      os << " comparisons=" << ev.keys;
    else if (ev.kind == EventKind::Kill)
      os << " (processor dies)";
    else if (ev.kind == EventKind::SpanBegin ||
             ev.kind == EventKind::SpanEnd)
      os << " phase=" << phase_name(ev.phase);
    else
      os << (ev.kind == EventKind::Send ? " -> " : " <- ") << ev.peer
         << " tag=" << ev.tag << " keys=" << ev.keys
         << " hops=" << ev.hops;
    os << '\n';
  }
  return os.str();
}

}  // namespace ftsort::sim
