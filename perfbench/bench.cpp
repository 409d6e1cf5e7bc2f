#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

bool output_matches(std::span<const Key> out, std::span<const Key> reference) {
  return std::equal(out.begin(), out.end(), reference.begin(), reference.end());
}

std::uint64_t failed_trials(const ftsort::campaign::CampaignReport& report) {
  using ftsort::core::RunOutcome;
  const auto count = [&](RunOutcome o) {
    return report.outcomes[static_cast<std::size_t>(o)];
  };
  return count(RunOutcome::Corrupt) + count(RunOutcome::Failed) +
         count(RunOutcome::Deadlocked);
}

bool checker_self_test() {
  const std::vector<Key> reference{3, 5, 5, 8, 13, 21, 34};
  bool ok = output_matches(reference, reference);
  std::vector<Key> swapped = reference;
  std::swap(swapped[1], swapped[4]);
  ok = ok && !output_matches(swapped, reference);
  std::vector<Key> dropped = reference;
  dropped.erase(dropped.begin() + 3);
  ok = ok && !output_matches(dropped, reference);
  std::vector<Key> duplicated = reference;
  duplicated[3] = duplicated[2];
  ok = ok && !output_matches(duplicated, reference);

  ftsort::campaign::CampaignReport report;
  ok = ok && failed_trials(report) == 0;
  report.outcomes[static_cast<std::size_t>(
      ftsort::core::RunOutcome::Corrupt)] = 1;
  ok = ok && failed_trials(report) == 1;
  return ok;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

Tracer::Scope Tracer::span(const char* name) {
  if (!enabled_ || !active_) return Scope(nullptr, 0);
  Span s;
  s.name = name;
  s.op = op_;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

void Tracer::close(std::size_t index) {
  spans_[index].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - origin_)
                             .count();
  // Scopes are RAII, so closes arrive in LIFO order.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, std::pair<double, double>> Tracer::self_times_ms()
    const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, std::pair<double, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double total = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    auto& [t, self] = out[spans_[i].name];
    t += 1e-6 * total;
    self += 1e-6 * (total - child_ns[i]);
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(s.start_ns) / 1000.0
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1000.0
       << ",\"args\":{\"id\":" << i << ",\"op\":" << s.op
       << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
