#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace pxbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  double const rank = std::ceil(p * static_cast<double>(samples.size()));
  std::size_t const k = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

double mean(std::vector<double> const& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

std::uint32_t span_log::add(char const* name, std::int64_t start_ns,
                            std::int64_t end_ns, std::uint32_t parent,
                            std::uint64_t request, std::uint32_t lane) {
  if (!enabled_) return 0;
  auto const id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back({name, start_ns, end_ns, id, parent, request, lane});
  return id;
}

std::uint32_t span_log::open(char const* name, std::uint32_t parent,
                             std::uint64_t request) {
  std::int64_t const t = now_ns();
  return add(name, t, t, parent, request);
}

void span_log::close(std::uint32_t id) {
  if (id != 0) spans_[id - 1].end_ns = now_ns();
}

namespace {

// Nanoseconds of [lo, hi) covered by the union of `parts` (clipped).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>
                            parts,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(parts.begin(), parts.end());
  std::int64_t covered = 0;
  std::int64_t cursor = lo;
  for (auto [s, e] : parts) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

std::vector<span_log::layer_row> span_log::layer_table() const {
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (auto const& s : spans_)
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);

  std::vector<layer_row> rows;
  std::unordered_map<std::string, std::size_t> index;
  std::vector<std::vector<double>> durations;
  for (auto const& s : spans_) {
    auto [it, fresh] = index.try_emplace(s.name, rows.size());
    if (fresh) {
      rows.push_back({s.name, 0, 0.0, 0.0, 0.0, 0.0});
      durations.emplace_back();
    }
    layer_row& r = rows[it->second];
    std::int64_t const dur = s.end_ns - s.start_ns;
    std::int64_t child = 0;
    if (auto c = children.find(s.id); c != children.end())
      child = covered_ns(c->second, s.start_ns, s.end_ns);
    r.count += 1;
    r.sum_ms += static_cast<double>(dur) / 1e6;
    r.self_ms += static_cast<double>(dur - child) / 1e6;
    durations[it->second].push_back(static_cast<double>(dur) / 1e3);
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].p50_us = percentile(durations[i], 0.50);
    rows[i].p99_us = percentile(durations[i], 0.99);
  }
  return rows;
}

bool span_log::write_chrome_trace(std::string const& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t t0 = 0;
  for (auto const& s : spans_)
    if (t0 == 0 || s.start_ns < t0) t0 = s.start_ns;
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (auto const& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                  "\"parent\":%u,\"request\":%llu}}",
                  first ? "" : ",", s.name, s.lane,
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                  s.parent, static_cast<unsigned long long>(s.request));
    out << buf;
    first = false;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

void counter_window::close_into(counter_totals& into) const {
  auto const d = px::counters::delta(
      begin_, px::counters::registry::instance().take_snapshot());
  for (auto const& s : d.samples)
    if (s.k == px::counters::kind::monotone) into[s.path] += s.value;
}

double sum_paths(counter_totals const& totals, std::string const& prefix,
                 std::string const& suffix) {
  double sum = 0.0;
  for (auto it = totals.lower_bound(prefix);
       it != totals.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    std::string const& p = it->first;
    if (p.size() >= suffix.size() &&
        p.compare(p.size() - suffix.size(), suffix.size(), suffix) == 0)
      sum += static_cast<double>(it->second);
  }
  return sum;
}

bool result::all_checks_passed() const {
  if (checks.empty()) return false;
  for (auto const& c : checks)
    if (!c.passed) return false;
  return true;
}

}  // namespace pxbench
