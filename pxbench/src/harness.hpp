// pxbench/src/harness.hpp
// The measuring side of the workload benchmark: percentile statistics,
// in-memory spans written out as a Chrome trace, counter-registry deltas,
// and the per-run result (metrics, correctness checks, op counts) that
// main.cpp turns into the report document and the one-line summary.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "px/counters/counters.hpp"

namespace pxbench {

using clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile: the smallest sample with at least p*n samples at
// or below it (p in (0, 1]). Samples may be +inf (a failed or shed request
// counts as over any limit). 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}
[[nodiscard]] double mean(std::vector<double> const& samples);
// Workloads that run in segments append every segment's samples to one
// vector, so percentiles pool them: a slow segment weighs in by its sample
// count, not as one vote.

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  // how many measurements the value summarizes
};

struct check {
  std::string name;
  bool passed = false;
  std::string detail;
};

// One span: [start, end) on the steady clock, its cause (parent span id,
// 0 = root) and the request it belongs to.
struct span {
  char const* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t request = 0;
  std::uint32_t lane = 0;  // Chrome-trace tid: 0 = the main thread
};

// Spans recorded from the benchmark's own code around calls into the px
// layers. Single-threaded by construction: job bodies running on px workers
// stamp times into their own slots and the main thread turns those into
// spans after the run. Disabled logs record nothing.
class span_log {
 public:
  explicit span_log(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  std::uint32_t add(char const* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t parent = 0,
                    std::uint64_t request = 0, std::uint32_t lane = 0);
  // A span whose children are recorded before it ends: open() starts it
  // now, close() ends it now.
  std::uint32_t open(char const* name, std::uint32_t parent = 0,
                     std::uint64_t request = 0);
  void close(std::uint32_t id);
  [[nodiscard]] std::vector<span> const& spans() const noexcept {
    return spans_;
  }

  // Per span name: count, summed duration, p50/p99 duration and self time
  // (duration minus the part of it covered by the span's children).
  struct layer_row {
    std::string name;
    std::uint64_t count = 0;
    double sum_ms = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double self_ms = 0.0;
  };
  [[nodiscard]] std::vector<layer_row> layer_table() const;

  // Chrome trace-event JSON ("ph":"X" complete events, microseconds).
  [[nodiscard]] bool write_chrome_trace(std::string const& path) const;

 private:
  bool enabled_;
  std::vector<span> spans_;
};

// Times a scope into a span_log (no-op when the log is disabled).
class scoped_span {
 public:
  scoped_span(span_log& log, char const* name, std::uint32_t parent = 0,
              std::uint64_t request = 0)
      : log_(log),
        name_(name),
        parent_(parent),
        request_(request),
        start_(log.enabled() ? now_ns() : 0) {}
  ~scoped_span() {
    if (log_.enabled()) log_.add(name_, start_, now_ns(), parent_, request_);
  }
  scoped_span(scoped_span const&) = delete;
  scoped_span& operator=(scoped_span const&) = delete;

 private:
  span_log& log_;
  char const* name_;
  std::uint32_t parent_;
  std::uint64_t request_;
  std::int64_t start_;
};

// Monotone-counter deltas accumulated over one or more windows, by path.
using counter_totals = std::map<std::string, std::uint64_t>;

// Delta of the process counter registry over an interval. Paths of
// runtimes destroyed inside the interval vanish from the end snapshot, so
// callers open and close a window while the measured domain is alive.
class counter_window {
 public:
  counter_window()
      : begin_(px::counters::registry::instance().take_snapshot()) {}
  // Adds the monotone deltas since construction into `into`.
  void close_into(counter_totals& into) const;

 private:
  px::counters::snapshot begin_;
};

// Sum of every total whose path starts with `prefix` and ends with
// `suffix` (e.g. all workers' busy_ns across every scheduler).
[[nodiscard]] double sum_paths(counter_totals const& totals,
                               std::string const& prefix,
                               std::string const& suffix = "");

// Everything a workload produces; main.cpp reports it.
struct result {
  std::vector<metric> e2e;    // end-to-end, measured with tracing off
  std::vector<metric> layer;  // per-layer (traced runs)
  std::vector<check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> params;

  void add_e2e(std::string name, double v, std::string unit,
               std::uint64_t samples) {
    e2e.push_back({std::move(name), v, std::move(unit), samples});
  }
  void add_layer(std::string name, double v, std::string unit,
                 std::uint64_t samples) {
    layer.push_back({std::move(name), v, std::move(unit), samples});
  }
  void add_check(std::string name, bool passed, std::string detail = "") {
    checks.push_back({std::move(name), passed, std::move(detail)});
  }
  [[nodiscard]] bool all_checks_passed() const;
};

// Closed loop: calls op(i) for i = 0, 1, ... until the next call, judged
// by the previous one's duration, would end past `budget_ns`; always calls
// at least once. Returns the elapsed nanoseconds.
template <typename Op>
std::int64_t run_for(std::int64_t budget_ns, Op&& op) {
  std::int64_t const t0 = now_ns();
  std::int64_t last = 0;
  for (std::uint64_t i = 0;; ++i) {
    std::int64_t const a = now_ns();
    if (i != 0 && a - t0 + last > budget_ns) return a - t0;
    if (!op(i)) return now_ns() - t0;
    last = now_ns() - a;
  }
}

// Ratio that reads 0 (not NaN) when nothing happened.
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace pxbench
