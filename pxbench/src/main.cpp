// pxbench — the repository's end-to-end benchmark.
//
//   pxbench --workload NAME --seed N --seconds S --trace 0|1
//           [--smoke] [--report FILE] [--trace-out FILE] [--git-sha SHA]
//
// Runs one named workload (heat1d_dist, heat1d_dist_lossy, jacobi2d,
// serve_mixed) for about S seconds of timed load, checks every answer and
// prints a metric table on stderr. The last line on stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"} with every
// end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
// --report writes the full run document (host fingerprint, parameters,
// each metric with its sample count, every check); --trace-out writes the
// traced run's spans as a Chrome trace. Exits 1 when a check fails, 2 on
// bad arguments.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string_view>
#include <thread>

#include "workloads.hpp"

extern char** environ;

#ifndef PXBENCH_BUILD_TYPE
#define PXBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PXBENCH_CXX_FLAGS
#define PXBENCH_CXX_FLAGS "unknown"
#endif

namespace pxbench {

namespace {

struct workload_desc {
  char const* name;
  void (*run)(options const&, result&, span_log&);
};

constexpr workload_desc kWorkloads[] = {
    {"heat1d_dist", &run_heat1d_dist},
    {"heat1d_dist_lossy", &run_heat1d_dist_lossy},
    {"jacobi2d", &run_jacobi2d},
    {"serve_mixed", &run_serve_mixed},
};

// A metric the benchmark reports, with its unit.
struct metric_desc {
  char const* name;
  char const* unit;
};

// Every end-to-end metric each workload reports (untraced runs).
constexpr metric_desc kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_ms_p90", "ms"},
    {"glups", "GLUP/s"},
};

// Every per-layer metric (traced runs). A layer the workload does not
// exercise reads 0 with 0 samples.
constexpr metric_desc kPerLayer[] = {
    {"e2e.latency_ms_p50", "ms"},
    {"e2e.latency_ms_p99", "ms"},
    {"runtime.busy_frac", "ratio"},
    {"runtime.tasks_per_op", "count"},
    {"runtime.parks_per_op", "count"},
    {"runtime.steal_success_ratio", "ratio"},
    {"runtime.task_pool_hit_ratio", "ratio"},
    {"runtime.spawn_join_ns", "ns"},
    {"fibers.yield_ns", "ns"},
    {"lcos.promise_wake_ns", "ns"},
    {"parallel.for_loop_16384_ns", "ns"},
    {"parallel.for_loop_128_ns", "ns"},
    {"stencil.sweep_glups", "GLUP/s"},
    {"stencil.roofline_frac", "ratio"},
    {"stencil.field_alloc_ms", "ms"},
    {"stencil.scalar_copy_ms", "ms"},
    {"stencil.snapshot_ms", "ms"},
    {"stencil.heat_kernel_ns_per_lup", "ns"},
    {"stencil.kernel_frac", "ratio"},
    {"stencil.auto_call_glups", "GLUP/s"},
    {"simd.pack_call_glups", "GLUP/s"},
    {"simd.pack_sweep_glups", "GLUP/s"},
    {"simd.vns_encode_ms", "ms"},
    {"simd.vns_decode_ms", "ms"},
    {"arch.stream_copy_gbs", "GB/s"},
    {"serial.halo_roundtrip_ns", "ns"},
    {"parcel.messages_per_step", "count"},
    {"parcel.bytes_per_message", "B"},
    {"net.frames_per_step", "count"},
    {"net.parcels_per_frame", "ratio"},
    {"net.delivery_ratio", "ratio"},
    {"net.retransmits_per_solve", "count"},
    {"net.dup_suppressed_per_solve", "count"},
    {"net.backoff_ms_per_solve", "ms"},
    {"net.compress_ratio", "ratio"},
    {"net.modeled_us_per_step", "us"},
    {"net.coalesce_encode_ns", "ns"},
    {"net.coalesce_decode_ns", "ns"},
    {"net.lz_ns_per_kb", "ns"},
    {"dist.call_rtt_us_p50", "us"},
    {"dist.call_rtt_us_p99", "us"},
    {"dist.quiesce_us", "us"},
    {"serve.capacity_jobs_s", "jobs/s"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.service_ms_p50.dataflow", "ms"},
    {"serve.service_ms_p50.jacobi2d", "ms"},
    {"serve.gen_late_us_p99", "us"},
    {"serve.shed_frac", "ratio"},
    {"serve.backlog_end", "count"},
    {"sched.lane_share.interactive", "ratio"},
    {"bench.unexplained_pct", "%"},
    {"trace.overhead_pct", "%"},
};

struct cli {
  options opt;
  std::string report_path;
  std::string trace_path;
  std::string git_sha = "unknown";
};

void usage() {
  std::fprintf(stderr,
               "usage: pxbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--report FILE] [--trace-out FILE] "
               "[--git-sha SHA]\nworkloads:");
  for (auto const& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

bool parse_u64(char const* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long const v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

bool parse(int argc, char** argv, cli& c) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view const a = argv[i];
    if (a == "--smoke") {
      c.opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    char const* v = argv[++i];
    std::uint64_t n = 0;
    if (a == "--workload") {
      c.opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      if (!parse_u64(v, c.opt.seed)) return false;
      have_seed = true;
    } else if (a == "--seconds") {
      if (!parse_u64(v, n) || n == 0 || n > 600) return false;
      c.opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (a == "--trace") {
      if (!parse_u64(v, n) || n > 1) return false;
      c.opt.trace = n == 1;
      have_trace = true;
    } else if (a == "--report") {
      c.report_path = v;
    } else if (a == "--trace-out") {
      c.trace_path = v;
    } else if (a == "--git-sha") {
      c.git_sha = v;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

// Inherited PX_* variables (PX_WORKERS, PX_SCHED_POLICY, PX_NET_COALESCE,
// PX_SIMD_ABI, ...) would silently reconfigure a workload; every workload
// sets its configuration explicitly, so none may leak in.
void clear_px_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    std::string_view const kv = *e;
    if (kv.starts_with("PX_"))
      names.emplace_back(kv.substr(0, kv.find('=')));
  }
  for (auto const& n : names) unsetenv(n.c_str());
}

std::string read_first_line_with(char const* path, char const* key) {
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(key, 0) == 0) {
      auto const colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(" \t"));
        return v;
      }
    }
  }
  return "unknown";
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_object(std::vector<metric> const& ms, bool samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) out += ',';
    out += json_string(ms[i].name);
    out += ":{\"value\":" + json_number(ms[i].value);
    out += ",\"unit\":" + json_string(ms[i].unit);
    if (samples) out += ",\"samples\":" + std::to_string(ms[i].samples);
    out += "}";
  }
  return out + "}";
}

// Puts `got` into table order, filling a metric the workload did not
// measure with 0 (0 samples). Returns false on a name or unit the table
// does not know — a benchmark bug, not a measurement.
bool complete(std::vector<metric>& got,
              std::span<metric_desc const> table) {
  std::vector<metric> ordered;
  for (auto const& d : table) {
    metric m{d.name, 0.0, d.unit, 0};
    for (auto const& g : got)
      if (g.name == d.name) m = g;
    if (m.unit != d.unit) {
      std::fprintf(stderr, "pxbench: %s reported in %s, expected %s\n",
                   d.name, m.unit.c_str(), d.unit);
      return false;
    }
    ordered.push_back(m);
  }
  for (auto const& g : got) {
    bool known = false;
    for (auto const& d : table) known = known || g.name == d.name;
    if (!known) {
      std::fprintf(stderr, "pxbench: unknown metric %s\n", g.name.c_str());
      return false;
    }
  }
  got = std::move(ordered);
  return true;
}

void print_table(char const* title, std::vector<metric> const& ms) {
  std::fprintf(stderr, "%s\n", title);
  for (auto const& m : ms)
    std::fprintf(stderr, "  %-34s %-8s %14.6g  (n=%llu)\n", m.name.c_str(),
                 m.unit.c_str(), m.value,
                 static_cast<unsigned long long>(m.samples));
}

std::string report_document(cli const& c, result const& r, bool correct,
                            span_log const& spans) {
  std::ostringstream o;
  o << "{\"schema\":\"pxbench/1\",\"workload\":" << json_string(c.opt.workload)
    << ",\"seed\":" << c.opt.seed << ",\"seconds\":" << c.opt.seconds
    << ",\"trace\":" << (c.opt.trace ? "true" : "false")
    << ",\"smoke\":" << (c.opt.smoke ? "true" : "false");
  o << ",\"host\":{\"cpu_model\":"
    << json_string(read_first_line_with("/proc/cpuinfo", "model name"))
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"llc_bytes\":" << llc_bytes()
    << ",\"compiler\":" << json_string(__VERSION__)
    << ",\"cxx_flags\":" << json_string(PXBENCH_CXX_FLAGS)
    << ",\"build_type\":" << json_string(PXBENCH_BUILD_TYPE)
    << ",\"git_sha\":" << json_string(c.git_sha) << "}";
  o << ",\"params\":{";
  for (std::size_t i = 0; i < r.params.size(); ++i)
    o << (i ? "," : "") << json_string(r.params[i].first) << ":"
      << json_string(r.params[i].second);
  o << "},\"ops_attempted\":" << r.attempted << ",\"ops_failed\":" << r.failed
    << ",\"correct\":" << (correct ? "true" : "false") << ",\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i)
    o << (i ? "," : "") << "{\"name\":" << json_string(r.checks[i].name)
      << ",\"passed\":" << (r.checks[i].passed ? "true" : "false")
      << ",\"detail\":" << json_string(r.checks[i].detail) << "}";
  o << "],\"end_to_end\":" << metrics_object(r.e2e, true);
  if (c.opt.trace) {
    o << ",\"per_layer\":" << metrics_object(r.layer, true) << ",\"spans\":[";
    auto const rows = spans.layer_table();
    for (std::size_t i = 0; i < rows.size(); ++i)
      o << (i ? "," : "") << "{\"name\":" << json_string(rows[i].name)
        << ",\"count\":" << rows[i].count
        << ",\"sum_ms\":" << json_number(rows[i].sum_ms)
        << ",\"p50_us\":" << json_number(rows[i].p50_us)
        << ",\"p99_us\":" << json_number(rows[i].p99_us)
        << ",\"self_ms\":" << json_number(rows[i].self_ms) << "}";
    o << "],\"chrome_trace\":" << json_string(c.trace_path);
  }
  o << "}\n";
  return o.str();
}

}  // namespace
}  // namespace pxbench

int main(int argc, char** argv) {
  using namespace pxbench;
  clear_px_environment();
  cli c;
  if (!parse(argc, argv, c)) {
    usage();
    return 2;
  }
  workload_desc const* w = nullptr;
  for (auto const& d : kWorkloads)
    if (c.opt.workload == d.name) w = &d;
  if (w == nullptr) {
    usage();
    return 2;
  }

  result r;
  span_log spans(c.opt.trace);
  w->run(c.opt, r, spans);

  if (!complete(r.e2e, kEndToEnd) ||
      (c.opt.trace && !complete(r.layer, kPerLayer)))
    return 1;
  auto const& reported = c.opt.trace ? r.layer : r.e2e;
  bool finite = true;
  for (auto const& m : reported) finite = finite && std::isfinite(m.value);
  bool const correct = r.all_checks_passed() && finite && r.attempted > 0;

  std::fprintf(stderr, "pxbench %s seed %llu: %llu ops, %llu failed\n",
               w->name, static_cast<unsigned long long>(c.opt.seed),
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  for (auto const& ch : r.checks)
    std::fprintf(stderr, "  check %-34s %s  %s\n", ch.name.c_str(),
                 ch.passed ? "PASS" : "FAIL", ch.detail.c_str());
  print_table("end-to-end:", r.e2e);
  if (c.opt.trace) {
    print_table("per-layer:", r.layer);
    std::fprintf(stderr, "spans:\n  %-26s %8s %12s %12s %12s %12s\n",
                 "name", "count", "sum_ms", "p50_us", "p99_us", "self_ms");
    for (auto const& row : spans.layer_table())
      std::fprintf(stderr, "  %-26s %8llu %12.3f %12.3f %12.3f %12.3f\n",
                   row.name.c_str(),
                   static_cast<unsigned long long>(row.count), row.sum_ms,
                   row.p50_us, row.p99_us, row.self_ms);
  }

  if (!c.report_path.empty()) {
    std::ofstream out(c.report_path);
    out << report_document(c, r, correct, spans);
    if (!out) {
      std::fprintf(stderr, "pxbench: cannot write %s\n",
                   c.report_path.c_str());
      return 1;
    }
  }
  if (c.opt.trace && !c.trace_path.empty() &&
      !spans.write_chrome_trace(c.trace_path)) {
    std::fprintf(stderr, "pxbench: cannot write %s\n", c.trace_path.c_str());
    return 1;
  }
  if (!finite) {
    std::fprintf(stderr, "pxbench: a reported metric is not finite\n");
    return 1;
  }

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_object(reported, false).c_str());
  return correct ? 0 : 1;
}
