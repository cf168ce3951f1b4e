#include "px/counters/counters.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>

#include "px/runtime/trace.hpp"
#include "px/support/assert.hpp"

namespace px::counters {

char const* kind_name(kind k) noexcept {
  return k == kind::monotone ? "monotone" : "gauge";
}

// ---- snapshot -----------------------------------------------------------

sample const* snapshot::find(std::string const& path) const noexcept {
  // Samples are sorted by path (take_snapshot) — but a parsed or
  // hand-built snapshot may not be, so fall back to a linear scan.
  auto it = std::find_if(samples.begin(), samples.end(),
                         [&](sample const& s) { return s.path == path; });
  return it == samples.end() ? nullptr : &*it;
}

std::string snapshot::to_json() const {
  std::string out;
  out.reserve(samples.size() * 72 + 48);
  out += "{\"timestamp_ns\":";
  out += std::to_string(timestamp_ns);
  out += ",\"counters\":[";
  bool first = true;
  for (auto const& s : samples) {
    if (!first) out += ',';
    first = false;
    out += "{\"path\":\"";
    out += s.path;  // registration forbids '"' and control chars
    out += "\",\"kind\":\"";
    out += kind_name(s.k);
    out += "\",\"value\":";
    out += std::to_string(s.value);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string snapshot::to_csv() const {
  std::string out = "path,kind,value\n";
  out.reserve(out.size() + samples.size() * 48);
  for (auto const& s : samples) {
    out += s.path;
    out += ',';
    out += kind_name(s.k);
    out += ',';
    out += std::to_string(s.value);
    out += '\n';
  }
  return out;
}

namespace {

[[noreturn]] void parse_fail(char const* what) {
  throw std::runtime_error(std::string("px::counters parse error: ") + what);
}

// Advances past `token` (which must occur at or after `pos`) and returns
// the position one past it.
std::size_t expect(std::string const& text, std::size_t pos,
                   char const* token) {
  std::size_t const at = text.find(token, pos);
  if (at == std::string::npos) parse_fail(token);
  return at + std::string::traits_type::length(token);
}

std::uint64_t parse_uint(std::string const& text, std::size_t& pos) {
  if (pos >= text.size() || text[pos] < '0' || text[pos] > '9')
    parse_fail("expected integer");
  std::uint64_t v = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(text[pos] - '0');
    ++pos;
  }
  return v;
}

kind parse_kind(std::string const& word) {
  if (word == "monotone") return kind::monotone;
  if (word == "gauge") return kind::gauge;
  parse_fail("unknown counter kind");
}

}  // namespace

snapshot parse_json(std::string const& text) {
  snapshot snap;
  std::size_t pos = expect(text, 0, "{\"timestamp_ns\":");
  snap.timestamp_ns = parse_uint(text, pos);
  pos = expect(text, pos, "\"counters\":[");
  // Empty array: the next structural char is the closing bracket.
  while (true) {
    std::size_t const obj = text.find('{', pos);
    std::size_t const close = text.find(']', pos);
    if (close == std::string::npos) parse_fail("unterminated counters array");
    if (obj == std::string::npos || close < obj) break;
    sample s;
    pos = expect(text, obj, "\"path\":\"");
    std::size_t const path_end = text.find('"', pos);
    if (path_end == std::string::npos) parse_fail("unterminated path");
    s.path = text.substr(pos, path_end - pos);
    pos = expect(text, path_end, "\"kind\":\"");
    std::size_t const kind_end = text.find('"', pos);
    if (kind_end == std::string::npos) parse_fail("unterminated kind");
    s.k = parse_kind(text.substr(pos, kind_end - pos));
    pos = expect(text, kind_end, "\"value\":");
    s.value = parse_uint(text, pos);
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

snapshot parse_csv(std::string const& text) {
  snapshot snap;  // CSV carries no timestamp; stays 0
  std::size_t pos = 0;
  bool header = true;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string const line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (header) {
      if (line != "path,kind,value") parse_fail("bad csv header");
      header = false;
      continue;
    }
    std::size_t const c1 = line.find(',');
    std::size_t const c2 =
        c1 == std::string::npos ? std::string::npos : line.find(',', c1 + 1);
    if (c2 == std::string::npos) parse_fail("bad csv row");
    sample s;
    s.path = line.substr(0, c1);
    s.k = parse_kind(line.substr(c1 + 1, c2 - c1 - 1));
    std::size_t vpos = 0;
    std::string const value = line.substr(c2 + 1);
    s.value = parse_uint(value, vpos);
    if (vpos != value.size()) parse_fail("trailing csv garbage");
    snap.samples.push_back(std::move(s));
  }
  if (header) parse_fail("missing csv header");
  return snap;
}

snapshot delta(snapshot const& begin, snapshot const& end) {
  snapshot out;
  out.timestamp_ns = end.timestamp_ns;
  out.samples.reserve(end.samples.size());
  for (auto const& s : end.samples) {
    sample d = s;
    if (s.k == kind::monotone) {
      if (sample const* b = begin.find(s.path))
        d.value = s.value >= b->value ? s.value - b->value : 0;
    }
    out.samples.push_back(std::move(d));
  }
  return out;
}

// ---- registry -----------------------------------------------------------

struct registry::entry {
  std::uint64_t id = 0;
  std::string path;
  kind k = kind::monotone;
  counter const* cell = nullptr;            // either this ...
  std::function<std::uint64_t()> read;      // ... or this
};

struct registry::impl {
  mutable std::mutex mutex;
  std::vector<entry> entries;  // registration order; last same-path wins
  std::uint64_t next_id = 1;
  std::map<std::string, std::uint64_t> instance_counts;
};

namespace {

void validate_path(std::string const& path) {
  PX_ASSERT_MSG(!path.empty() && path.front() == '/',
                "counter paths are absolute: /px/...");
  for (char const c : path)
    PX_ASSERT_MSG(c >= 0x20 && c != '"' && c != ',' && c != '\\',
                  "counter paths must not contain '\"', ',', '\\' or "
                  "control characters");
}

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

registry::registry() : self_(new impl) {
  // Builtin process-wide counters: present (at zero) from the first
  // snapshot, so consumers can rely on the namespace existing even before
  // the producing subsystem runs.
  auto reg_cell = [this](char const* path, kind k, counter const& cell) {
    entry e;
    e.id = self_->next_id++;
    e.path = path;
    e.k = k;
    e.cell = &cell;
    self_->entries.push_back(std::move(e));
  };
  reg_cell("/px/parcel/messages_sent", kind::monotone,
           builtin_.parcel_messages_sent);
  reg_cell("/px/parcel/bytes_sent", kind::monotone,
           builtin_.parcel_bytes_sent);
  reg_cell("/px/parcel/parcels_delivered", kind::monotone,
           builtin_.parcels_delivered);
  reg_cell("/px/parcel/orphan_responses", kind::monotone,
           builtin_.parcel_orphan_responses);
  reg_cell("/px/net/messages", kind::monotone, builtin_.net_messages);
  reg_cell("/px/net/bytes", kind::monotone, builtin_.net_bytes);
  reg_cell("/px/net/modeled_ns", kind::monotone, builtin_.net_modeled_ns);
  reg_cell("/px/net/drops", kind::monotone, builtin_.net_drops);
  reg_cell("/px/net/retransmits", kind::monotone, builtin_.net_retransmits);
  reg_cell("/px/net/dup_suppressed", kind::monotone,
           builtin_.net_dup_suppressed);
  reg_cell("/px/net/acks", kind::monotone, builtin_.net_acks);
  reg_cell("/px/net/backoff_us", kind::monotone, builtin_.net_backoff_us);
  reg_cell("/px/net/dead_letters", kind::monotone,
           builtin_.net_dead_letters);
  reg_cell("/px/net/delivery_failures", kind::monotone,
           builtin_.net_delivery_failures);
  reg_cell("/px/net/frames_on_wire", kind::monotone,
           builtin_.net_frames_on_wire);
  reg_cell("/px/net/coalesced_parcels", kind::monotone,
           builtin_.net_coalesced_parcels);
  reg_cell("/px/net/flushes_size", kind::monotone, builtin_.net_flushes_size);
  reg_cell("/px/net/flushes_deadline", kind::monotone,
           builtin_.net_flushes_deadline);
  reg_cell("/px/net/flushes_explicit", kind::monotone,
           builtin_.net_flushes_explicit);
  reg_cell("/px/net/compress_in_bytes", kind::monotone,
           builtin_.net_compress_in_bytes);
  reg_cell("/px/net/compressed_bytes", kind::monotone,
           builtin_.net_compressed_bytes);

  // Derived compression ratio, fixed-point x1000 (3000 = 3.0x). Reads the
  // two byte cells at snapshot time; 0 until anything has compressed.
  entry compress_ratio;
  compress_ratio.id = self_->next_id++;
  compress_ratio.path = "/px/net/compress_ratio_x1000";
  compress_ratio.k = kind::gauge;
  compress_ratio.read = [this] {
    std::uint64_t const out_bytes = builtin_.net_compressed_bytes.load();
    if (out_bytes == 0) return std::uint64_t{0};
    return builtin_.net_compress_in_bytes.load() * 1000 / out_bytes;
  };
  self_->entries.push_back(std::move(compress_ratio));
  reg_cell("/px/timer/wakes_scheduled", kind::monotone,
           builtin_.timer_wakes);
  reg_cell("/px/timer/callbacks_cancelled", kind::monotone,
           builtin_.timer_cancelled);
  reg_cell("/px/torture/decisions", kind::monotone,
           builtin_.torture_decisions);
  reg_cell("/px/torture/seeds_run", kind::monotone,
           builtin_.torture_seeds_run);
  reg_cell("/px/resilience/heartbeats", kind::monotone,
           builtin_.resilience_heartbeats);
  reg_cell("/px/resilience/suspects", kind::monotone,
           builtin_.resilience_suspects);
  reg_cell("/px/resilience/confirms", kind::monotone,
           builtin_.resilience_confirms);
  reg_cell("/px/resilience/replays", kind::monotone,
           builtin_.resilience_replays);
  reg_cell("/px/resilience/replicas", kind::monotone,
           builtin_.resilience_replicas);
  reg_cell("/px/resilience/checkpoint_bytes", kind::monotone,
           builtin_.resilience_checkpoint_bytes);
  reg_cell("/px/resilience/restores", kind::monotone,
           builtin_.resilience_restores);
  reg_cell("/px/resilience/stale_epoch_drops", kind::monotone,
           builtin_.resilience_stale_epoch_drops);
  reg_cell("/px/agas/migrations", kind::monotone, builtin_.agas_migrations);
  reg_cell("/px/agas/migration_aborts", kind::monotone,
           builtin_.agas_migration_aborts);
  reg_cell("/px/agas/forwards", kind::monotone, builtin_.agas_forwards);
  reg_cell("/px/agas/parked", kind::monotone, builtin_.agas_parked);
  reg_cell("/px/agas/cache_hits", kind::monotone, builtin_.agas_cache_hits);
  reg_cell("/px/agas/cache_misses", kind::monotone,
           builtin_.agas_cache_misses);
  reg_cell("/px/agas/resolve_misses", kind::monotone,
           builtin_.agas_resolve_misses);
  reg_cell("/px/agas/tombstones", kind::monotone, builtin_.agas_tombstones);
  reg_cell("/px/membership/views", kind::monotone,
           builtin_.membership_views);
  reg_cell("/px/membership/fenced_refusals", kind::monotone,
           builtin_.membership_fenced_refusals);
  reg_cell("/px/membership/indirect_probes", kind::monotone,
           builtin_.membership_indirect_probes);
  reg_cell("/px/membership/false_suspect_averted", kind::monotone,
           builtin_.membership_false_suspect_averted);
  reg_cell("/px/membership/rejoins", kind::monotone,
           builtin_.membership_rejoins);

  entry trace_events;
  trace_events.id = self_->next_id++;
  trace_events.path = "/px/trace/events";
  trace_events.k = kind::gauge;  // resets on trace::enable()
  trace_events.read = [] {
    return static_cast<std::uint64_t>(trace::event_count());
  };
  self_->entries.push_back(std::move(trace_events));

  // Slices the tracer could not record (ring overflow + enable/disable
  // flips racing in-flight slices). Process-lifetime monotone: a nonzero
  // delta over a region means its trace is incomplete.
  entry trace_dropped;
  trace_dropped.id = self_->next_id++;
  trace_dropped.path = "/px/trace/dropped";
  trace_dropped.k = kind::monotone;
  trace_dropped.read = [] { return trace::dropped_count(); };
  self_->entries.push_back(std::move(trace_dropped));
}

registry& registry::instance() {
  // Leaked singleton (never destroyed): producers with static storage
  // duration — shared benchmark runtimes, late atexit tasks — may still
  // unregister or bump builtins during process teardown.
  static registry* const r = new registry();
  return *r;
}

std::uint64_t registry::add(std::string path, kind k, counter const& cell) {
  validate_path(path);
  std::lock_guard<std::mutex> lock(self_->mutex);
  entry e;
  e.id = self_->next_id++;
  e.path = std::move(path);
  e.k = k;
  e.cell = &cell;
  self_->entries.push_back(std::move(e));
  return self_->entries.back().id;
}

std::uint64_t registry::add(std::string path, kind k,
                            std::function<std::uint64_t()> read) {
  validate_path(path);
  PX_ASSERT(read != nullptr);
  std::lock_guard<std::mutex> lock(self_->mutex);
  entry e;
  e.id = self_->next_id++;
  e.path = std::move(path);
  e.k = k;
  e.read = std::move(read);
  self_->entries.push_back(std::move(e));
  return self_->entries.back().id;
}

void registry::remove(std::uint64_t id) noexcept {
  std::lock_guard<std::mutex> lock(self_->mutex);
  auto it = std::find_if(self_->entries.begin(), self_->entries.end(),
                         [id](entry const& e) { return e.id == id; });
  if (it != self_->entries.end()) self_->entries.erase(it);
}

std::string registry::unique_instance(std::string const& base) {
  std::lock_guard<std::mutex> lock(self_->mutex);
  std::uint64_t const n = ++self_->instance_counts[base];
  return n == 1 ? base : base + "-" + std::to_string(n);
}

snapshot registry::take_snapshot() const {
  snapshot snap;
  snap.timestamp_ns = steady_now_ns();
  std::lock_guard<std::mutex> lock(self_->mutex);
  // Later registrations shadow earlier ones with the same path; the map
  // both deduplicates and sorts.
  std::map<std::string, sample> by_path;
  for (auto const& e : self_->entries) {
    sample s;
    s.path = e.path;
    s.k = e.k;
    s.value = e.cell != nullptr ? e.cell->load() : e.read();
    by_path[s.path] = std::move(s);
  }
  snap.samples.reserve(by_path.size());
  for (auto& [path, s] : by_path) snap.samples.push_back(std::move(s));
  return snap;
}

bool registry::value_of(std::string const& path, std::uint64_t& out) const {
  std::lock_guard<std::mutex> lock(self_->mutex);
  // Reverse scan: last registration wins, matching take_snapshot.
  for (auto it = self_->entries.rbegin(); it != self_->entries.rend(); ++it) {
    if (it->path == path) {
      out = it->cell != nullptr ? it->cell->load() : it->read();
      return true;
    }
  }
  return false;
}

std::size_t registry::size() const {
  std::lock_guard<std::mutex> lock(self_->mutex);
  return self_->entries.size();
}

builtin_counters& builtin() { return registry::instance().builtin(); }

// ---- registration -------------------------------------------------------

void registration::add(std::string path, kind k, counter const& cell) {
  ids_.push_back(registry::instance().add(std::move(path), k, cell));
}

void registration::add(std::string path, kind k,
                       std::function<std::uint64_t()> read) {
  ids_.push_back(
      registry::instance().add(std::move(path), k, std::move(read)));
}

void registration::release() noexcept {
  for (std::uint64_t const id : ids_) registry::instance().remove(id);
  ids_.clear();
}

bool write_json_file(std::string const& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << registry::instance().take_snapshot().to_json();
  return static_cast<bool>(f);
}

}  // namespace px::counters
