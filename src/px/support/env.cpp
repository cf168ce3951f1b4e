#include "px/support/env.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>

namespace px {

namespace {

// A malformed knob silently falling back to its default is a debugging
// trap ("I set PX_TORTURE_SEEDS=64k, why did it run 64 seeds?" — it ran
// the default). Warn once per variable name on stderr; once, because the
// same knob is typically consulted on every construction.
void warn_malformed(char const* name, std::string const& value) {
  static std::mutex mutex;
  static std::set<std::string>* warned = nullptr;
  std::lock_guard<std::mutex> guard(mutex);
  if (warned == nullptr) warned = new std::set<std::string>();  // leaked: exit-order safe
  if (!warned->insert(name).second) return;
  std::fprintf(stderr, "px: ignoring malformed %s='%s'\n", name,
               value.c_str());
}

}  // namespace

std::optional<std::string> env_string(char const* name) {
  char const* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

std::optional<std::size_t> env_size(char const* name) {
  auto s = env_string(name);
  if (!s) return std::nullopt;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s->c_str(), &end, 10);
  if (end == s->c_str() || *end != '\0') {
    warn_malformed(name, *s);
    return std::nullopt;
  }
  return static_cast<std::size_t>(v);
}

std::optional<std::uint64_t> env_u64(char const* name) {
  auto s = env_string(name);
  if (!s) return std::nullopt;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s->c_str(), &end, 0);
  if (end == s->c_str() || *end != '\0') {
    warn_malformed(name, *s);
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(v);
}

std::optional<bool> env_bool(char const* name) {
  auto s = env_string(name);
  if (!s) return std::nullopt;
  std::string lower(*s);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "1" || lower == "true" || lower == "yes" || lower == "on")
    return true;
  if (lower == "0" || lower == "false" || lower == "no" || lower == "off")
    return false;
  warn_malformed(name, *s);
  return std::nullopt;
}

std::optional<std::string> env_token(
    char const* name, std::initializer_list<std::string_view> allowed) {
  auto s = env_string(name);
  if (!s) return std::nullopt;
  for (std::string_view tok : allowed)
    if (*s == tok) return s;
  warn_malformed(name, *s);
  return std::nullopt;
}

}  // namespace px
