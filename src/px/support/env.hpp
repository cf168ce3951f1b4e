// px/support/env.hpp
// Environment-variable parsing, the same knob style HPX exposes via
// --hpx:threads etc. All px knobs use the PX_ prefix. Library code reads
// the environment only where a caller asks for it
// (scheduler_config::from_env) and for the torture seed budget
// (PX_TORTURE_SEEDS); every other component takes its config struct alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

namespace px {

// Raw lookup; nullopt when unset or empty.
std::optional<std::string> env_string(char const* name);

// Parses an unsigned integer; nullopt when unset, empty or malformed.
std::optional<std::size_t> env_size(char const* name);

// Parses a 64-bit unsigned integer, accepting decimal, 0x-hex and 0-octal
// (seeds are usually quoted in hex); nullopt when unset or malformed.
std::optional<std::uint64_t> env_u64(char const* name);

// Recognises 1/0, true/false, yes/no, on/off (case-insensitive).
std::optional<bool> env_bool(char const* name);

// Exact match against an allowed token set — case-sensitive, no trimming,
// so "ws " or "WS" is malformed (same strict trailing-garbage stance as the
// numeric parsers). nullopt when unset or not in the set.
std::optional<std::string> env_token(
    char const* name, std::initializer_list<std::string_view> allowed);

}  // namespace px
