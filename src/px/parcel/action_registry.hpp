// px/parcel/action_registry.hpp
// Process-wide table mapping action ids to handlers. Ids are assigned at
// registration (static-init time via PX_REGISTER_ACTION) and are identical
// in every locality of the process — the moral equivalent of HPX's action
// registration, minus cross-binary portability which an in-process virtual
// cluster does not need.
#pragma once

#include <cstdint>
#include <string>

#include "px/parcel/parcel.hpp"

namespace px::dist {
class locality;
}  // namespace px::dist

namespace px::parcel {

// Handlers run as a fresh px task on the destination locality's scheduler,
// or, for a direct action, inline on the thread that delivers the parcel.
using action_handler = void (*)(dist::locality& here, parcel&& p);

// What deliver() needs to dispatch a parcel, read in one lookup.
struct action_entry {
  action_handler handler = nullptr;
  // Registered with PX_REGISTER_DIRECT_ACTION: the handler runs inline on
  // the delivering thread instead of as a task, and must not wait.
  bool direct = false;
};

class action_registry {
 public:
  static action_registry& instance();

  // Returns the new action's id (>= 1; 0 is the reserved response action).
  // Registering a name again returns its id; with a different `direct`
  // flag it throws std::logic_error.
  std::uint32_t add(std::string action_name, action_handler fn,
                    bool direct = false);

  // Throws std::out_of_range for an unknown id.
  [[nodiscard]] action_entry entry(std::uint32_t id) const;
  [[nodiscard]] std::string const& name(std::uint32_t id) const;
  [[nodiscard]] std::uint32_t id_of(std::string const& action_name) const;
  [[nodiscard]] std::size_t size() const;

 private:
  action_registry() = default;
  struct impl;
  impl& self() const;
};

// Compile-time slot carrying the registered id for a function.
template <auto Fn>
struct action_traits {
  inline static std::uint32_t id = 0;
};

}  // namespace px::parcel
