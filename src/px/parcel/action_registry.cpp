#include "px/parcel/action_registry.hpp"

#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace px::parcel {

struct action_registry::impl {
  mutable std::mutex mutex;
  std::vector<std::pair<std::string, action_entry>> actions{
      {"<response>", {}}};  // slot 0 reserved
  std::unordered_map<std::string, std::uint32_t> by_name;
};

action_registry& action_registry::instance() {
  static action_registry registry;
  return registry;
}

action_registry::impl& action_registry::self() const {
  static impl state;
  return state;
}

std::uint32_t action_registry::add(std::string action_name,
                                   action_handler fn, bool direct) {
  impl& s = self();
  std::lock_guard<std::mutex> lock(s.mutex);
  auto it = s.by_name.find(action_name);
  if (it != s.by_name.end()) {
    if (s.actions[it->second].second.direct != direct)
      throw std::logic_error("px::parcel: action '" + action_name +
                             "' registered again with a different direct "
                             "flag");
    return it->second;  // idempotent
  }
  auto const id = static_cast<std::uint32_t>(s.actions.size());
  s.actions.emplace_back(action_name, action_entry{fn, direct});
  s.by_name.emplace(std::move(action_name), id);
  return id;
}

action_entry action_registry::entry(std::uint32_t id) const {
  impl& s = self();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (id >= s.actions.size())
    throw std::out_of_range("px::parcel: unknown action id");
  return s.actions[id].second;
}

std::string const& action_registry::name(std::uint32_t id) const {
  impl& s = self();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (id >= s.actions.size())
    throw std::out_of_range("px::parcel: unknown action id");
  return s.actions[id].first;
}

std::uint32_t action_registry::id_of(std::string const& action_name) const {
  impl& s = self();
  std::lock_guard<std::mutex> lock(s.mutex);
  auto it = s.by_name.find(action_name);
  return it != s.by_name.end() ? it->second : 0;
}

std::size_t action_registry::size() const {
  impl& s = self();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.actions.size();
}

}  // namespace px::parcel
