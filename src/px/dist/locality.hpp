// px/dist/locality.hpp
// A virtual locality: one ParalleX node inside the process, with its own
// scheduler pool, AGAS registry and parcel endpoint. N localities wired
// through a simulated fabric form the virtual cluster the distributed
// benchmarks run on — the same code path an HPX application takes across
// real nodes, with the network replaced by the px::net model.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "px/agas/registry.hpp"
#include "px/agas/residence.hpp"
#include "px/lcos/future.hpp"
#include "px/parcel/action_registry.hpp"
#include "px/parcel/parcel.hpp"
#include "px/runtime/runtime.hpp"
#include "px/serial/archive.hpp"
#include "px/support/spin.hpp"

namespace px::dist {

class distributed_domain;

namespace detail {

// Signature introspection for action functions. Actions may optionally take
// the destination locality as their first parameter.
template <typename F>
struct fn_sig;

template <typename R, typename... A>
struct fn_sig<R (*)(A...)> {
  using ret = R;
  using args_tuple = std::tuple<std::decay_t<A>...>;
  static constexpr bool wants_locality = false;
};

template <typename R, typename... A>
struct fn_sig<R (*)(locality&, A...)> {
  using ret = R;
  using args_tuple = std::tuple<std::decay_t<A>...>;
  static constexpr bool wants_locality = true;
};

}  // namespace detail

// A component-addressed parcel exhausted its forwarding-hop budget without
// reaching a resident copy (see domain_config::agas_max_hops). Surfaced
// through the caller's future, like net::delivery_error.
struct hop_budget_exhausted : std::runtime_error {
  hop_budget_exhausted(agas::gid g, std::uint32_t hops)
      : std::runtime_error("px::agas: forwarding-hop budget exhausted after " +
                           std::to_string(hops) + " hop(s) chasing " +
                           g.to_string()),
        target(g),
        hops_taken(hops) {}
  agas::gid target;
  std::uint32_t hops_taken;
};

class locality {
 public:
  locality(distributed_domain& domain, std::uint32_t id,
           scheduler_config cfg);

  locality(locality const&) = delete;
  locality& operator=(locality const&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] px::runtime& rt() noexcept { return rt_; }
  [[nodiscard]] px::rt::scheduler& sched() noexcept { return rt_.sched(); }
  [[nodiscard]] agas::registry& agas() noexcept { return agas_; }
  [[nodiscard]] agas::residence_cache& residence() noexcept { return cache_; }
  [[nodiscard]] distributed_domain& domain() noexcept { return domain_; }

  // ---- typed remote invocation -----------------------------------------
  // Invokes the registered action Fn on locality `dest`; the returned
  // future is fulfilled by the response parcel. Fn's result must be
  // default-constructible and serializable (or void).
  template <auto Fn, typename... Args>
  auto call(std::uint32_t dest, Args&&... args)
      -> future<typename detail::fn_sig<decltype(Fn)>::ret>;

  // Fire-and-forget invocation (hpx::apply on an action).
  template <auto Fn, typename... Args>
  void apply(std::uint32_t dest, Args&&... args);

  // ---- component-addressed invocation (correct across/during migration) --
  // Like call/apply, but the destination is the component `g` wherever it
  // currently lives: the parcel carries the GID, the best-known residence
  // (local binding > residence cache > the GID's residence bits) picks the
  // first hop, and departure-side tombstones re-route it if the object has
  // moved — bounded by domain_config::agas_max_hops. `g` is prepended to
  // Fn's arguments, matching the `R fn(locality&, gid, ...)` convention the
  // component actions use.
  template <auto Fn, typename... Args>
  auto call_component(agas::gid g, Args&&... args)
      -> future<typename detail::fn_sig<decltype(Fn)>::ret>;

  template <auto Fn, typename... Args>
  void apply_component(agas::gid g, Args&&... args);

  // ---- migration protocol (used by px::dist::migrate) -------------------
  // Seals a pinned departure: registry commit (binding -> tombstone),
  // counters, residence-cache update, and re-delivery of every parcel
  // parked against the `migrating` state (they chase the tombstone).
  void commit_component_migration(agas::gid g, std::uint32_t dest,
                                  std::uint64_t epoch);
  // Rolls a pinned departure back to resident and re-delivers parked
  // parcels locally.
  void abort_component_migration(agas::gid g);

  // Parcels parked against an in-progress migration (test/invariant
  // visibility; racy by nature).
  [[nodiscard]] std::size_t parked_count() const;

  // ---- raw parcel transport ---------------------------------------------
  // Routes through the domain fabric (immediate for dest == this).
  void send(parcel::parcel p);
  // Entry point for arriving parcels: runs a direct action's handler
  // inline on the calling thread, spawns a task here for any other.
  void deliver(parcel::parcel p);

  [[nodiscard]] std::uint64_t parcels_handled() const noexcept {
    return parcels_handled_.load(std::memory_order_relaxed);
  }

  // Transport-failure path: fails the pending response slot `token` with
  // `reason` (e.g. px::net::delivery_error after retry-budget exhaustion).
  // A token that already completed or failed is ignored.
  void fail_response_slot(std::uint64_t token, std::exception_ptr reason);

  // Failure-confirmation sweeps: fail every pending slot whose call targets
  // `dest` (the callee was confirmed dead — no response can ever arrive),
  // or every slot outright (this locality itself was confirmed dead; its
  // in-flight calls must not block survivors).
  void fail_response_slots_to(std::uint32_t dest, std::exception_ptr reason);
  void fail_all_response_slots(std::exception_ptr reason);

 private:
  // Completion receives the response parcel and a null exception_ptr, or a
  // moved-from parcel and the transport failure.
  using response_completion =
      unique_function<void(parcel::parcel&&, std::exception_ptr)>;

  // One outstanding call: which locality owes the response, and what to do
  // with it (or with a transport failure).
  struct pending_slot {
    std::uint32_t dest = 0;
    response_completion fn;
  };

  std::uint64_t register_response_slot(std::uint32_t dest,
                                       response_completion completion);

  // Runs a direct action's handler on the delivering thread. noexcept: an
  // exception escaping a fire-and-forget handler ends the process, as one
  // escaping a handler task does, instead of unwinding into whoever
  // delivered the parcel (a sender's route(), the timer thread).
  void run_direct(parcel::action_handler handler, parcel::parcel&& p) noexcept;

  // Component routing inside deliver(): returns true when the parcel should
  // dispatch to its action handler here, false when it was consumed
  // (parked against a migration, forwarded along a tombstone, or failed on
  // hop-budget exhaustion).
  bool component_route(parcel::parcel& p);
  // First-hop pick for call_component/apply_component.
  [[nodiscard]] std::uint32_t component_destination(agas::gid g);
  // Parks a parcel whose target is mid-migration; re-delivered by
  // commit/abort. The park-then-recheck ordering against the registry's
  // state transition guarantees no parcel is stranded if the migration
  // settles concurrently.
  void park_component_parcel(parcel::parcel p);
  // Claims and re-delivers every parcel parked for `g` (each runs the full
  // routing again: local dispatch after an abort, tombstone forward after a
  // commit).
  void release_parked(agas::gid g);

  distributed_domain& domain_;
  std::uint32_t const id_;
  px::runtime rt_;
  agas::registry agas_;
  agas::residence_cache cache_;

  spinlock pending_lock_;
  std::uint64_t next_token_ = 1;
  std::unordered_map<std::uint64_t, pending_slot> pending_;
  std::atomic<std::uint64_t> parcels_handled_{0};

  mutable spinlock parked_lock_;
  std::unordered_map<agas::gid, std::vector<parcel::parcel>,
                     agas::identity_hash, agas::identity_eq>
      parked_;
};

namespace detail {

// Generic handler instantiated per action function: deserializes the
// argument tuple, invokes, and (when a response is expected) ships back
// either the value or the exception message.
template <auto Fn>
void invoke_action(locality& here, parcel::parcel&& p) {
  using sig = fn_sig<decltype(Fn)>;
  using R = typename sig::ret;

  serial::output_archive response;
  bool const respond = p.response_token != 0;
  try {
    serial::input_archive in(p.payload);
    typename sig::args_tuple args;
    in& args;
    if constexpr (std::is_void_v<R>) {
      if constexpr (sig::wants_locality) {
        std::apply([&](auto&&... a) { Fn(here, std::move(a)...); },
                   std::move(args));
      } else {
        std::apply([](auto&&... a) { Fn(std::move(a)...); },
                   std::move(args));
      }
      if (respond) response& std::uint8_t{1};
    } else {
      R result = [&] {
        if constexpr (sig::wants_locality) {
          return std::apply(
              [&](auto&&... a) { return Fn(here, std::move(a)...); },
              std::move(args));
        } else {
          return std::apply([](auto&&... a) { return Fn(std::move(a)...); },
                            std::move(args));
        }
      }();
      if (respond) {
        response& std::uint8_t{1};
        response& result;
      }
    }
  } catch (std::exception const& e) {
    if (!respond) throw;
    response = serial::output_archive{};
    response& std::uint8_t{0};
    response& std::string(e.what());
  }

  if (respond) {
    parcel::parcel reply;
    reply.source = here.id();
    reply.dest = p.source;
    reply.action = parcel::response_action_id;
    reply.response_token = p.response_token;
    reply.payload = response.take();
    here.send(std::move(reply));
  }
}

// Completion side: decodes a response payload into a shared state.
template <typename R>
void complete_response(lcos::detail::shared_state<R>& state,
                       parcel::parcel&& p) {
  try {
    serial::input_archive in(p.payload);
    std::uint8_t ok = 0;
    in& ok;
    if (ok != 0) {
      if constexpr (std::is_void_v<R>) {
        state.set_value();
      } else {
        R value{};
        in& value;
        state.set_value(std::move(value));
      }
    } else {
      std::string message;
      in& message;
      state.set_exception(std::make_exception_ptr(
          std::runtime_error("px remote action failed: " + message)));
    }
  } catch (...) {
    state.set_exception(std::current_exception());
  }
}

}  // namespace detail

template <auto Fn, typename... Args>
auto locality::call(std::uint32_t dest, Args&&... args)
    -> future<typename detail::fn_sig<decltype(Fn)>::ret> {
  using sig = detail::fn_sig<decltype(Fn)>;
  using R = typename sig::ret;
  PX_ASSERT_MSG(parcel::action_traits<Fn>::id != 0,
                "action used before PX_REGISTER_ACTION");

  auto state = std::make_shared<lcos::detail::shared_state<R>>();
  std::uint64_t const token = register_response_slot(
      dest,
      [state](parcel::parcel&& resp, std::exception_ptr transport_failure) {
        if (transport_failure != nullptr) {
          state->set_exception(std::move(transport_failure));
          return;
        }
        detail::complete_response(*state, std::move(resp));
      });

  typename sig::args_tuple tup(std::forward<Args>(args)...);
  serial::output_archive out;
  out.reserve(sizeof(tup));
  out& tup;

  parcel::parcel p;
  p.source = id_;
  p.dest = dest;
  p.action = parcel::action_traits<Fn>::id;
  p.response_token = token;
  p.payload = out.take();
  send(std::move(p));
  return lcos::detail::make_future_from_state(std::move(state));
}

template <auto Fn, typename... Args>
void locality::apply(std::uint32_t dest, Args&&... args) {
  using sig = detail::fn_sig<decltype(Fn)>;
  PX_ASSERT_MSG(parcel::action_traits<Fn>::id != 0,
                "action used before PX_REGISTER_ACTION");
  typename sig::args_tuple tup(std::forward<Args>(args)...);
  serial::output_archive out;
  out.reserve(sizeof(tup));
  out& tup;

  parcel::parcel p;
  p.source = id_;
  p.dest = dest;
  p.action = parcel::action_traits<Fn>::id;
  p.payload = out.take();
  send(std::move(p));
}

template <auto Fn, typename... Args>
auto locality::call_component(agas::gid g, Args&&... args)
    -> future<typename detail::fn_sig<decltype(Fn)>::ret> {
  using sig = detail::fn_sig<decltype(Fn)>;
  using R = typename sig::ret;
  PX_ASSERT_MSG(parcel::action_traits<Fn>::id != 0,
                "action used before PX_REGISTER_ACTION");
  std::uint32_t const dest = component_destination(g);

  auto state = std::make_shared<lcos::detail::shared_state<R>>();
  std::uint64_t const token = register_response_slot(
      dest,
      [state](parcel::parcel&& resp, std::exception_ptr transport_failure) {
        if (transport_failure != nullptr) {
          state->set_exception(std::move(transport_failure));
          return;
        }
        detail::complete_response(*state, std::move(resp));
      });

  typename sig::args_tuple tup(g, std::forward<Args>(args)...);
  serial::output_archive out;
  out.reserve(sizeof(tup));
  out& tup;

  parcel::parcel p;
  p.source = id_;
  p.dest = dest;
  p.action = parcel::action_traits<Fn>::id;
  p.response_token = token;
  p.target = g;
  p.payload = out.take();
  send(std::move(p));
  return lcos::detail::make_future_from_state(std::move(state));
}

template <auto Fn, typename... Args>
void locality::apply_component(agas::gid g, Args&&... args) {
  using sig = detail::fn_sig<decltype(Fn)>;
  PX_ASSERT_MSG(parcel::action_traits<Fn>::id != 0,
                "action used before PX_REGISTER_ACTION");
  typename sig::args_tuple tup(g, std::forward<Args>(args)...);
  serial::output_archive out;
  out.reserve(sizeof(tup));
  out& tup;

  parcel::parcel p;
  p.source = id_;
  p.dest = component_destination(g);
  p.action = parcel::action_traits<Fn>::id;
  p.target = g;
  p.payload = out.take();
  send(std::move(p));
}

}  // namespace px::dist

#define PX_DETAIL_REGISTER_ACTION(fn, tag, direct)                           \
  namespace {                                                                \
  [[maybe_unused]] ::std::uint32_t const px_action_registered_##tag = [] {   \
    auto const id = ::px::parcel::action_registry::instance().add(           \
        #tag, &::px::dist::detail::invoke_action<&fn>, direct);              \
    ::px::parcel::action_traits<&fn>::id = id;                               \
    return id;                                                               \
  }();                                                                       \
  }

// Registers a free function (unqualified name, visible in this TU) as a
// remotely invocable action. Must appear at namespace scope. Each arriving
// parcel becomes a task on the destination locality.
#define PX_REGISTER_ACTION(fn) PX_DETAIL_REGISTER_ACTION(fn, fn, false)

// Registers a direct action (HPX's direct actions): deliver() calls its
// handler inline on the thread that delivers the parcel, with no task. That
// thread is the sender's worker on a clean fabric, the timer thread for a
// held or reordered frame, the one decoding a coalesced envelope, or the
// one releasing parcels parked at a migrating object. The handler must not
// wait: a task suspension, an LCO read or a blocking LCO wait inside it
// fails an assertion. It should be short: a put into an LCO, a counter
// bump.
#define PX_REGISTER_DIRECT_ACTION(fn) PX_DETAIL_REGISTER_ACTION(fn, fn, true)

// Tagged forms, for function template instances (`round<heat_shape>`),
// whose name is not an identifier: `tag` names the action instead, and
// must be unique in the process.
#define PX_REGISTER_ACTION_AS(fn, tag) PX_DETAIL_REGISTER_ACTION(fn, tag, false)
#define PX_REGISTER_DIRECT_ACTION_AS(fn, tag) \
  PX_DETAIL_REGISTER_ACTION(fn, tag, true)
