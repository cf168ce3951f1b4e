// Tests for px::stencil::step_mailbox, the step-keyed halo exchange the
// distributed solvers use: puts and gets in either order, puts in reverse
// step order, wake-up from another locality's thread, poisoning, and the
// migration drain.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "px/dist/distributed_domain.hpp"
#include "px/px.hpp"
#include "px/stencil/step_mailbox.hpp"

namespace {

using px::stencil::step_mailbox;
using namespace std::chrono_literals;

struct StepMailbox : ::testing::Test {
  px::runtime rt{[] {
    px::scheduler_config c;
    c.num_workers = 2;
    return c;
  }()};
};

TEST_F(StepMailbox, PutThenGet) {
  step_mailbox<std::vector<double>> m;
  m.put(3, {1.0, 2.0});
  EXPECT_EQ(m.pending_values(), 1u);
  auto got = px::async_on(rt, [&] { return m.get(3); }).get();
  EXPECT_EQ(got, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(m.pending_values(), 0u);
}

TEST_F(StepMailbox, FirstPutForAKeyWins) {
  step_mailbox<int> m;
  m.put(1, 10);
  m.put(1, 11);
  EXPECT_EQ(m.pending_values(), 1u);
  EXPECT_EQ(m.get(1), 10);
}

TEST(StepMailboxDist, GetThenPutFromAnotherLocalityWakesTheWaiter) {
  px::dist::domain_config cfg;
  cfg.num_localities = 2;
  cfg.locality_cfg.num_workers = 1;
  px::dist::distributed_domain dom(cfg);
  step_mailbox<int> m;
  std::atomic<bool> getting{false};
  int const got = dom.run([&](px::dist::locality&) {
    auto putter = px::async_on(dom.at(1).rt(), [&] {
      while (!getting.load()) std::this_thread::yield();
      // Give the getter time to suspend, so the put takes the wake path.
      std::this_thread::sleep_for(20ms);
      m.put(7, 42);
    });
    getting.store(true);
    int const v = m.get(7);
    putter.get();
    return v;
  });
  EXPECT_EQ(got, 42);
  EXPECT_EQ(m.pending_values(), 0u);
}

TEST_F(StepMailbox, KeysPutInReverseAreGotInOrder) {
  step_mailbox<std::uint64_t> m;
  constexpr std::uint64_t n = 64;
  for (std::uint64_t k = n; k-- > 0;) m.put(k, k * 10);
  EXPECT_EQ(m.pending_values(), n);
  auto all_match = px::async_on(rt, [&] {
    bool ok = true;
    for (std::uint64_t k = 0; k < n; ++k) ok = ok && m.get(k) == k * 10;
    return ok;
  });
  EXPECT_TRUE(all_match.get());
  EXPECT_EQ(m.pending_values(), 0u);
}

TEST_F(StepMailbox, PoisonFailsWaitersAndLaterGetsAndSwallowsPuts) {
  step_mailbox<int> m;
  std::atomic<int> failed{0};
  for (std::uint64_t k = 0; k < 3; ++k)
    rt.post([&, k] {
      try {
        (void)m.get(k);
      } catch (std::runtime_error const& e) {
        if (std::string(e.what()) == "down") failed.fetch_add(1);
      }
    });
  std::this_thread::sleep_for(20ms);  // let the getters suspend
  m.put(9, 1);                         // buffered, then dropped by poison
  m.poison(std::make_exception_ptr(std::runtime_error("down")));
  rt.wait_quiescent();
  EXPECT_EQ(failed.load(), 3);
  EXPECT_TRUE(m.poisoned());
  EXPECT_EQ(m.pending_values(), 0u);

  EXPECT_THROW((void)m.get(9), std::runtime_error);
  m.put(4, 2);
  EXPECT_EQ(m.pending_values(), 0u);
  // The first reason wins.
  m.poison(std::make_exception_ptr(std::logic_error("later")));
  EXPECT_THROW((void)m.get(4), std::runtime_error);
}

TEST_F(StepMailbox, DrainPendingReturnsSortedValuesAndLeavesNone) {
  step_mailbox<double> m;
  for (std::uint64_t k : {5, 1, 9, 3}) m.put(k, static_cast<double>(k) / 2);
  auto const drained = m.drain_pending();
  ASSERT_EQ(drained.size(), 4u);
  std::vector<std::uint64_t> keys;
  for (auto const& [k, v] : drained) {
    keys.push_back(k);
    EXPECT_EQ(v, static_cast<double>(k) / 2);
  }
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 3, 5, 9}));
  EXPECT_EQ(m.pending_values(), 0u);
  EXPECT_TRUE(m.drain_pending().empty());
}

}  // namespace
