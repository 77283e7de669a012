// Tests for the discrete-event simulator.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/error.h"

using wild5g::sim::Simulator;

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30.0, [&] { order.push_back(3); });
  sim.schedule_at(10.0, [&] { order.push_back(1); });
  sim.schedule_at(20.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now_ms(), 30.0);
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_in(5.0, [&] { fired_at = sim.now_ms(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_at(10.0, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, CancelUnknownIsNoop) {
  Simulator sim;
  sim.cancel(12345);  // must not throw
  SUCCEED();
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) sim.schedule_in(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 9.0);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  std::vector<double> fired;
  for (double t = 1.0; t <= 10.0; t += 1.0) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now_ms()); });
  }
  sim.run_until(5.0);
  EXPECT_EQ(fired.size(), 5u);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 5.0);
  EXPECT_EQ(sim.pending_count(), 5u);
  sim.run();
  EXPECT_EQ(fired.size(), 10u);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 42.0);
}

TEST(Simulator, PastSchedulingRejected) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), wild5g::Error);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), wild5g::Error);
}

TEST(Simulator, NullHandlerRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1.0, nullptr), wild5g::Error);
}

TEST(Simulator, SameInstantFifoHoldsAcrossInterleavedSchedules) {
  // FIFO among same-instant events must follow scheduling order even when
  // the schedules are interleaved with other instants and issued from
  // within running handlers.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10.0, [&] { order.push_back(1); });
  sim.schedule_at(5.0, [&] {
    // Scheduled later (from a handler) but for the same instant 10.0:
    // must fire after the ones scheduled earlier.
    sim.schedule_at(10.0, [&] { order.push_back(3); });
  });
  sim.schedule_at(10.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameInstantEventCanCancelLaterSibling) {
  // An event may cancel a same-instant event that was scheduled after it;
  // FIFO guarantees the canceller runs first, so the victim must not fire.
  Simulator sim;
  bool victim_fired = false;
  Simulator* sim_ptr = &sim;
  wild5g::sim::EventId victim = 0;
  sim.schedule_at(7.0, [&, sim_ptr] { sim_ptr->cancel(victim); });
  victim = sim.schedule_at(7.0, [&] { victim_fired = true; });
  sim.run();
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, CancelOfFiredIdIsNoop) {
  Simulator sim;
  int fired = 0;
  const auto early = sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] {
    sim.cancel(early);  // already fired: must be a no-op
    ++fired;
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  sim.cancel(early);  // and again after the run
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, CancelledIdIsNotReusedForNewEvents) {
  // Cancelling an id and then scheduling again must not resurrect the
  // cancelled handler or confuse bookkeeping.
  Simulator sim;
  bool cancelled_fired = false;
  bool fresh_fired = false;
  const auto id = sim.schedule_at(1.0, [&] { cancelled_fired = true; });
  sim.cancel(id);
  const auto fresh = sim.schedule_at(1.0, [&] { fresh_fired = true; });
  EXPECT_NE(id, fresh);
  sim.run();
  EXPECT_FALSE(cancelled_fired);
  EXPECT_TRUE(fresh_fired);
}

TEST(Simulator, RunUntilFiresEventsAtExactlyTheHorizon) {
  Simulator sim;
  bool at_horizon = false;
  bool past_horizon = false;
  sim.schedule_at(5.0, [&] { at_horizon = true; });
  sim.schedule_at(5.0 + 1e-9, [&] { past_horizon = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(at_horizon);
  EXPECT_FALSE(past_horizon);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 5.0);
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(Simulator, RunUntilCanBeResumedRepeatedly) {
  Simulator sim;
  std::vector<double> fired;
  for (double t = 1.0; t <= 6.0; t += 1.0) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now_ms()); });
  }
  sim.run_until(2.0);
  EXPECT_EQ(fired.size(), 2u);
  sim.run_until(2.0);  // same horizon again: nothing new fires
  EXPECT_EQ(fired.size(), 2u);
  sim.run_until(4.5);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 4.5);
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0, 6.0}));
}

TEST(Simulator, PendingCountTracksScheduleCancelAndFire) {
  Simulator sim;
  EXPECT_EQ(sim.pending_count(), 0u);
  const auto a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  const auto c = sim.schedule_at(3.0, [] {});
  EXPECT_EQ(sim.pending_count(), 3u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.cancel(a);  // double-cancel: no effect
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.run_until(2.0);
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.cancel(c);
  EXPECT_EQ(sim.pending_count(), 0u);
  sim.run();  // nothing left; must not fire or throw
  EXPECT_DOUBLE_EQ(sim.now_ms(), 2.0);
}

TEST(Simulator, SelfCancelInsideHandlerIsNoop) {
  // A handler cancelling its own id must be a no-op: the entry is removed
  // from the registry before invocation, so there is nothing to cancel and
  // nothing to double-free or re-fire.
  Simulator sim;
  int fired = 0;
  wild5g::sim::EventId self = 0;
  self = sim.schedule_at(3.0, [&] {
    sim.cancel(self);
    ++fired;
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_count(), 0u);
  sim.cancel(self);  // still a no-op afterwards
}

TEST(Simulator, HandlerCanCancelFutureEventDuringDispatch) {
  Simulator sim;
  bool future_fired = false;
  const auto future = sim.schedule_at(10.0, [&] { future_fired = true; });
  sim.schedule_at(5.0, [&] { sim.cancel(future); });
  sim.run();
  EXPECT_FALSE(future_fired);
  // The cancelled event is skipped without dispatch, and the clock still
  // reflects the last *fired* event.
  EXPECT_DOUBLE_EQ(sim.now_ms(), 5.0);
}

TEST(Simulator, RunUntilAdvancesClockOnEarlyDrain) {
  // The queue drains at t=3 but the horizon is 100: the clock must land on
  // the horizon so back-to-back run_until calls tile a timeline gap-free.
  Simulator sim;
  sim.schedule_at(3.0, [] {});
  sim.run_until(100.0);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 100.0);
  EXPECT_EQ(sim.pending_count(), 0u);
  // schedule_in after the drained window anchors at the horizon, not at
  // the last event.
  double fired_at = -1.0;
  sim.schedule_in(5.0, [&] { fired_at = sim.now_ms(); });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 105.0);
}

TEST(Simulator, RunUntilClockAdvancesWhenOnlyCancelledEventsRemain) {
  // Cancelled-but-unpopped events must not hold the clock back or count as
  // work: run_until over them behaves exactly like an empty queue.
  Simulator sim;
  const auto id = sim.schedule_at(4.0, [] {});
  sim.cancel(id);
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 10.0);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, RunUntilPreservesFifoForEventPushedBackPastHorizon) {
  // run_until may pop an event past the horizon and push it back; its seq
  // must survive the round-trip so FIFO among simultaneous events holds on
  // the next run.
  Simulator sim;
  std::vector<int> order;
  // A cancelled event inside the horizon forces pop_next past it and onto
  // the first live 10.0 event, which is then past the horizon: push-back.
  const auto decoy = sim.schedule_at(3.0, [] {});
  sim.schedule_at(10.0, [&] { order.push_back(1); });
  sim.schedule_at(10.0, [&] { order.push_back(2); });
  sim.schedule_at(10.0, [&] { order.push_back(3); });
  sim.cancel(decoy);
  sim.run_until(5.0);  // pops the first 10.0 event, pushes it back
  EXPECT_TRUE(order.empty());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TimerRestartPattern) {
  // The RRC inactivity-timer idiom: cancel + reschedule on each activity.
  Simulator sim;
  double expired_at = -1.0;
  wild5g::sim::EventId timer = 0;
  auto arm = [&](double delay) {
    sim.cancel(timer);
    timer = sim.schedule_in(delay, [&] { expired_at = sim.now_ms(); });
  };
  sim.schedule_at(0.0, [&] { arm(10.0); });
  sim.schedule_at(5.0, [&] { arm(10.0); });   // activity: restart
  sim.schedule_at(12.0, [&] { arm(10.0); });  // activity: restart again
  sim.run();
  EXPECT_DOUBLE_EQ(expired_at, 22.0);
}

TEST(Simulator, ArenaReachesSteadyStateUnderEventChurn) {
  // The hot-path contract: after warmup, schedule/fire/cancel churn reuses
  // released slots and never grows the slot table.
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    sim.schedule_in(static_cast<double>(i % 13), [&fired] { ++fired; });
  }
  sim.run();
  const std::size_t reserved = sim.slot_count();
  EXPECT_GT(reserved, 0u);
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 200; ++i) {
      sim.schedule_in(static_cast<double>(i % 13), [&fired] { ++fired; });
    }
    sim.run();
    ASSERT_EQ(sim.slot_count(), reserved) << "round " << round;
  }
  EXPECT_EQ(fired, 200 * 201);
}

TEST(Simulator, ArenaSteadyStateAcrossRunUntilAndCancel) {
  // Interleave run_until windows with cancellations (the fault-injector
  // arm()/disarm() pattern): cancelled handlers release their slots too.
  Simulator sim;
  int fired = 0;
  // Warmup round establishes the working-set reservation.
  std::size_t reserved = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<wild5g::sim::EventId> victims;
    for (int i = 0; i < 64; ++i) {
      const auto id = sim.schedule_in(static_cast<double>(1 + i % 7),
                                      [&fired] { ++fired; });
      if (i % 2 == 0) victims.push_back(id);
    }
    for (const auto id : victims) sim.cancel(id);
    sim.run_until(sim.now_ms() + 10.0);
    if (round == 0) {
      reserved = sim.slot_count();
      EXPECT_GT(reserved, 0u);
    } else {
      ASSERT_EQ(sim.slot_count(), reserved) << "round " << round;
    }
  }
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(fired, 50 * 32);
}

TEST(Simulator, CancelledHandlerCaptureIsDestroyed) {
  // Non-trivially-destructible captures must be destroyed on cancel and on
  // simulator teardown, not just on dispatch (ASan would flag the leak).
  auto token = std::make_shared<int>(7);
  Simulator sim;
  const auto id = sim.schedule_at(5.0, [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  sim.cancel(id);
  EXPECT_EQ(token.use_count(), 1) << "cancel must destroy the capture";
  {
    Simulator doomed;
    doomed.schedule_at(1.0, [token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1) << "teardown must destroy live captures";
}

TEST(Simulator, HandlerSurvivesTheSlotTableGrowingUnderIt) {
  // A running handler schedules 1,000 events on a fresh simulator, which
  // refills its own released slot and reallocates the slot table mid-call,
  // and then reads its captures. Dispatch moved the handler out of its slot
  // before the call, so both cases pass; invoked in place from the table,
  // each would be a heap-use-after-free under ASan.
  {
    // Stored out of line by std::function: freed when the first nested
    // schedule refills the released slot.
    Simulator sim;
    int fired = 0;
    const std::string label(256, 'x');
    const auto token = std::make_shared<int>(7);
    std::size_t read_back = 0;
    sim.schedule_at(1.0, [&sim, &fired, &read_back, label, token] {
      for (int i = 0; i < 1000; ++i) {
        sim.schedule_in(1.0, [&fired] { ++fired; });
      }
      read_back = label.size() + static_cast<std::size_t>(*token);
    });
    sim.run();
    EXPECT_EQ(read_back, 263u);
    EXPECT_EQ(fired, 1000);
    EXPECT_EQ(token.use_count(), 1) << "fired handler's capture leaked";
    EXPECT_GE(sim.slot_count(), 1000u);
  }
  {
    // Two references are stored inside the std::function itself: they move
    // with the table when it reallocates.
    Simulator sim;
    int fired = 0;
    sim.schedule_at(1.0, [&sim, &fired] {
      for (int i = 0; i < 1000; ++i) {
        sim.schedule_in(1.0, [&fired] { ++fired; });
      }
      ++fired;
    });
    sim.run();
    EXPECT_EQ(fired, 1001);
    EXPECT_GE(sim.slot_count(), 1000u);
  }
}

TEST(Simulator, OversizedCapturesStillFire) {
  // A 3.2 KB capture is stored out of line by std::function; semantics
  // must not change.
  Simulator sim;
  std::array<double, 400> payload{};
  payload[0] = 1.0;
  payload[399] = 2.0;
  double sum = 0.0;
  sim.schedule_at(1.0, [payload, &sum] { sum = payload[0] + payload[399]; });
  sim.run();
  EXPECT_DOUBLE_EQ(sum, 3.0);
}

// --- slot table: a handler leaves its slot before it runs, and a released
// slot is reused under a new generation ---------------------------------

TEST(Simulator, FiredHandlerCaptureIsDestroyedBeforeTheNextEvent) {
  // Dispatch moves the handler out of its slot and drops it once it
  // returns: by the next event nothing holds the fired handler's captures.
  auto token = std::make_shared<int>(7);
  Simulator sim;
  long count_in_next = -1;
  sim.schedule_at(1.0, [token] { (void)*token; });
  sim.schedule_at(2.0, [&count_in_next, &token] {
    count_in_next = token.use_count();
  });
  EXPECT_EQ(token.use_count(), 2);
  sim.run();
  EXPECT_EQ(count_in_next, 1);
}

TEST(Simulator, StaleIdMissesTheEventThatReusedItsSlot) {
  // A fired event's slot goes back on the free list and the next schedule
  // takes it; the old id carries the old generation, so cancelling it must
  // leave the new occupant alone.
  Simulator sim;
  const auto first = sim.schedule_at(1.0, [] {});
  sim.run();
  bool second_fired = false;
  const auto second = sim.schedule_at(2.0, [&] { second_fired = true; });
  EXPECT_EQ(sim.slot_count(), 1u) << "released slot was not reused";
  EXPECT_NE(first, second);
  sim.cancel(first);
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.run();
  EXPECT_TRUE(second_fired);
}

TEST(Simulator, SelfReschedulingTimerKeepsOneSlot) {
  // The re-arming timer pattern: each firing schedules its successor from
  // inside the handler. The running handler already released its slot, so
  // the successor takes that slot and the table never grows past one.
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 100) sim.schedule_in(10.0, tick);
  };
  sim.schedule_in(10.0, tick);
  sim.run();
  EXPECT_EQ(ticks, 100);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 1000.0);
  EXPECT_EQ(sim.slot_count(), 1u);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, RejectedHandlerClaimsNoSlot) {
  // An empty handler is refused after it was assigned into a free slot; the
  // slot must stay free, so nothing is pending and the next schedule
  // reuses it.
  Simulator sim;
  const Simulator::Handler empty;
  EXPECT_THROW(sim.schedule_at(1.0, empty), wild5g::Error);
  EXPECT_THROW(sim.schedule_in(1.0, nullptr), wild5g::Error);
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.slot_count(), 1u);
  bool fired = false;
  sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_EQ(sim.slot_count(), 1u);
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, ThrowingHandlerLeavesTheRestOfTheQueueRunnable) {
  // A handler that throws propagates out of run(). Its slot was released
  // before the call, so the bookkeeping stays exact and a second run()
  // fires what is left.
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [] { throw std::runtime_error("handler failed"); });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_DOUBLE_EQ(sim.now_ms(), 1.0);
  EXPECT_EQ(sim.pending_count(), 1u);
  EXPECT_EQ(fired, 0);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.slot_count(), 2u);
}

// --- same-instant multi-actor scheduling (N actors share one step
// boundary, so whole cohorts of events land on the same at_ms and their
// relative order must be pinned) ----------------------------------------

TEST(Simulator, ManyActorsAtOneInstantFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int ue = 0; ue < 100; ++ue) {
    sim.schedule_at(5.0, [&order, ue] { order.push_back(ue); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 100u);
  for (int ue = 0; ue < 100; ++ue) {
    ASSERT_EQ(order[static_cast<std::size_t>(ue)], ue)
        << "same-instant events must fire in scheduling order";
  }
  EXPECT_DOUBLE_EQ(sim.now_ms(), 5.0);
}

TEST(Simulator, SameInstantCohortSurvivesCancelDuringDispatch) {
  // The first actor of the cohort cancels every odd-indexed peer while the
  // instant is already dispatching: victims must simply never fire, and
  // the survivors must keep their scheduling order.
  Simulator sim;
  std::vector<int> order;
  std::vector<wild5g::sim::EventId> cohort;
  sim.schedule_at(5.0, [&] {
    order.push_back(-1);
    for (std::size_t i = 1; i < cohort.size(); i += 2) {
      sim.cancel(cohort[i]);
    }
  });
  for (int ue = 0; ue < 50; ++ue) {
    cohort.push_back(sim.schedule_at(5.0, [&order, ue] {
      order.push_back(ue);
    }));
  }
  sim.run();
  ASSERT_EQ(order.size(), 1u + 25u);
  EXPECT_EQ(order.front(), -1);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>((i - 1) * 2));
  }
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, HandlerSchedulingAtTheSameInstantRunsAfterTheCohort) {
  // A same-instant event scheduled *during* dispatch of that instant joins
  // the back of the FIFO: every already-scheduled actor goes first.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] {
    order.push_back(0);
    sim.schedule_at(5.0, [&order] { order.push_back(99); });
  });
  sim.schedule_at(5.0, [&order] { order.push_back(1); });
  sim.schedule_at(5.0, [&order] { order.push_back(2); });
  sim.run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
  EXPECT_EQ(order[3], 99);
}

TEST(Simulator, InterleavedCohortsOrderByTimeThenScheduling) {
  // Two step boundaries scheduled interleaved (UE 0 at t1, UE 0 at t2,
  // UE 1 at t1, ...): dispatch must sort by time first and scheduling
  // order within each instant, regardless of interleaving.
  Simulator sim;
  std::vector<std::pair<double, int>> order;
  for (int ue = 0; ue < 10; ++ue) {
    sim.schedule_at(10.0, [&order, ue] { order.push_back({10.0, ue}); });
    sim.schedule_at(20.0, [&order, ue] { order.push_back({20.0, ue}); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)],
              (std::pair<double, int>{10.0, i}));
    EXPECT_EQ(order[static_cast<std::size_t>(10 + i)],
              (std::pair<double, int>{20.0, i}));
  }
}

TEST(Simulator, CohortCancelOfAlreadyFiredPeersIsNoop) {
  // The last actor of an instant cancels the whole cohort, including ids
  // that already fired this instant: fired ids miss (generation bumped),
  // nothing double-fires, and pending drains to zero.
  Simulator sim;
  int fired = 0;
  std::vector<wild5g::sim::EventId> cohort;
  for (int ue = 0; ue < 20; ++ue) {
    cohort.push_back(sim.schedule_at(5.0, [&fired] { ++fired; }));
  }
  sim.schedule_at(5.0, [&] {
    for (const auto id : cohort) sim.cancel(id);
  });
  sim.run();
  EXPECT_EQ(fired, 20);
  EXPECT_EQ(sim.pending_count(), 0u);
}
