// wild5g/sim: a minimal deterministic discrete-event simulator.
//
// Drives the RRC-probe experiments and any component that needs timers
// (inactivity timers, DRX cycles, chunk downloads). Events scheduled for the
// same instant fire in scheduling order, so runs are fully deterministic.
//
// Layout: each pending handler is a std::function in a generation-checked
// slot table; released slots go on a free list and are reused, so steady
// schedule/fire/cancel churn never grows the table and needs no hashing.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "core/error.h"

namespace wild5g::sim {

/// Opaque handle for a scheduled event, usable to cancel it. Encodes
/// (generation, slot); 0 is never a live event, so value-initialized ids
/// are safe to cancel.
using EventId = std::uint64_t;

class Simulator {
 public:
  using Handler = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in milliseconds.
  [[nodiscard]] double now_ms() const { return now_ms_; }

  /// Schedules `handler` at absolute simulated time `at_ms` (>= now). The
  /// callable is assigned straight into a free slot; an empty handler
  /// (nullptr, an empty std::function) is rejected.
  template <typename F>
  EventId schedule_at(double at_ms, F&& handler) {
    WILD5G_REQUIRE(at_ms >= now_ms_,
                   "Simulator::schedule_at: time in the past");
    const std::uint32_t index = free_slot();
    Handler& stored = slots_[index].handler;
    stored = std::forward<F>(handler);
    WILD5G_REQUIRE(static_cast<bool>(stored),
                   "Simulator::schedule_at: null handler");
    return claim_slot(index, at_ms);
  }

  /// Schedules `handler` `delay_ms` from now (delay >= 0).
  template <typename F>
  EventId schedule_in(double delay_ms, F&& handler) {
    WILD5G_REQUIRE(delay_ms >= 0.0, "Simulator::schedule_in: negative delay");
    return schedule_at(now_ms_ + delay_ms, std::forward<F>(handler));
  }

  /// Cancels a pending event. Cancelling an already-fired or unknown event
  /// is a no-op (timers race with the activity that restarts them). This
  /// extends to the dispatch path: a handler that cancels *itself* (its own
  /// id) or another event scheduled for the same instant is also a no-op /
  /// takes effect respectively — the running handler's slot is released
  /// before invocation, so self-cancel finds nothing, and a same-instant
  /// victim simply never fires.
  void cancel(EventId id);

  /// Runs until the event queue drains.
  void run();

  /// Runs until simulated time reaches `until_ms` (events at exactly
  /// `until_ms` still fire) or the queue drains, whichever is first.
  /// Postcondition: now_ms() == until_ms in *both* cases — when the queue
  /// drains early the clock still advances to the horizon, so back-to-back
  /// run_until calls tile a timeline without gaps and schedule_in offsets
  /// after a drained window are anchored at the window's end, not at the
  /// last event. (Events cancelled-but-unpopped do not hold the clock back
  /// either; they are skipped without dispatching.)
  void run_until(double until_ms);

  /// Number of scheduled-but-not-yet-fired (and not cancelled) events.
  [[nodiscard]] std::size_t pending_count() const { return live_; }

  /// Size of the handler slot table (live plus free slots); event churn
  /// must reach a steady state here (asserted by tests), never grow per
  /// event.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

 private:
  /// Handler registry slot; a slot is live while it is claimed and holds a
  /// handler, and its generation advances on every release so stale
  /// EventIds miss.
  struct Slot {
    Handler handler;
    std::uint32_t generation = 1;
  };

  struct Event {
    double at_ms;
    std::uint64_t seq;  // tie-break: FIFO for simultaneous events
    EventId id;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at_ms != b.at_ms) return a.at_ms > b.at_ms;
      return a.seq > b.seq;
    }
  };

  /// The slot the next schedule fills: the most recently released one, or
  /// a new slot. It stays on the free list until claim_slot(), so a handler
  /// that throws on assignment or is empty leaves no slot half-claimed.
  std::uint32_t free_slot();
  /// Takes `index` (the free_slot() just filled) off the free list and
  /// queues its event.
  EventId claim_slot(std::uint32_t index, double at_ms);
  /// False for fired, cancelled and unknown ids.
  [[nodiscard]] bool is_live(EventId id) const;
  /// Destroys the slot's handler, frees it for reuse and bumps its
  /// generation.
  void release_slot(std::uint32_t index);
  /// Pops the next live event; returns false when the queue is empty.
  bool pop_next(Event& out);
  /// Fires `event`: moves the handler out of its slot, releases the slot
  /// (self-cancel is a no-op), then invokes the moved-out handler.
  void dispatch(const Event& event);

  double now_ms_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace wild5g::sim
