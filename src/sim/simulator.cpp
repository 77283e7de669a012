#include "sim/simulator.h"

namespace wild5g::sim {

namespace {

constexpr std::uint32_t slot_of(EventId id) {
  return static_cast<std::uint32_t>(id);
}
constexpr std::uint32_t generation_of(EventId id) {
  return static_cast<std::uint32_t>(id >> 32);
}
constexpr EventId make_id(std::uint32_t generation, std::uint32_t slot) {
  return (static_cast<EventId>(generation) << 32) | slot;
}

}  // namespace

std::uint32_t Simulator::free_slot() {
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  return free_slots_.back();
}

EventId Simulator::claim_slot(std::uint32_t index, double at_ms) {
  free_slots_.pop_back();
  ++live_;
  const EventId id = make_id(slots_[index].generation, index);
  queue_.push(Event{at_ms, next_seq_++, id});
  return id;
}

bool Simulator::is_live(EventId id) const {
  const std::uint32_t index = slot_of(id);
  if (index >= slots_.size()) return false;
  const Slot& slot = slots_[index];
  return slot.handler && slot.generation == generation_of(id);
}

void Simulator::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.handler = nullptr;
  ++slot.generation;  // stale ids (and a wrapped 0) can never match again
  free_slots_.push_back(index);
  --live_;
}

void Simulator::cancel(EventId id) {
  if (!is_live(id)) return;
  release_slot(slot_of(id));
  // The queue entry stays behind; pop_next() skips it by generation check.
}

bool Simulator::pop_next(Event& out) {
  while (!queue_.empty()) {
    const Event top = queue_.top();
    queue_.pop();
    if (is_live(top.id)) {
      out = top;
      return true;
    }
    // Cancelled: skip silently.
  }
  return false;
}

void Simulator::dispatch(const Event& event) {
  const std::uint32_t index = slot_of(event.id);
  // Move the handler out first: a nested schedule_* may reuse the released
  // slot or reallocate the table, so the running handler must not live
  // there. Releasing before the call makes self-cancel a no-op and keeps
  // the running event out of pending_count().
  const Handler handler = std::move(slots_[index].handler);
  release_slot(index);
  handler();
}

void Simulator::run() {
  Event event{};
  while (pop_next(event)) {
    now_ms_ = event.at_ms;
    dispatch(event);
  }
}

void Simulator::run_until(double until_ms) {
  WILD5G_REQUIRE(until_ms >= now_ms_, "Simulator::run_until: time in the past");
  Event event{};
  while (!queue_.empty() && queue_.top().at_ms <= until_ms) {
    if (!pop_next(event)) break;
    if (event.at_ms > until_ms) {
      // Event popped past the horizon: put it back (seq preserved, so its
      // FIFO rank among simultaneous events survives the round-trip) and
      // stop.
      queue_.push(event);
      break;
    }
    now_ms_ = event.at_ms;
    dispatch(event);
  }
  // Contract: the clock always lands exactly on the horizon, even when the
  // queue drained early — callers tile timelines with consecutive
  // run_until calls and anchor schedule_in offsets at window boundaries.
  now_ms_ = until_ms;
}

}  // namespace wild5g::sim
