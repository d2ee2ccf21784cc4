#include "sim/engine.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "sim/dary_heap.hpp"

namespace aio::sim {

EventHandle Engine::schedule(Time t, Callback cb, bool daemon) {
  if (t < now_) throw std::invalid_argument("Engine::schedule: time in the past");
  std::uint32_t idx;
  if (free_slots_.empty()) {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    idx = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slot(idx);
  s.cb = std::move(cb);
  s.daemon = daemon;
  if (!daemon) ++normal_pending_;
  ++live_;
  dheap_push(heap_, Node{t, next_seq_++, idx}, before);
  return EventHandle{handle_id(idx, s.gen)};
}

void Engine::release(std::uint32_t idx) {
  Slot& s = slot(idx);
  s.cb = Callback{};
  ++s.gen;  // any outstanding handle for this slot is now stale
  if (!s.daemon) {
    assert(normal_pending_ > 0);
    --normal_pending_;
  }
  assert(live_ > 0);
  --live_;
  free_slots_.push_back(idx);
}

void Engine::reclaim(std::uint32_t idx) {
  slot(idx).dead = false;
  free_slots_.push_back(idx);
}

bool Engine::cancel(EventHandle h) {
  if (!h.valid()) return false;
  const auto idx = static_cast<std::uint32_t>((h.id_ >> 32) - 1);
  const auto gen = static_cast<std::uint32_t>(h.id_);
  if (idx >= slots_.size() || slot(idx).gen != gen) return false;  // fired or cancelled
  Slot& s = slot(idx);
  s.cb = Callback{};
  ++s.gen;       // invalidate outstanding handles
  s.dead = true; // the heap node is now debris; the slot waits for it to pop
  if (!s.daemon) {
    assert(normal_pending_ > 0);
    --normal_pending_;
  }
  assert(live_ > 0);
  --live_;
  // The node stays in the heap (lazy deletion); once debris dominates,
  // one O(n) compaction keeps pops from wading through it.
  if (++dead_in_heap_ > 64 && dead_in_heap_ * 2 > heap_.size()) compact();
  return true;
}

void Engine::compact() {
  std::size_t kept = 0;
  for (const Node& n : heap_) {
    if (node_live(n))
      heap_[kept++] = n;
    else
      reclaim(n.slot);
  }
  heap_.resize(kept);
  dheap_make(heap_, before);
  dead_in_heap_ = 0;
}

void Engine::fire(const Node& n) {
  assert(n.time >= now_);
  now_ = n.time;
  ++steps_;
  Slot& s = slot(n.slot);
  const bool daemon = s.daemon;
  // Move the callback out before releasing: the callback may schedule new
  // events, reusing (or growing past) this very slot.
  Callback cb = std::move(s.cb);
  release(n.slot);
  // Per-dispatch tracing is opt-in (Cat::Engine is off by default): one
  // instant per event multiplies trace volume by the total step count.
  if (trace_ && trace_->wants(obs::kCatEngine)) {
    trace_->instant(obs::kCatEngine, obs::kPidEngine, daemon ? 2 : 1, now_,
                    "dispatch",
                    {{"step", obs::Json(static_cast<double>(steps_))},
                     {"pending", obs::Json(static_cast<double>(pending()))}});
  }
  cb();
}

bool Engine::pop_one() {
  while (!heap_.empty()) {
#if defined(__GNUC__) || defined(__clang__)
    // The root's slot is touched right after the O(log n) sift-down; start
    // pulling its line now so the fetch overlaps the heap work.
    __builtin_prefetch(&slot(heap_.front().slot));
#endif
    const Node n = dheap_pop(heap_, before);
    if (!node_live(n)) {  // cancelled: lazy deletion
      reclaim(n.slot);
      --dead_in_heap_;
      continue;
    }
    fire(n);
    return true;
  }
  return false;
}

std::size_t Engine::run() {
  std::size_t n = 0;
  while (normal_pending_ > 0 && pop_one()) ++n;
  return n;
}

std::size_t Engine::run(std::size_t max_steps) {
  std::size_t n = 0;
  while (n < max_steps && normal_pending_ > 0 && pop_one()) ++n;
  return n;
}

std::size_t Engine::run_before(Time t) {
  // The sharded hot loop: the head is checked once, then fired directly —
  // re-entering pop_one would rescan the head it just validated.
  std::size_t n = 0;
  while (!heap_.empty()) {
    if (!node_live(heap_.front())) {
      reclaim(dheap_pop(heap_, before).slot);
      --dead_in_heap_;
      continue;
    }
    if (heap_.front().time >= t) break;
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slot(heap_.front().slot));
#endif
    fire(dheap_pop(heap_, before));
    ++n;
  }
  return n;
}

Time Engine::next_event_time() {
  while (!heap_.empty() && !node_live(heap_.front())) {
    reclaim(dheap_pop(heap_, before).slot);
    --dead_in_heap_;
  }
  if (heap_.empty()) return std::numeric_limits<double>::infinity();
  return heap_.front().time;
}

std::size_t Engine::run_until(Time t) {
  std::size_t n = 0;
  while (!heap_.empty()) {
    // Skip cancelled heads so their timestamps don't gate progress.
    if (!node_live(heap_.front())) {
      reclaim(dheap_pop(heap_, before).slot);
      --dead_in_heap_;
      continue;
    }
    if (heap_.front().time > t) break;
    if (pop_one()) ++n;
  }
  if (t > now_) now_ = t;
  return n;
}

}  // namespace aio::sim
