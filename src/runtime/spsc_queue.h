// Lock-free bounded SPSC lane: one producer task's slot in a FaninLanes
// input queue (fanin_lanes.h).  Every non-fused task reads a FaninLanes
// with one lane per producer task; a 1-lane array is the single-producer
// case (DESIGN.md §14).  The lane is the ring plus its producer half --
// the consumer park, the salvage stash and the wake claim live once, in
// FaninLanes.
//
// The single-producer / single-consumer restriction lets both cursors
// advance without a lock, and publication is BATCH-granular all the way
// down: the ring's slots hold whole CHUNKS (std::vector<T>), so a push is
// one vector swap into a slot plus one `tail_` store, and a pop swaps the
// chunk back out -- zero per-item moves on either side.  The swap also
// closes the engine's capacity-recycling loop without a free pool: the
// producer's spent batch vector inherits whatever capacity the consumer's
// previous pop left in the slot, and vice versa.
//
//   * `head_`/`tail_` are cache-line-padded monotonic chunk cursors
//     (power-of-two mask, no wrapping logic); `items_` mirrors the queued
//     record count for backpressure and the drain detector's Empty().
//   * The park mutex and condvar are touched only on FULL transitions, and
//     producer wakeups are THROTTLED: under sustained backpressure a pop
//     only asks for a wake when occupancy falls below the low watermark
//     (capacity/4) or a full chunk ring regains a slot, so the producer is
//     woken once per drained quarter-queue, not once per pop.  The
//     producer's timed wait bounds the cost of any wake this throttling
//     skips.  The park protocol is Dekker-style: the producer raises
//     `producer_parked_` (seq_cst) and re-checks the ring before sleeping,
//     while the consumer publishes its cursor/count (seq_cst) and then
//     reads the flag -- the seq_cst total order guarantees one of them
//     sees the other.  Notifies happen with the park mutex held (never lost
//     between the sleeper's re-check and its wait).
//   * DrainAll lets the supervisor act as the consumer of a dead task's
//     backlog (the producer may still be live and mid-push; the cursor
//     atomics make that safe), and Close wakes a parked producer.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/function_effects.h"
#include "common/thread_annotations.h"

namespace esp::runtime {

template <typename T>
class FaninLanes;  // fanin_lanes.h: the only owner and driver of lanes

template <typename T>
class SpscQueue {
 public:
  /// Lanes are built in place inside FaninLanes' lane array; SetCapacity
  /// sizes the ring before the lane is shared with any other thread.
  SpscQueue() = default;

  /// Removes and returns everything queued without waiting.  Recovery-only:
  /// the caller takes over the consumer role, which is safe because the
  /// real consumer is dead or joined before salvage runs.  The producer may
  /// still be live; the park mutex is held across the drain so a parked
  /// producer is re-checked, not stranded.
  std::vector<T> DrainAll() ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    std::vector<T> out;
    MutexLock lock(park_mutex_);
    out.reserve(items_.load(std::memory_order_seq_cst));
    std::uint64_t head = head_.load(std::memory_order_seq_cst);
    const std::uint64_t tail = tail_.load(std::memory_order_seq_cst);
    std::size_t drained = 0;
    for (; head != tail; ++head) {
      std::vector<T>& chunk = ring_[static_cast<std::size_t>(head) & mask_];
      const auto begin = chunk.begin() + static_cast<std::ptrdiff_t>(chunk_off_);
      drained += static_cast<std::size_t>(std::distance(begin, chunk.end()));
      out.insert(out.end(), std::make_move_iterator(begin),
                 std::make_move_iterator(chunk.end()));
      chunk.clear();
      chunk_off_ = 0;
    }
    items_.fetch_sub(drained, std::memory_order_seq_cst);
    head_.store(head, std::memory_order_seq_cst);
    not_full_.NotifyAll();
    return out;
  }

  /// Marks the lane closed and wakes its parked producer, which then sees
  /// the refusal; what is queued stays drainable.
  void Close() ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    closed_.store(true, std::memory_order_seq_cst);
    MutexLock lock(park_mutex_);
    not_full_.NotifyAll();
  }

  bool closed() const { return closed_.load(std::memory_order_seq_cst); }

  /// Queued record count; exact once the writers quiesce -- which is when
  /// the drain detector reads it.
  std::size_t size() const { return items_.load(std::memory_order_seq_cst); }

 private:
  template <typename>
  friend class FaninLanes;

  /// `capacity` bounds the queued RECORD count.  Chunk slots: enough for
  /// `capacity` one-record chunks (instant flush), rounded up to a power of
  /// two for mask indexing; larger chunks simply leave slots unused.
  void SetCapacity(std::size_t capacity) {
    std::size_t slots = 1;
    while (slots < capacity) slots <<= 1;
    ring_.resize(slots);  // once per lane, at epoch build
    mask_ = slots - 1;
    capacity_ = capacity;
    low_watermark_ = std::max<std::size_t>(1, capacity / 4);
  }

  enum class PushStatus { kOk, kFull, kClosed };

  /// Lock-free producer fast path: one attempt to land `items` as a chunk.
  /// Never parks, never takes the park mutex.  On kOk the count and cursor
  /// are published with seq_cst stores, so the caller's read of the
  /// consumer's parked flag (FaninLanes' half of the Dekker handshake)
  /// stays ordered after them.
  PushStatus TryPush(std::vector<T>& items) noexcept ESP_NONBLOCKING {
    if (closed_.load(std::memory_order_seq_cst)) return PushStatus::kClosed;
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head == ring_.size() ||
        items_.load(std::memory_order_seq_cst) >= capacity_) {
      return PushStatus::kFull;
    }
    const std::size_t n = items.size();
    ring_[static_cast<std::size_t>(tail) & mask_].swap(items);
    items.clear();  // moved-from slot leftovers; keep its capacity
    // Publish count before the cursor so size() never under-reports a
    // visible chunk.
    items_.fetch_add(n, std::memory_order_seq_cst);
    tail_.store(tail + 1, std::memory_order_seq_cst);
    return PushStatus::kOk;
  }

  /// Lock-free consumer fast path: drains whatever the ring already holds
  /// (up to `max_items`) without waiting; 0 when the ring is empty.
  /// `mark_busy`, when given, is raised BEFORE the pop is published iff
  /// items return, so the stop-the-world drain detector's "Empty() then
  /// busy" read order can never miss an in-flight record.  `want_wake`
  /// comes back true when the throttle says a parked producer can now make
  /// real progress; the caller performs the actual (blocking) wake so this
  /// stays a pure ring operation.
  std::size_t PopReady(std::size_t max_items, std::vector<T>& out,
                       std::atomic<bool>* mark_busy, bool& want_wake) noexcept
      ESP_NONBLOCKING {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_seq_cst);
    if (head == tail) return 0;
    if (mark_busy != nullptr) mark_busy->store(true, std::memory_order_seq_cst);
    std::uint64_t next = head;
    std::size_t taken = 0;
    while (next != tail && taken < max_items) {
      std::vector<T>& chunk = ring_[static_cast<std::size_t>(next) & mask_];
      const std::size_t remaining = chunk.size() - chunk_off_;
      if (chunk_off_ == 0 && out.empty() && chunk.size() <= max_items) {
        out.swap(chunk);  // zero-copy; slot inherits out's spare capacity
        taken = out.size();
      } else if (remaining <= max_items - taken) {
        const auto begin = chunk.begin() + static_cast<std::ptrdiff_t>(chunk_off_);
        ESP_EFFECTS_ESCAPE_BEGIN  // cold-start growth only: out keeps its capacity across pops, so steady-state inserts fit the reserve
        out.insert(out.end(), std::make_move_iterator(begin),
                   std::make_move_iterator(chunk.end()));
        ESP_EFFECTS_ESCAPE_END
        taken += remaining;
        chunk.clear();
        chunk_off_ = 0;
      } else {
        // Oversized chunk (batch_capacity > max_items): consume a partial
        // run and leave the cursor on this chunk.
        const std::size_t take = max_items - taken;
        const auto begin = chunk.begin() + static_cast<std::ptrdiff_t>(chunk_off_);
        ESP_EFFECTS_ESCAPE_BEGIN  // cold-start growth only: out keeps its capacity across pops, so steady-state inserts fit the reserve
        out.insert(out.end(), std::make_move_iterator(begin),
                   std::make_move_iterator(begin + static_cast<std::ptrdiff_t>(take)));
        ESP_EFFECTS_ESCAPE_END
        chunk_off_ += take;
        taken += take;
        break;
      }
      ++next;
    }
    // One publication per pop; seq_cst orders it before the parked-flag
    // read (the Dekker handshake with ParkProducer).
    const bool ring_was_full = tail - head == ring_.size();
    const std::size_t items_left =
        items_.fetch_sub(taken, std::memory_order_seq_cst) - taken;
    head_.store(next, std::memory_order_seq_cst);
    want_wake = (items_left < low_watermark_ || ring_was_full) &&
                producer_parked_.load(std::memory_order_seq_cst);
    return taken;
  }

  /// Consumer-side poll: true once a chunk is published past the consumer's
  /// cursor.  Reads `tail_`, the producer's LAST seq_cst store in TryPush
  /// (the count is published first), so a true here means PopReady will
  /// find the chunk -- polling the count instead would wake an idle
  /// consumer into an empty pop inside that window.
  bool HasChunk() const noexcept ESP_NONBLOCKING {
    return tail_.load(std::memory_order_seq_cst) != head_.load(std::memory_order_relaxed);
  }

  /// Producer side of the park protocol.  No overall deadline: a full lane
  /// IS the engine's backpressure.  The waits are timed anyway so a lost
  /// wakeup degrades to a 1ms hiccup, not a hang.
  void ParkProducer() ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    producer_parked_.store(true, std::memory_order_seq_cst);
    {
      MutexLock lock(park_mutex_);
      while ((tail_.load(std::memory_order_seq_cst) -
                      head_.load(std::memory_order_seq_cst) ==
                  ring_.size() ||
              items_.load(std::memory_order_seq_cst) >= capacity_) &&
             !closed_.load(std::memory_order_seq_cst)) {
        not_full_.WaitFor(lock, std::chrono::milliseconds(1));
      }
    }
    producer_parked_.store(false, std::memory_order_seq_cst);
  }

  /// Notifies with the park mutex held: the sleeper either still holds the
  /// mutex re-checking its predicate (we wait for it) or is already waiting
  /// (the notify lands).  Only reached on full transitions.
  void WakeProducer() ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    MutexLock lock(park_mutex_);
    not_full_.NotifyAll();
  }

  // Chunk storage: slot contents are written by the producer and read by
  // the consumer with ownership decided by the cursors; the seq_cst cursor
  // stores above are the synchronisation edges TSan and the memory model
  // see.  The sizing fields are written once by SetCapacity before the
  // lane is shared, so this line stays read-only for both sides.
  std::vector<std::vector<T>> ring_;
  std::size_t mask_ = 0;
  std::size_t capacity_ = 0;
  /// Occupancy below which a pop wakes a parked producer (wake throttling).
  std::size_t low_watermark_ = 1;

  // Producer-owned and consumer-owned cursors on separate cache lines (and
  // padded away from the cold fields below).  `chunk_off_` (consumer-only)
  // tracks the partially-consumed front chunk when a chunk exceeds the pop
  // budget; it shares the consumer's line.  `items_` is the queued record
  // count (both sides write, control thread reads).
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::size_t chunk_off_ = 0;
  alignas(64) std::atomic<std::size_t> items_{0};
  std::atomic<bool> closed_{false};
  std::atomic<bool> producer_parked_{false};

  mutable Mutex park_mutex_;
  CondVar not_full_;
};

}  // namespace esp::runtime
