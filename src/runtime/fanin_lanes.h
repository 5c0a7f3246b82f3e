// FaninLanes: every non-fused task's input queue (DESIGN.md §14).
//
// A consumer fed by N producer tasks gets N lock-free SpscQueue lanes
// (spsc_queue.h), one per producer, merged on the consumer side; a
// consumer fed by one producer gets one lane, which is the plain SPSC
// ring.  There is no other queue shape, so every recovery contract below
// exists once.
//
//   * PRODUCERS push to their assigned lane with the lane's lock-free
//     TryPush and park per-lane on a full ring, keeping the lane's
//     low-watermark wake throttle.  A lane is SPSC because exactly one
//     thread flushes a given producer task's channels (its own thread, or
//     its chain head's; the control thread only pushes while that thread is
//     parked or joined).
//   * The CONSUMER drains lanes round-robin, rotating the starting lane
//     every pop so no lane can starve the others under saturation, and
//     parks on one condvar only when every lane is dry.  The park protocol
//     is a Dekker handshake: the consumer raises `consumer_parked_`
//     (seq_cst) and re-checks every lane before sleeping; a producer's
//     TryPush publishes its count/cursor (seq_cst) and then reads the flag
//     -- one of them always sees the other.  Notifies happen with the park
//     mutex held, and waits are timed as defense in depth.
//   * ONE WAKE PER PARK: the first producer to see the flag clears it with
//     a seq_cst exchange and is the only one to notify, so N producers
//     flushing into one waking consumer cost one futex wake, not N, and
//     `consumer_parked()` reads "asleep, and nobody has claimed its wake
//     yet".  While a wake is in flight the flag is already clear, which is
//     what lets LocalEngine's flush-on-idle rule keep batching instead of
//     shipping (and notifying) once per record until the consumer is back
//     on the CPU.
//
// Recovery surface (the supervisor's contracts):
//   * PushFront re-admits salvaged records through a stash consumed BEFORE
//     any lane, ignoring capacity and the closed flag.  It is only called
//     while the consumer is quiescent (restart paths join the task thread
//     first), so the stash never races a live pop.
//   * DrainAll empties stash + every lane without waiting; the supervisor
//     acts as the consumer of a dead task's backlog.
//   * Close closes every lane (waking its parked producer) and wakes the
//     consumer -- the close-wakes-all contract quarantine and rescale rely
//     on.
//   * `mark_busy` is raised BEFORE a pop is published (stash or lane), so
//     the stop-the-world drain detector's "Empty() then busy" read order
//     can never miss an in-flight record.
//
// Layout: producers read only the first line (the lane array and its
// size, never written after construction) before touching their own lane;
// the consumer's round-robin cursor and the parked flag each sit on lines
// of their own, so a 1-lane queue adds no contended line to the bare
// ring's push and pop.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "common/function_effects.h"
#include "common/thread_annotations.h"
#include "runtime/spsc_queue.h"

namespace esp::runtime {

template <typename T>
class FaninLanes {
 public:
  /// `capacity` bounds the TOTAL queued record count; it is split evenly
  /// across lanes so N producers feeding one consumer see the same
  /// aggregate backpressure as one producer does.
  FaninLanes(std::size_t capacity, std::size_t lanes)
      : n_lanes_(std::max<std::size_t>(1, lanes)),
        lanes_(std::make_unique<SpscQueue<T>[]>(n_lanes_)),  // esp-lint: allow(hot-path-alloc) -- lane array is built once per epoch, never on the record path
        capacity_(capacity) {
    const std::size_t per_lane = std::max<std::size_t>(1, capacity / n_lanes_);
    for (std::size_t i = 0; i < n_lanes_; ++i) lanes_[i].SetCapacity(per_lane);
  }

  std::size_t lane_count() const noexcept ESP_NONBLOCKING { return n_lanes_; }

  /// Blocks until the batch is in `lane`'s ring or the queue is closed;
  /// false when closed (remaining items are dropped).  The batch lands as
  /// ONE chunk via vector swap, and `items` comes back empty but carrying
  /// the slot's recycled capacity.  SPSC per lane: at most one live thread
  /// may push a given lane.
  bool PushAll(std::size_t lane, std::vector<T>& items)
      ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    SpscQueue<T>& q = lanes_[lane];
    if (items.empty()) return !q.closed();
    for (;;) {
      switch (q.TryPush(items)) {
        case SpscQueue<T>::PushStatus::kOk:
          // Producer half of the Dekker handshake: TryPush's seq_cst
          // count/cursor stores order before this flag read.  The load
          // keeps the common not-parked case a shared read; only the
          // producer that wins the exchange notifies.
          if (consumer_parked_.load(std::memory_order_seq_cst) &&
              consumer_parked_.exchange(false, std::memory_order_seq_cst)) {
            WakeConsumer();
          }
          return true;
        case SpscQueue<T>::PushStatus::kClosed:
          return false;
        case SpscQueue<T>::PushStatus::kFull:
          q.ParkProducer();  // per-lane park; a full lane IS the backpressure
          break;
      }
    }
  }

  /// Drains up to `max_items` into `out` (cleared first), waiting up to
  /// `timeout` for the first item; 0 on timeout or closed-and-drained.
  /// Stash items come out before lane items; lanes are visited round-robin
  /// from a rotating start.  The first whole chunk comes out by swap
  /// (donating `out`'s spare capacity to the slot); further chunks are
  /// appended until the budget is hit.
  std::size_t PopBatchFor(std::size_t max_items, std::chrono::nanoseconds timeout,
                          std::vector<T>& out,
                          std::atomic<bool>* mark_busy = nullptr)
      ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    out.clear();
    if (stash_size_.load(std::memory_order_seq_cst) > 0) {
      const std::size_t n = TakeStash(max_items, out, mark_busy);
      if (n > 0) return n;
    }
    std::size_t taken = PopRound(max_items, out, mark_busy);
    if (taken == 0) {
      if (closed_.load(std::memory_order_seq_cst)) return 0;
      ParkConsumer(timeout);
      if (stash_size_.load(std::memory_order_seq_cst) > 0) {
        const std::size_t n = TakeStash(max_items, out, mark_busy);
        if (n > 0) return n;
      }
      taken = PopRound(max_items, out, mark_busy);
    }
    return taken;
  }

  /// Re-admits items ahead of everything queued, ignoring capacity and the
  /// closed flag.  Recovery-only; requires a quiescent consumer (the
  /// restart paths join the task thread first).
  void PushFront(std::vector<T>&& items) ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    if (items.empty()) return;
    MutexLock lock(park_mutex_);
    stash_.insert(stash_.begin(), std::make_move_iterator(items.begin()),
                  std::make_move_iterator(items.end()));
    stash_size_.store(stash_.size(), std::memory_order_seq_cst);
    not_empty_.NotifyAll();
  }

  /// Removes and returns everything queued (stash first, then each lane in
  /// index order) without waiting.  Recovery-only: the caller takes over
  /// the consumer role; producers may still be live (each lane's DrainAll
  /// holds that lane's park mutex, so a parked producer is re-checked).
  std::vector<T> DrainAll() ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    std::vector<T> out;
    {
      MutexLock lock(park_mutex_);
      out.swap(stash_);
      stash_size_.store(0, std::memory_order_seq_cst);
    }
    for (std::size_t i = 0; i < n_lanes_; ++i) {
      std::vector<T> drained = lanes_[i].DrainAll();
      out.insert(out.end(), std::make_move_iterator(drained.begin()),
                 std::make_move_iterator(drained.end()));
    }
    return out;
  }

  /// Marks every lane closed -- waking each lane's parked producer -- and
  /// wakes the consumer so it can drain what's left and exit.
  void Close() ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    closed_.store(true, std::memory_order_seq_cst);
    for (std::size_t i = 0; i < n_lanes_; ++i) lanes_[i].Close();
    MutexLock lock(park_mutex_);
    not_empty_.NotifyAll();
  }

  bool closed() const noexcept ESP_NONBLOCKING {
    return closed_.load(std::memory_order_seq_cst);
  }

  /// Approximate under concurrency (lane counts and stash are not one
  /// snapshot), exact once the writers quiesce -- which is when the drain
  /// detector reads it.
  std::size_t size() const noexcept ESP_NONBLOCKING {
    std::size_t n = stash_size_.load(std::memory_order_seq_cst);
    for (std::size_t i = 0; i < n_lanes_; ++i) n += lanes_[i].size();
    return n;
  }

  bool Empty() const noexcept ESP_NONBLOCKING { return size() == 0; }

  std::size_t capacity() const noexcept ESP_NONBLOCKING { return capacity_; }

  /// True while the consumer is parked (or committed to parking) with every
  /// lane dry and no producer has claimed its wake yet (see the header).
  /// One lock-free load of a line only the park/wake edges write;
  /// LocalEngine polls it per Produce call / popped batch.
  bool consumer_parked() const noexcept ESP_NONBLOCKING {
    return consumer_parked_.load(std::memory_order_seq_cst);
  }

 private:
  /// One lock-free sweep over the lanes, starting at the rotating cursor;
  /// never waits.  Lane wake-throttle decisions (want_wake) surface here
  /// and the actual blocking wake is performed per lane, which is why this
  /// sweep carries no nonblocking contract of its own -- the lock-free
  /// leaves are each lane's PopReady.
  std::size_t PopRound(std::size_t max_items, std::vector<T>& out,
                       std::atomic<bool>* mark_busy) {
    std::size_t taken = 0;
    std::size_t lane = rr_cursor_;
    for (std::size_t visited = 0; visited < n_lanes_ && taken < max_items; ++visited) {
      SpscQueue<T>& q = lanes_[lane];
      bool want_wake = false;
      taken += q.PopReady(max_items - taken, out, mark_busy, want_wake);
      if (want_wake) q.WakeProducer();
      if (++lane == n_lanes_) lane = 0;
    }
    if (++rr_cursor_ == n_lanes_) rr_cursor_ = 0;  // round-robin fairness
    return taken;
  }

  /// Consumer side of the park protocol: raise the flag, re-check every
  /// lane under the mutex, sleep timed.  Producers notify under the same
  /// mutex, so a wake can never land between the re-check and the wait.
  /// The closing store covers exits no producer claimed (timeout, close).
  void ParkConsumer(std::chrono::nanoseconds timeout)
      ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    consumer_parked_.store(true, std::memory_order_seq_cst);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    {
      MutexLock lock(park_mutex_);
      while (size() == 0 && !closed_.load(std::memory_order_seq_cst)) {
        if (not_empty_.WaitUntil(lock, deadline) == std::cv_status::timeout) break;
      }
    }
    consumer_parked_.store(false, std::memory_order_seq_cst);
  }

  void WakeConsumer() ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    MutexLock lock(park_mutex_);
    not_empty_.NotifyAll();
  }

  /// Pops up to `max_items` salvaged records.  `mark_busy` is raised before
  /// `stash_size_` drops so the drain detector cannot observe the records
  /// as neither queued nor in flight.
  std::size_t TakeStash(std::size_t max_items, std::vector<T>& out,
                        std::atomic<bool>* mark_busy)
      ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    MutexLock lock(park_mutex_);
    const std::size_t take = std::min(stash_.size(), max_items);
    if (take == 0) return 0;
    if (mark_busy != nullptr) mark_busy->store(true, std::memory_order_seq_cst);
    const auto begin = stash_.begin();
    out.insert(out.end(), std::make_move_iterator(begin),
               std::make_move_iterator(begin + static_cast<std::ptrdiff_t>(take)));
    stash_.erase(begin, begin + static_cast<std::ptrdiff_t>(take));
    stash_size_.store(stash_.size(), std::memory_order_seq_cst);
    return take;
  }

  // Read-only after construction: every push reads this line.  The lanes
  // sit in one contiguous array built once per epoch, so a push chases no
  // per-lane pointer.
  const std::size_t n_lanes_;
  const std::unique_ptr<SpscQueue<T>[]> lanes_;
  const std::size_t capacity_;

  /// Consumer-side line: the rotating start lane (consumer-thread-only,
  /// written every pop), the closed flag and the stash mirror (both read
  /// by the consumer, written only by Close / recovery).
  alignas(64) std::size_t rr_cursor_ = 0;
  std::atomic<bool> closed_{false};
  /// Mirror of stash_.size() readable without the park mutex (Empty()/size()
  /// run on the control thread inside the drain detector).
  std::atomic<std::size_t> stash_size_{0};
  /// Own line: producers poll it per flush check, and only the park and
  /// wake-claim edges write it.
  alignas(64) std::atomic<bool> consumer_parked_{false};

  mutable Mutex park_mutex_;
  CondVar not_empty_;
  /// Salvage re-admitted ahead of every lane (see PushFront).
  std::vector<T> stash_ ESP_GUARDED_BY(park_mutex_);
};

}  // namespace esp::runtime
