// FaninLanes: per-producer SPSC lanes for fan-in > 1 edges (DESIGN.md §14).
//
// A consumer fed by N producer tasks historically shared one mutex-guarded
// BoundedQueue, so every producer's flush contended with every other's and
// with the consumer's pop.  FaninLanes gives each producer task its own
// lock-free SpscQueue lane -- the PR 5 fast path, reused verbatim -- and
// merges them on the consumer side:
//
//   * PRODUCERS push to their assigned lane with the lane's lock-free
//     TryPush and park per-lane on a full ring, keeping SpscQueue's
//     low-watermark wake throttle.  A lane is SPSC because exactly one
//     thread flushes a given producer task's channels (its own thread, or
//     its chain head's; the control thread only pushes while that thread is
//     parked or joined).
//   * The CONSUMER drains lanes round-robin, rotating the starting lane
//     every pop so no lane can starve the others under saturation, and
//     parks on an AGGREGATE condvar only when every lane is dry.  The park
//     protocol is the same Dekker handshake as SpscQueue's: the consumer
//     raises `consumer_parked_` (seq_cst) and re-checks every lane before
//     sleeping; a producer's TryPush publishes its count/cursor (seq_cst)
//     and then reads the flag -- one of them always sees the other.  The
//     wake is CLAIMED: the first producer to see the flag clears it with a
//     seq_cst exchange and is the only one to notify, so N producers
//     flushing into one waking consumer cost one futex wake, not N, and
//     `consumer_parked()` reads "asleep, and nobody has claimed its wake
//     yet" -- the query LocalEngine's flush-on-idle rule polls.
//
// The recovery surface mirrors BoundedQueue/SpscQueue so the supervisor
// stays queue-agnostic: PushFront re-admits salvage through an aggregate
// stash consumed before any lane, DrainAll empties stash + every lane, and
// Close closes every lane (waking its parked producer) plus the aggregate
// condvar -- the close-wakes-all contract quarantine and rescale rely on.
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
  /// `capacity` bounds the TOTAL queued record count like BoundedQueue's;
  /// it is split evenly across lanes so N producers feeding one consumer
  /// see the same aggregate backpressure as the single shared queue did.
  FaninLanes(std::size_t capacity, std::size_t lanes) : capacity_(capacity) {
    const std::size_t n = std::max<std::size_t>(1, lanes);
    const std::size_t per_lane = std::max<std::size_t>(1, capacity / n);
    lanes_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      lanes_.push_back(std::make_unique<SpscQueue<T>>(per_lane));  // esp-lint: allow(hot-path-alloc) -- lane array is built once per epoch, never on the record path
    }
  }

  std::size_t lane_count() const noexcept ESP_NONBLOCKING { return lanes_.size(); }

  /// Blocks until the batch is in `lane`'s ring or the queue is closed;
  /// false when closed (remaining items are dropped).  Same recharge
  /// contract as BoundedQueue/SpscQueue: `items` comes back empty carrying
  /// the slot's recycled capacity.  SPSC per lane: at most one live thread
  /// may push a given lane.
  bool PushAll(std::size_t lane, std::vector<T>& items)
      ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    SpscQueue<T>& q = *lanes_[lane];
    if (items.empty()) return !q.closed();
    for (;;) {
      bool lane_wake = false;  // lane-level flag is never set in lane mode
      switch (q.TryPush(items, lane_wake)) {
        case SpscQueue<T>::PushStatus::kOk:
          // Producer half of the aggregate Dekker handshake: TryPush's
          // seq_cst count/cursor stores order before this flag read, and
          // only the producer that wins the exchange notifies.
          if (consumer_parked_.load(std::memory_order_seq_cst) &&
              consumer_parked_.exchange(false, std::memory_order_seq_cst)) {
            WakeConsumer();
          }
          return true;
        case SpscQueue<T>::PushStatus::kClosed:
          return false;
        case SpscQueue<T>::PushStatus::kFull:
          q.ParkProducer();  // per-lane park; full lane IS the backpressure
          break;
      }
    }
  }

  /// Drains up to `max_items` into `out` (cleared first), waiting up to
  /// `timeout` for the first item; 0 on timeout or closed-and-drained.
  /// Stash items come out before lane items; lanes are visited round-robin
  /// from a rotating start.  `mark_busy` follows the BoundedQueue contract
  /// (raised BEFORE the pop is published) via each lane's PopReady.
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
      out.reserve(stash_.size());
      out.insert(out.end(), std::make_move_iterator(stash_.begin()),
                 std::make_move_iterator(stash_.end()));
      stash_.clear();
      stash_size_.store(0, std::memory_order_seq_cst);
    }
    for (auto& q : lanes_) {
      std::vector<T> drained = q->DrainAll();
      out.insert(out.end(), std::make_move_iterator(drained.begin()),
                 std::make_move_iterator(drained.end()));
    }
    return out;
  }

  /// Marks every lane closed -- waking each lane's parked producer -- and
  /// wakes the aggregate consumer so it can drain what's left and exit.
  void Close() ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    closed_.store(true, std::memory_order_seq_cst);
    for (auto& q : lanes_) q->Close();
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
    for (const auto& q : lanes_) n += q->size();
    return n;
  }

  bool Empty() const noexcept ESP_NONBLOCKING { return size() == 0; }

  std::size_t capacity() const noexcept ESP_NONBLOCKING { return capacity_; }

  /// True while the consumer is parked (or committed to parking) with every
  /// lane dry and no producer has claimed its wake yet (see the header).
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
    const std::size_t n_lanes = lanes_.size();
    std::size_t taken = 0;
    for (std::size_t i = 0; i < n_lanes && taken < max_items; ++i) {
      SpscQueue<T>& q = *lanes_[(rr_cursor_ + i) % n_lanes];
      bool want_wake = false;
      taken += q.PopReady(max_items - taken, out, mark_busy, want_wake);
      if (want_wake) q.WakeProducer();
    }
    rr_cursor_ = (rr_cursor_ + 1) % n_lanes;  // round-robin fairness
    return taken;
  }

  /// Consumer side of the aggregate park protocol: raise the flag, re-check
  /// every lane under the mutex, sleep timed.  Producers notify under the
  /// same mutex, so a wake can never land between the re-check and the wait.
  /// The closing store covers exits no producer claimed (timeout, close).
  void ParkConsumer(std::chrono::nanoseconds timeout)
      ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    consumer_parked_.store(true, std::memory_order_seq_cst);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    {
      MutexLock lock(park_mutex_);
      while (LanesDry() && stash_size_.load(std::memory_order_seq_cst) == 0 &&
             !closed_.load(std::memory_order_seq_cst)) {
        if (not_empty_.WaitUntil(lock, deadline) == std::cv_status::timeout) break;
      }
    }
    consumer_parked_.store(false, std::memory_order_seq_cst);
  }

  bool LanesDry() const {
    for (const auto& q : lanes_) {
      if (q->size() > 0) return false;
    }
    return true;
  }

  void WakeConsumer() ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    MutexLock lock(park_mutex_);
    not_empty_.NotifyAll();
  }

  /// Pops up to `max_items` salvaged records; `mark_busy` is raised before
  /// `stash_size_` drops (same reasoning as SpscQueue::TakeStash).
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

  // Epoch-construction allocation only: lanes are built once per BuildEpoch,
  // never on the record path.
  std::vector<std::unique_ptr<SpscQueue<T>>> lanes_;
  const std::size_t capacity_;
  /// Consumer-thread-only rotating start lane for the merge drain.
  std::size_t rr_cursor_ = 0;

  std::atomic<bool> closed_{false};
  /// Mirror of stash_.size() readable without the park mutex.
  std::atomic<std::size_t> stash_size_{0};
  /// Own line: every producer polls it per flush check, and only the park
  /// and wake-claim edges write it.
  alignas(64) std::atomic<bool> consumer_parked_{false};

  mutable Mutex park_mutex_;
  CondVar not_empty_;
  /// Salvage re-admitted ahead of every lane (see PushFront).
  std::vector<T> stash_ ESP_GUARDED_BY(park_mutex_);
};

}  // namespace esp::runtime
