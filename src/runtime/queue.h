// Bounded blocking MPSC queue: the input queue of a local-runtime task.
//
// Producers block when the queue is full -- this IS the runtime's
// backpressure (paper §III-B): a slow consumer propagates pressure upstream
// through blocked pushes exactly like Nephele's bounded channels.
//
// Role since DESIGN.md §14: the shared locked queue is no longer the
// default for ANY live edge shape -- 1-producer edges take the SpscQueue
// fast path (spsc_queue.h) and multi-producer edges take per-producer
// FaninLanes (fanin_lanes.h).  BoundedQueue remains the reference
// implementation of the queue contract (blocking push, close, PushFront,
// DrainAll, mark_busy), the fallback when either fast path is disabled
// (LocalEngineOptions::spsc_channels / fanin_lanes), the no-producer
// corner's queue, and the ablation baseline `micro_engine --no-lanes`
// measures against.
//
// Hot-path design:
//   * Storage is batch-granular: PushAll moves the producer's whole vector
//     in (O(1)) and PopBatchFor hands a full chunk back to the consumer by
//     swap when it fits, so the per-record cost of a 64-record batch is two
//     pointer swaps and one lock acquisition, not 128 deque operations.
//   * Wakeups are throttled -- a pop notifies producers only when someone
//     is actually waiting AND occupancy dropped below the low watermark (or
//     the queue emptied, which is what an oversize batch waits for, or the
//     smallest waiting batch now fits).  Pushes likewise skip the consumer
//     notify when no consumer is parked.  Counting waiters under the queue
//     mutex makes the "skip notify" decisions race-free: a waiter registers
//     itself before releasing the lock, so a notifier holding the lock
//     either sees it or runs before the wait.
//   * `consumer_parked()` answers the same query as SpscQueue/FaninLanes
//     ("asleep, and no push has claimed its wake yet") from an atomic
//     mirror written only under the mutex: a consumer raises it when it
//     registers as a waiter, and the first push that notifies it clears it,
//     so LocalEngine's flush-on-idle rule sees a waking consumer as busy.
//   * Chunk storage is RECYCLED: a spent chunk (its items handed to the
//     consumer) parks in a small free pool instead of being freed, and the
//     lvalue PushAll overload recharges the producer's vector from that
//     pool.  Capacity thus cycles producer -> chunk -> pool -> producer,
//     the chunk FIFO itself is a ring (no deque map-node churn), and small
//     pushes coalesce into the tail chunk's spare capacity, so the
//     steady-state batch hand-off performs no heap allocation at all --
//     even for one-envelope (instant flush) batches.
//
// Every mutable field is ESP_GUARDED_BY(mutex_): the lock discipline here is
// a compiler-checked contract (-Werror=thread-safety), not a comment.
#pragma once

#include <atomic>
#include <chrono>
#include <optional>
#include <vector>

#include "common/function_effects.h"
#include "common/thread_annotations.h"

namespace esp::runtime {

template <typename T>
class BoundedQueue {
 public:
  /// `low_watermark` is the occupancy below which a pop wakes blocked
  /// producers; defaults to capacity/4 (min 1).  Lower values batch more
  /// wakeups, higher values unblock producers sooner.
  explicit BoundedQueue(std::size_t capacity, std::size_t low_watermark = 0)
      : capacity_(capacity),
        low_watermark_(low_watermark > 0 ? low_watermark
                                         : std::max<std::size_t>(1, capacity / 4)) {}

  /// Blocks until all items fit or the queue is closed.  Returns false when
  /// the queue was closed (items are dropped).  A batch larger than the
  /// capacity is admitted once the queue is empty (no deadlock on oversize
  /// batches).
  bool PushAll(std::vector<T>&& items) ESP_EXCLUDES(mutex_) ESP_BLOCKING {
    return PushImpl(items, /*recycle=*/false);
  }

  /// Recycling overload for steady-state producers: identical admission
  /// semantics, but on return `items` is an EMPTY vector recharged with
  /// capacity from the spent-chunk pool (when one is available), so the
  /// caller's next batch needs no fresh allocation.
  bool PushAll(std::vector<T>& items) ESP_EXCLUDES(mutex_) ESP_BLOCKING {
    return PushImpl(items, /*recycle=*/true);
  }

  /// Pops one item, waiting up to `timeout`.  Empty optional on timeout or
  /// when closed-and-drained.  When `mark_busy` is given it is set to true
  /// UNDER THE QUEUE LOCK iff an item is returned: an observer who sees the
  /// queue empty and the flag false can conclude no item is in flight (the
  /// drain detector of stop-the-world rescaling relies on this).
  std::optional<T> PopFor(std::chrono::nanoseconds timeout,
                          std::atomic<bool>* mark_busy = nullptr) ESP_EXCLUDES(mutex_) ESP_BLOCKING {
    MutexLock lock(mutex_);
    if (!WaitNotEmpty(lock, timeout)) return std::nullopt;
    std::optional<T> item = std::move(ChunkFront()[front_pos_]);
    ++front_pos_;
    --size_;
    if (front_pos_ == ChunkFront().size()) {
      RecycleChunk(std::move(ChunkFront()));
      PopFrontChunk();
      front_pos_ = 0;
    }
    if (mark_busy != nullptr) mark_busy->store(true);
    WakeProducers();
    return item;
  }

  /// Drains up to `max_items` into `out` (cleared first) under a single
  /// lock acquisition, waiting up to `timeout` for the first item.  Returns
  /// the number of items popped (0 on timeout or closed-and-drained).
  /// `mark_busy` follows the same under-the-lock contract as PopFor.
  std::size_t PopBatchFor(std::size_t max_items, std::chrono::nanoseconds timeout,
                          std::vector<T>& out,
                          std::atomic<bool>* mark_busy = nullptr) ESP_EXCLUDES(mutex_) ESP_BLOCKING {
    out.clear();
    MutexLock lock(mutex_);
    if (!WaitNotEmpty(lock, timeout)) return 0;
    std::size_t n = 0;
    // Fast path: hand the front chunk over wholesale.  The swap donates the
    // consumer's previous batch storage to the chunk slot, which then parks
    // in the free pool for the next producer.
    if (front_pos_ == 0 && ChunkFront().size() <= max_items) {
      out.swap(ChunkFront());
      RecycleChunk(std::move(ChunkFront()));
      PopFrontChunk();
      n = out.size();
    }
    // Drain further whole/partial chunks up to max_items (bulk move-insert,
    // not per-item push_back: one capacity check + one element loop inside
    // the library instead of N push_back calls).
    while (n < max_items && !ChunksEmpty()) {
      std::vector<T>& front = ChunkFront();
      const std::size_t take = std::min(front.size() - front_pos_, max_items - n);
      const auto begin = front.begin() + static_cast<std::ptrdiff_t>(front_pos_);
      out.insert(out.end(), std::make_move_iterator(begin),
                 std::make_move_iterator(begin + static_cast<std::ptrdiff_t>(take)));
      front_pos_ += take;
      n += take;
      if (front_pos_ == front.size()) {
        RecycleChunk(std::move(front));
        PopFrontChunk();
        front_pos_ = 0;
      }
    }
    size_ -= n;
    if (mark_busy != nullptr) mark_busy->store(true);
    WakeProducers();
    return n;
  }

  /// Re-admits items at the FRONT of the queue, ignoring capacity and the
  /// closed flag.  Recovery-only: the supervisor uses it to return records
  /// salvaged from a failed task so the restarted incarnation sees them
  /// before anything newer.  Never called concurrently with itself.
  void PushFront(std::vector<T>&& items) ESP_EXCLUDES(mutex_) ESP_BLOCKING {
    if (items.empty()) return;
    MutexLock lock(mutex_);
    // Normalise the partially consumed front chunk so chunk boundaries stay
    // aligned with front_pos_ == 0.
    if (front_pos_ > 0) {
      std::vector<T>& front = ChunkFront();
      front.erase(front.begin(), front.begin() + static_cast<std::ptrdiff_t>(front_pos_));
      front_pos_ = 0;
    }
    size_ += items.size();
    PushFrontChunk(std::move(items));
    if (waiting_consumers_ > 0) not_empty_.NotifyAll();
  }

  /// Removes and returns everything currently queued without waiting.
  /// Recovery-only: lets the supervisor salvage a failed task's backlog
  /// before tearing its queue down.
  std::vector<T> DrainAll() ESP_EXCLUDES(mutex_) ESP_BLOCKING {
    std::vector<T> out;
    MutexLock lock(mutex_);
    out.reserve(size_);
    while (!ChunksEmpty()) {
      std::vector<T>& front = ChunkFront();
      const auto begin = front.begin() + static_cast<std::ptrdiff_t>(front_pos_);
      out.insert(out.end(), std::make_move_iterator(begin),
                 std::make_move_iterator(front.end()));
      PopFrontChunk();
      front_pos_ = 0;
    }
    size_ = 0;
    if (waiting_producers_ > 0) not_full_.NotifyAll();
    return out;
  }

  /// Marks the queue closed; producers unblock, consumers drain what's left.
  void Close() ESP_EXCLUDES(mutex_) ESP_BLOCKING {
    MutexLock lock(mutex_);
    closed_ = true;
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  bool closed() const ESP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return closed_;
  }

  std::size_t size() const ESP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return size_;
  }

  bool Empty() const ESP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return size_ == 0;
  }

  /// Lock-free read of the parked mirror (see the header).
  bool consumer_parked() const noexcept ESP_NONBLOCKING {
    return consumer_parked_.load(std::memory_order_seq_cst);
  }

  /// Total element capacity retained in the spent-chunk free pool; bounded
  /// by `capacity` (see RecycleChunk).  Exposed for the bounded-pool
  /// regression test.
  std::size_t PooledCapacity() const ESP_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return pooled_capacity_;
  }

 private:
  /// Shared body of both PushAll overloads.  With `recycle`, `items` is
  /// recharged from the spent-chunk pool after its contents move in; the
  /// rvalue overload skips that (the argument is about to die, handing it
  /// pooled capacity would leak the capacity out of the cycle).
  bool PushImpl(std::vector<T>& items, bool recycle) ESP_EXCLUDES(mutex_) ESP_BLOCKING {
    if (items.empty()) return !closed();  // never store empty chunks
    MutexLock lock(mutex_);
    ++waiting_producers_;
    min_waiting_batch_ = std::min(min_waiting_batch_, items.size());
    while (!closed_ && size_ != 0 && size_ + items.size() > capacity_) {
      not_full_.Wait(lock);
    }
    --waiting_producers_;
    // min_waiting_batch_ may be stale (smaller than any remaining waiter's
    // batch) until the last waiter leaves; that only causes a spurious
    // notify, never a missed one.
    if (waiting_producers_ == 0) min_waiting_batch_ = kNoWaiter;
    if (closed_) return false;
    const std::size_t n = items.size();
    size_ += n;
    // Coalesce into the tail chunk when it has room WITHOUT reallocating:
    // instant-flush producers push one-envelope batches, and storing each as
    // its own chunk would cycle ring slots faster than the bounded pool can
    // return their storage (the capacity cycle would leak and every push
    // would allocate).  Appending preserves FIFO order and leaves the
    // producer's storage in place, so no recharge is needed either.
    bool stored = false;
    if (ring_count_ > 0) {
      std::vector<T>& tail = ring_[(ring_head_ + ring_count_ - 1) & (ring_.size() - 1)];
      if (tail.capacity() - tail.size() >= n) {
        tail.insert(tail.end(), std::make_move_iterator(items.begin()),
                    std::make_move_iterator(items.end()));
        items.clear();
        stored = true;
      }
    }
    if (!stored) {
      PushBackChunk(std::move(items));
      items.clear();  // leave the moved-from argument in a defined state
      if (recycle && !pool_.empty()) {
        items = std::move(pool_.back());
        pool_.pop_back();
        pooled_capacity_ -= items.capacity();
      }
    }
    if (waiting_consumers_ > 0) {
      consumer_parked_.store(false, std::memory_order_seq_cst);  // wake claimed
      // A batch can satisfy several parked consumers; waking just one would
      // strand the rest until the next push (or Close).
      if (n > 1 && waiting_consumers_ > 1) {
        not_empty_.NotifyAll();
      } else {
        not_empty_.NotifyOne();
      }
    }
    // Chain to the next parked producer if its batch might still fit; it
    // re-checks its own predicate and goes back to sleep otherwise.
    if (waiting_producers_ > 0 && size_ < capacity_) not_full_.NotifyOne();
    return true;
  }

  /// Parks a spent chunk's storage in the free pool (bounded; overflow and
  /// capacity-less chunks are simply freed).  The chunk may still hold
  /// moved-from elements -- clear() destroys them before pooling.  The pool
  /// is bounded BOTH in chunk count and in total retained element capacity:
  /// a backlog burst drains through chunks sized well above the steady
  /// state, and pooling those would pin peak-backlog memory for the queue's
  /// whole life.  Capping retained capacity at `capacity_` keeps the pool's
  /// footprint at one queue's worth of elements, worst case.
  void RecycleChunk(std::vector<T>&& chunk) ESP_REQUIRES(mutex_) ESP_NONALLOCATING {
    if (chunk.capacity() == 0 || pool_.size() >= kMaxPooledChunks ||
        pooled_capacity_ + chunk.capacity() > capacity_) {
      return;
    }
    pooled_capacity_ += chunk.capacity();
    ESP_EFFECTS_ESCAPE_BEGIN  // clear() destroys moved-from elements (boxed-arm release is sanctioned teardown) and pool_ growth is bounded at kMaxPooledChunks slots
    chunk.clear();
    pool_.push_back(std::move(chunk));
    ESP_EFFECTS_ESCAPE_END
  }

  /// Waits for an item or close; true iff an item is available.  `lock`
  /// must hold mutex_.
  bool WaitNotEmpty(MutexLock& lock, std::chrono::nanoseconds timeout)
      ESP_REQUIRES(mutex_) ESP_BLOCKING {
    if (size_ == 0 && !closed_) {
      ++waiting_consumers_;
      consumer_parked_.store(true, std::memory_order_seq_cst);
      const auto deadline = std::chrono::steady_clock::now() + timeout;
      while (size_ == 0 && !closed_) {
        if (not_empty_.WaitUntil(lock, deadline) == std::cv_status::timeout) break;
      }
      if (--waiting_consumers_ == 0) {
        consumer_parked_.store(false, std::memory_order_seq_cst);
      }
    }
    return size_ > 0;
  }

  /// Wakes blocked producers after a pop; call with the lock held.  Empty
  /// wakes everyone (the strongest admission condition -- oversize batches
  /// wait for it); below-watermark or smallest-waiting-batch-now-fits wakes
  /// one, which chains via PushAll.  Pops that leave the queue above the
  /// watermark with no admissible batch stay silent -- that is the wakeup
  /// throttling: under sustained backpressure producers are woken once per
  /// drained batch, not once per record.
  void WakeProducers() ESP_REQUIRES(mutex_) ESP_NONALLOCATING {
    if (waiting_producers_ == 0) return;
    ESP_EFFECTS_ESCAPE_BEGIN  // condvar notify never sleeps; waiters re-check their predicate under mutex_
    if (size_ == 0) {
      not_full_.NotifyAll();
    } else if (size_ < low_watermark_ ||
               (size_ < capacity_ && capacity_ - size_ >= min_waiting_batch_)) {
      not_full_.NotifyOne();
    }
    ESP_EFFECTS_ESCAPE_END
  }

  // ---- chunk FIFO -------------------------------------------------------
  // The chunk list is a power-of-two ring over recyclable vector slots
  // rather than a std::deque: a deque walks through its 512-byte map nodes
  // as chunks cycle, costing an allocation every ~20 batches -- which is
  // exactly the steady-state heap traffic this queue exists to eliminate
  // (the zero-allocation regression test catches it).  Slots hand their
  // storage out by move and are refilled by move, so ring slots never free
  // or allocate element storage after the ring itself is sized.

  std::vector<T>& ChunkFront() noexcept ESP_REQUIRES(mutex_) ESP_NONBLOCKING {
    return ring_[ring_head_];
  }

  bool ChunksEmpty() const noexcept ESP_REQUIRES(mutex_) ESP_NONBLOCKING {
    return ring_count_ == 0;
  }

  void PopFrontChunk() noexcept ESP_REQUIRES(mutex_) ESP_NONBLOCKING {
    ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
    --ring_count_;
  }

  // The two chunk-store ops are ESP_NONALLOCATING, not nonblocking: they run
  // under mutex_ by contract (ESP_REQUIRES) and their steady state touches no
  // heap -- the target slot is a moved-from vector with no storage to free,
  // and the ring only grows on the cold doubling edge escaped below.
  void PushBackChunk(std::vector<T>&& chunk) ESP_REQUIRES(mutex_) ESP_NONALLOCATING {
    ESP_EFFECTS_ESCAPE_BEGIN  // cold edges only: ring doubling, plus the formally-freeing move-assign into a storage-less slot
    GrowRingIfFull();
    ring_[(ring_head_ + ring_count_) & (ring_.size() - 1)] = std::move(chunk);
    ESP_EFFECTS_ESCAPE_END
    ++ring_count_;
  }

  void PushFrontChunk(std::vector<T>&& chunk) ESP_REQUIRES(mutex_) ESP_NONALLOCATING {
    ESP_EFFECTS_ESCAPE_BEGIN  // cold edges only: ring doubling, plus the formally-freeing move-assign into a storage-less slot
    GrowRingIfFull();
    ring_head_ = (ring_head_ + ring_.size() - 1) & (ring_.size() - 1);
    ring_[ring_head_] = std::move(chunk);
    ESP_EFFECTS_ESCAPE_END
    ++ring_count_;
  }

  void GrowRingIfFull() ESP_REQUIRES(mutex_) ESP_ALLOCATING {
    if (ring_count_ < ring_.size()) return;
    std::vector<std::vector<T>> bigger(ring_.size() * 2);
    for (std::size_t i = 0; i < ring_count_; ++i) {
      bigger[i] = std::move(ring_[(ring_head_ + i) & (ring_.size() - 1)]);
    }
    ring_ = std::move(bigger);
    ring_head_ = 0;
  }

  static constexpr std::size_t kNoWaiter = static_cast<std::size_t>(-1);
  /// Spent chunks retained for reuse.  Small: the steady-state cycle only
  /// needs one chunk per concurrent producer, and hoarding more would pin
  /// capacity after a burst.
  static constexpr std::size_t kMaxPooledChunks = 8;
  /// Initial chunk-ring slots; doubles on demand (bounded in practice by
  /// capacity_ / smallest-batch plus recovery PushFronts).
  static constexpr std::size_t kInitialRingSlots = 8;

  const std::size_t capacity_;
  const std::size_t low_watermark_;
  mutable Mutex mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  // Chunk ring, not the channel itself: total item occupancy across chunks
  // is bounded by capacity_ (enforced in PushAll).
  std::vector<std::vector<T>> ring_ ESP_GUARDED_BY(mutex_) =
      std::vector<std::vector<T>>(kInitialRingSlots);
  std::size_t ring_head_ ESP_GUARDED_BY(mutex_) = 0;   // slot of the oldest chunk
  std::size_t ring_count_ ESP_GUARDED_BY(mutex_) = 0;  // live chunks in the ring
  std::size_t front_pos_ ESP_GUARDED_BY(mutex_) = 0;  // consumed prefix of the front chunk
  std::size_t size_ ESP_GUARDED_BY(mutex_) = 0;       // total items across chunks
  std::size_t waiting_producers_ ESP_GUARDED_BY(mutex_) = 0;
  std::size_t waiting_consumers_ ESP_GUARDED_BY(mutex_) = 0;
  std::size_t min_waiting_batch_ ESP_GUARDED_BY(mutex_) = kNoWaiter;
  bool closed_ ESP_GUARDED_BY(mutex_) = false;
  /// Free pool of spent chunk storage (empty vectors with capacity).
  std::vector<std::vector<T>> pool_ ESP_GUARDED_BY(mutex_);
  /// Sum of pool_ element capacities; RecycleChunk keeps it <= capacity_.
  std::size_t pooled_capacity_ ESP_GUARDED_BY(mutex_) = 0;

  /// Parked mirror: written only under mutex_ (WaitNotEmpty raises it,
  /// PushImpl's notify and the last waiter's exit clear it), read lock-free
  /// by consumer_parked().
  std::atomic<bool> consumer_parked_{false};
};

}  // namespace esp::runtime
