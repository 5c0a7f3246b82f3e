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
//     every pop so no lane can starve the others under saturation.  When
//     every lane is dry it goes idle in two phases: it SPINS (polling the
//     lanes with `pause`) for up to kConsumerSpin, then SLEEPS on one
//     condvar.  It spins only while records are flowing: after a pop that
//     came back empty it goes straight to sleep.  `consumer_state_` says
//     which: kAwake, kSpinning or kAsleep.
//     Both phases poll each lane's tail cursor, TryPush's last store, so an
//     idle consumer never leaves for a chunk it cannot pop yet.  The park
//     protocol is a Dekker handshake: the consumer moves the state to
//     kAsleep with a seq_cst compare-exchange (only from kSpinning) and
//     re-checks every lane before sleeping; a producer's TryPush publishes
//     its cursor (seq_cst) and then reads the state -- one of them always
//     sees the other.  Notifies happen with the park mutex held, and
//     waits are timed as defense in depth.
//   * ONE WAKE PER PARK: a producer that finds the state not kAwake swaps
//     kAwake in with a seq_cst exchange, and only the one that swaps out
//     kAsleep notifies.  Swapping out kSpinning claims the consumer too --
//     its compare-exchange to kAsleep then fails and it returns to pop --
//     but needs no notify: a spinning consumer is polling the lanes, so
//     that push costs no mutex and no syscall.  N producers flushing into
//     one waking consumer cost one futex wake, not N, and while a wake is
//     in flight the state already reads kAwake, which is what lets
//     LocalEngine's flush-on-idle rule (ShipPartialBuffer below) keep
//     batching instead of shipping once per record until the consumer is
//     back on the CPU.
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
// the consumer's round-robin cursor and the consumer state each sit on
// lines of their own, so a 1-lane queue adds no contended line to the bare
// ring's push and pop.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "common/function_effects.h"
#include "common/thread_annotations.h"
#include "runtime/spsc_queue.h"

namespace esp::runtime {

/// Where a FaninLanes consumer is in its idle cycle (see the header).
enum class ConsumerState : std::uint8_t {
  kAwake,     // popping, or a producer has claimed its spin or its wake
  kSpinning,  // every lane dry; polling them for up to kConsumerSpin
  kAsleep,    // past the spin, on the condvar, wake not yet claimed
};

/// How long a consumer that finds every lane dry polls before it sleeps.
/// Long enough to cover the gaps the host leaves between records at light
/// load (~0.7 us apart at 1.5 M rec/s); short because a busy producer
/// holds its records for a spinning consumer (ShipPartialBuffer), and
/// because each gap costs a spin's worth of CPU.  EXPERIMENTS.md "Spin
/// before sleep" has the sweep behind the value.
inline constexpr std::chrono::nanoseconds kConsumerSpin{20'000};
/// The spinning consumer yields its CPU this often (see ParkConsumer).
inline constexpr std::chrono::nanoseconds kSpinYieldEvery{1'000};

/// LocalEngine's flush-on-idle rule (DESIGN.md §14): whether a producer
/// ships a non-empty adaptive output buffer of `age_ns` now rather than
/// keep batching.  A sleeping consumer gets it at once (it costs one wake
/// either way); a spinning one only when the producer is idle -- a busy
/// producer that shipped every record to a spinning consumer would pay a
/// whole claim + push + exchange per record and fall behind; and any
/// buffer ships once its deadline has passed.
constexpr bool ShipPartialBuffer(ConsumerState consumer, bool producer_idle,
                                 std::int64_t age_ns,
                                 std::int64_t deadline_ns) noexcept {
  return consumer == ConsumerState::kAsleep ||
         (consumer == ConsumerState::kSpinning && producer_idle) ||
         age_ns >= deadline_ns;
}

template <typename T>
class FaninLanes {
 public:
  /// `capacity` bounds the TOTAL queued record count; it is split evenly
  /// across lanes so N producers feeding one consumer see the same
  /// aggregate backpressure as one producer does.  `spin` bounds the idle
  /// consumer's polling phase; only tests pass anything but kConsumerSpin.
  FaninLanes(std::size_t capacity, std::size_t lanes,
             std::chrono::nanoseconds spin = kConsumerSpin)
      : n_lanes_(std::max<std::size_t>(1, lanes)),
        lanes_(std::make_unique<SpscQueue<T>[]>(n_lanes_)),  // esp-lint: allow(hot-path-alloc) -- lane array is built once per epoch, never on the record path
        capacity_(capacity),
        spin_(spin) {
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
          // cursor store orders before this state read.  The load
          // keeps the common awake case a shared read; the exchange claims
          // a spinning or sleeping consumer, and only swapping out kAsleep
          // needs the notify.
          if (consumer_state_.load(std::memory_order_seq_cst) != ConsumerState::kAwake &&
              consumer_state_.exchange(ConsumerState::kAwake, std::memory_order_seq_cst) ==
                  ConsumerState::kAsleep) {
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
  /// `timeout` for the first item -- spinning for the first kConsumerSpin
  /// of it, then sleeping; 0 on timeout or closed-and-drained.  A pop that
  /// follows one which came back empty skips the spin.
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
    spin_next_ = taken > 0;
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

  /// kSpinning or kAsleep while the consumer is idle with every lane dry
  /// and no producer has claimed it yet; kAwake otherwise (see the header).
  /// One lock-free load of a line only the idle/claim edges write;
  /// LocalEngine polls it per Produce call / popped batch.
  ConsumerState consumer_state() const noexcept ESP_NONBLOCKING {
    return consumer_state_.load(std::memory_order_seq_cst);
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

  /// Consumer side of the park protocol.  Spin: poll the lanes for up to
  /// `spin_` (never past `timeout`), unless the last pop came back empty:
  /// then nothing is flowing, and a spin after every pop timeout would
  /// only burn CPU -- or, worse, line up with a producer that sleeps about
  /// one timeout per record and make its records find the consumer
  /// spinning, where a busy producer keeps them (ShipPartialBuffer).
  /// Sleep: move kSpinning -> kAsleep -- a failed compare-exchange means a
  /// producer claimed the spin, so records are queued -- then re-check
  /// every lane under the mutex and wait timed.  Producers notify under the same mutex, so a wake can
  /// never land between the re-check and the wait.  The closing store
  /// covers exits no producer claimed (data seen while spinning, timeout,
  /// close).
  void ParkConsumer(std::chrono::nanoseconds timeout)
      ESP_EXCLUDES(park_mutex_) ESP_BLOCKING {
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + timeout;
    const auto spin_end =
        start + (spin_next_ ? std::min(spin_, timeout) : std::chrono::nanoseconds::zero());
    consumer_state_.store(ConsumerState::kSpinning, std::memory_order_seq_cst);
    for (auto yield_at = start + kSpinYieldEvery; Dry();) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= spin_end) break;
      if (now < yield_at) {
        CpuRelax();
        continue;
      }
      // A thread this consumer just woke may have been queued on its CPU;
      // without a yield it would wait out the whole spin.
      std::this_thread::yield();
      yield_at = now + kSpinYieldEvery;
    }
    ConsumerState spinning = ConsumerState::kSpinning;
    if (Dry() && consumer_state_.compare_exchange_strong(
                     spinning, ConsumerState::kAsleep, std::memory_order_seq_cst)) {
      MutexLock lock(park_mutex_);
      while (Dry()) {
        if (not_empty_.WaitUntil(lock, deadline) == std::cv_status::timeout) break;
      }
    }
    consumer_state_.store(ConsumerState::kAwake, std::memory_order_seq_cst);
  }

  /// Nothing to pop (no stash, no published chunk in any lane) and not
  /// closed: what the idle consumer waits out.
  bool Dry() const noexcept ESP_NONBLOCKING {
    if (stash_size_.load(std::memory_order_seq_cst) != 0 ||
        closed_.load(std::memory_order_seq_cst)) {
      return false;
    }
    for (std::size_t i = 0; i < n_lanes_; ++i) {
      if (lanes_[i].HasChunk()) return false;
    }
    return true;
  }

  static void CpuRelax() noexcept ESP_NONBLOCKING {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
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

  /// Consumer-side line: the rotating start lane and the spin flag
  /// (consumer-thread-only, written every pop), the spin bound, the closed
  /// flag and the stash mirror (both read by the consumer, written only by
  /// Close / recovery).
  alignas(64) std::size_t rr_cursor_ = 0;
  const std::chrono::nanoseconds spin_;
  bool spin_next_ = true;  // the last pop returned records
  std::atomic<bool> closed_{false};
  /// Mirror of stash_.size() readable without the park mutex (Empty()/size()
  /// run on the control thread inside the drain detector).
  std::atomic<std::size_t> stash_size_{0};
  /// Own line: producers poll it per flush check, and only the idle and
  /// claim edges write it.
  alignas(64) std::atomic<ConsumerState> consumer_state_{ConsumerState::kAwake};

  mutable Mutex park_mutex_;
  CondVar not_empty_;
  /// Salvage re-admitted ahead of every lane (see PushFront).
  std::vector<T> stash_ ESP_GUARDED_BY(park_mutex_);
};

}  // namespace esp::runtime
