// Tests for the §14 lock-free emit path: the ProducerClaim owner/steal
// protocol (claim/steal mutual exclusion, flush delegation, the TSan-graded
// owner-vs-stealer race) and FaninLanes (per-lane FIFO under concurrent
// producers, round-robin merge fairness, the aggregate park handshake and
// its one-wake-per-park claim on a spinning or sleeping consumer, the
// flush-on-idle ship rule, and the recovery surface: PushFront
// re-admission, DrainAll salvage, close wakes all), plus engine-level lane
// recovery -- quarantining a lane's producer mid-burst and stop-the-world
// rescales dissolving and re-forming a laned edge without losing a record.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_annotations.h"
#include "runtime/claim.h"
#include "runtime/engine.h"
#include "runtime/fanin_lanes.h"
#include "runtime/record.h"

namespace esp::runtime {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

// ----------------------------------------------------------- ProducerClaim

TEST(ProducerClaim, TryAcquireIsMutuallyExclusive) {
  ProducerClaim claim;
  EXPECT_TRUE(claim.TryAcquire());
  EXPECT_FALSE(claim.TryAcquire());  // held
  claim.Release();
  EXPECT_TRUE(claim.TryAcquire());
  claim.Release();
}

TEST(ProducerClaim, FlushRequestIsStickyUntilCleared) {
  ProducerClaim claim;
  EXPECT_FALSE(claim.FlushRequested());
  claim.RequestFlush();
  EXPECT_TRUE(claim.FlushRequested());
  EXPECT_TRUE(claim.FlushRequested());  // sticky: re-reads still see it
  claim.ClearFlushRequest();
  EXPECT_FALSE(claim.FlushRequested());
}

TEST(ProducerClaim, TryAcquireForGivesUpAgainstAHeldClaim) {
  ProducerClaim claim;
  ASSERT_TRUE(claim.TryAcquire());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(claim.TryAcquireFor(nanoseconds(2'000'000)));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, nanoseconds(2'000'000));  // honored the grace window
  claim.Release();
  EXPECT_TRUE(claim.TryAcquireFor(nanoseconds(1'000)));  // free claim: instant
  claim.Release();
}

TEST(ProducerClaim, OwnerStealerRaceKeepsBufferExact) {
  // The engine's claim/steal protocol in miniature, racing for real (the
  // TSan-graded leg of §14): the OWNER appends monotonically increasing
  // values to a plain unsynchronized buffer under short claim holds,
  // flushing when the batch fills or a delegation flag is raised; the
  // STEALER (control thread's force-flush) raises RequestFlush and spins
  // TryAcquireFor, stealing whatever is staged.  The claim is the ONLY
  // synchronization over `buffer`, so any protocol hole is a TSan data race
  // and any lost/duplicated flush breaks the exact FIFO check below.
  constexpr int kTotal = 30000;
  ProducerClaim claim;
  std::vector<int> buffer;     // guarded by `claim` alone
  std::vector<int> delivered;  // guarded by `claim` alone
  std::atomic<bool> done{false};
  std::atomic<int> steals{0};

  std::thread owner([&] {
    for (int next = 0; next < kTotal;) {
      claim.Acquire();
      buffer.push_back(next++);
      const bool flush = buffer.size() >= 8 || claim.FlushRequested();
      if (flush) {
        delivered.insert(delivered.end(), buffer.begin(), buffer.end());
        buffer.clear();
        claim.ClearFlushRequest();
      }
      claim.Release();
    }
    // Exit flush: whatever is still staged goes out under the claim.
    claim.Acquire();
    delivered.insert(delivered.end(), buffer.begin(), buffer.end());
    buffer.clear();
    claim.ClearFlushRequest();
    claim.Release();
    done.store(true);
  });

  std::thread stealer([&] {
    while (!done.load()) {
      claim.RequestFlush();
      if (claim.TryAcquireFor(nanoseconds(200'000))) {
        if (!buffer.empty()) {
          delivered.insert(delivered.end(), buffer.begin(), buffer.end());
          buffer.clear();
          steals.fetch_add(1);
        }
        claim.ClearFlushRequest();
        claim.Release();
      }
      std::this_thread::yield();
    }
  });

  owner.join();
  stealer.join();
  // Every value delivered exactly once, in emit order: appends all come
  // from the owner and every flush moves a FIFO prefix.
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) ASSERT_EQ(delivered[i], i) << "at " << i;
  EXPECT_TRUE(buffer.empty());
}

// ------------------------------------------------------------- FaninLanes

TEST(FaninLanes, SplitsCapacityAcrossLanes) {
  FaninLanes<int> lanes(64, 4);
  EXPECT_EQ(lanes.lane_count(), 4u);
  EXPECT_EQ(lanes.capacity(), 64u);
  EXPECT_TRUE(lanes.Empty());
  EXPECT_FALSE(lanes.closed());
}

TEST(FaninLanes, PerLaneFifoWithConcurrentProducers) {
  // The MPSC stress: 4 producers push tagged sequences into their own lanes
  // through a small ring (forcing per-lane producer parks) while one
  // consumer merge-drains through the aggregate park.  Under TSan this
  // exercises the Dekker handshake from all five sides.  Global order is
  // unspecified; per-lane order and the total count are exact.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 8000;
  FaninLanes<int> lanes(64, kProducers);  // 16 slots per lane
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<int> batch;
      int next = 0;
      while (next < kPerProducer) {
        const int n = 1 + next % 5;
        for (int i = 0; i < n && next < kPerProducer; ++i) {
          batch.push_back(p * kPerProducer + next++);  // tag = lane
        }
        ASSERT_TRUE(lanes.PushAll(static_cast<std::size_t>(p), batch));
        EXPECT_TRUE(batch.empty());  // recharge contract
      }
    });
  }
  std::vector<int> out;
  std::vector<int> expect(kProducers, 0);  // next value expected per lane
  std::uint64_t total = 0;
  while (total < static_cast<std::uint64_t>(kProducers) * kPerProducer) {
    const std::size_t n = lanes.PopBatchFor(32, nanoseconds(500'000), out);
    for (std::size_t i = 0; i < n; ++i) {
      const int lane = out[i] / kPerProducer;
      ASSERT_EQ(out[i] % kPerProducer, expect[lane]) << "lane " << lane;
      ++expect[lane];
    }
    total += n;
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(lanes.Empty());
}

TEST(FaninLanes, MergeDrainRotatesTheStartingLane) {
  // Round-robin fairness, deterministically: with every lane pre-loaded and
  // pops smaller than one lane's backlog, each PopBatchFor must start at
  // the next lane over -- no lane can monopolize the merge.
  FaninLanes<int> lanes(64, 3);
  for (int lane = 0; lane < 3; ++lane) {
    std::vector<int> items = {lane * 10, lane * 10 + 1, lane * 10 + 2};
    ASSERT_TRUE(lanes.PushAll(static_cast<std::size_t>(lane), items));
  }
  std::vector<int> out;
  for (int round = 0; round < 3; ++round) {
    ASSERT_EQ(lanes.PopBatchFor(1, nanoseconds(1'000'000), out), 1u);
    EXPECT_EQ(out[0] / 10, round) << "pop " << round << " started on the wrong lane";
  }
}

TEST(FaninLanes, PushFrontComesOutBeforeLaneItems) {
  // Salvage re-admission: PushFront items must come out ahead of anything
  // staged in the lanes, in their own order.
  FaninLanes<int> lanes(16, 2);
  std::vector<int> queued = {10, 11};
  ASSERT_TRUE(lanes.PushAll(0, queued));
  lanes.PushFront({1, 2, 3});
  // The stash comes out first (possibly as its own pop), lane items after.
  std::vector<int> all;
  std::vector<int> out;
  while (all.size() < 5) {
    ASSERT_GT(lanes.PopBatchFor(16, nanoseconds(1'000'000), out), 0u);
    all.insert(all.end(), out.begin(), out.end());
  }
  EXPECT_EQ(all, (std::vector<int>{1, 2, 3, 10, 11}));
}

TEST(FaninLanes, PushFrontIgnoresCapacityAndClose) {
  // Recovery path: salvaged records must be re-admitted even when every
  // lane is full and the queue was closed by upstream while the task was
  // dead; they come out first, then each lane's backlog.
  FaninLanes<int> lanes(4, 2);  // 2 records per lane
  std::vector<int> a = {5, 6};
  std::vector<int> b = {7, 8};
  ASSERT_TRUE(lanes.PushAll(0, a));
  ASSERT_TRUE(lanes.PushAll(1, b));
  lanes.Close();
  lanes.PushFront({1, 2, 3});
  EXPECT_EQ(lanes.size(), 7u);
  std::vector<int> all;
  std::vector<int> out;
  while (lanes.PopBatchFor(8, nanoseconds(1'000), out) > 0) {
    all.insert(all.end(), out.begin(), out.end());
  }
  ASSERT_EQ(all.size(), 7u);
  EXPECT_EQ(std::vector<int>(all.begin(), all.begin() + 3), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(std::vector<int>(all.begin() + 3, all.end()), (std::vector<int>{5, 6, 7, 8}));
}

TEST(FaninLanes, OversizedChunksComeOutInPartialRunsPerLane) {
  // Chunks larger than the pop budget in both lanes: each lane keeps its
  // cursor on its own partly consumed chunk while the merge rotates, so
  // per-lane order survives and nothing is lost or repeated.
  FaninLanes<int> lanes(32, 2);
  for (int lane = 0; lane < 2; ++lane) {
    std::vector<int> big;
    for (int i = 0; i < 10; ++i) big.push_back(lane * 100 + i);
    ASSERT_TRUE(lanes.PushAll(static_cast<std::size_t>(lane), big));
  }
  std::vector<int> next = {0, 100};
  std::vector<int> out;
  std::size_t total = 0;
  while (lanes.PopBatchFor(3, nanoseconds(1'000), out) > 0) {
    EXPECT_LE(out.size(), 3u);
    for (int v : out) ASSERT_EQ(v, next[static_cast<std::size_t>(v / 100)]++);
    total += out.size();
  }
  EXPECT_EQ(total, 20u);
}

TEST(FaninLanes, DrainAllTakesStashAndEveryLane) {
  // Salvage exactness: DrainAll must surface the stash plus every lane's
  // backlog without waiting, leaving the structure empty.
  FaninLanes<int> lanes(32, 2);
  std::vector<int> a = {1, 2, 3};
  std::vector<int> b = {4, 5};
  ASSERT_TRUE(lanes.PushAll(0, a));
  ASSERT_TRUE(lanes.PushAll(1, b));
  lanes.PushFront({0});
  EXPECT_EQ(lanes.size(), 6u);
  const std::vector<int> drained = lanes.DrainAll();
  EXPECT_EQ(drained, (std::vector<int>{0, 1, 2, 3, 4, 5}));  // stash, lane 0, lane 1
  EXPECT_TRUE(lanes.Empty());
  std::vector<int> out;
  EXPECT_EQ(lanes.PopBatchFor(8, nanoseconds(1'000), out), 0u);
}

TEST(FaninLanes, CloseWakesParkedProducer) {
  // Close-wakes-all, producer side: a producer parked on its full lane
  // (nobody draining) must be woken by Close and see the refusal.
  FaninLanes<int> lanes(2, 2);  // 1 slot per lane
  std::vector<int> first = {7};
  ASSERT_TRUE(lanes.PushAll(0, first));  // lane 0 now full
  std::thread producer([&] {
    std::vector<int> more = {8};  // parks until Close: no consumer exists
    EXPECT_FALSE(lanes.PushAll(0, more));
  });
  std::this_thread::sleep_for(milliseconds(50));
  lanes.Close();
  producer.join();
  // What was queued before the close is still drainable.
  EXPECT_EQ(lanes.DrainAll(), std::vector<int>{7});
}

TEST(FaninLanes, ParkedProducerDoesNotBlockOtherLanes) {
  // Lanes are independent: a producer parked on its full lane (nobody
  // draining) must not stop another producer from landing a batch in its
  // own lane.  A lock shared across lanes and held through the push would
  // strand the second push behind the parked one.
  FaninLanes<int> lanes(2, 2);  // 1 slot per lane
  std::vector<int> first = {7};
  ASSERT_TRUE(lanes.PushAll(0, first));  // lane 0 now full
  std::thread parked([&] {
    std::vector<int> more = {8};  // parks until Close
    EXPECT_FALSE(lanes.PushAll(0, more));
  });
  std::this_thread::sleep_for(milliseconds(50));
  std::atomic<bool> pushed{false};
  std::thread other([&] {
    std::vector<int> mine = {9};
    EXPECT_TRUE(lanes.PushAll(1, mine));
    pushed.store(true);
  });
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pushed.load() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_TRUE(pushed.load()) << "lane 1's push waited on lane 0's parked producer";
  lanes.Close();  // releases the parked producer (and a stuck push, on failure)
  parked.join();
  other.join();
  EXPECT_EQ(lanes.DrainAll(), (std::vector<int>{7, 9}));
}

TEST(FaninLanes, CloseWakesParkedConsumer) {
  // Close-wakes-all, consumer side: a consumer parked on the dry aggregate
  // far longer than the test budget must be cut short by Close.
  FaninLanes<int> lanes(16, 2);
  std::thread consumer([&] {
    std::vector<int> out;
    EXPECT_EQ(lanes.PopBatchFor(8, std::chrono::seconds(30), out), 0u);
    EXPECT_TRUE(lanes.closed());
  });
  std::this_thread::sleep_for(milliseconds(50));
  const auto t0 = std::chrono::steady_clock::now();
  lanes.Close();
  consumer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

TEST(FaninLanes, DrainDetectorSeesNoInFlightItems) {
  // The stop-the-world drain invariant on the merged queue, same protocol
  // as the single-lane stress: mark_busy is raised BEFORE a
  // pop is published from any lane or the stash, so reading "lanes empty,
  // then flag false" proves every pushed item was processed.
  FaninLanes<int> lanes(16, 2);
  std::atomic<bool> busy{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> processed{0};
  std::thread consumer([&] {
    std::vector<int> batch;
    while (!stop.load()) {
      const std::size_t n = lanes.PopBatchFor(8, nanoseconds(200'000), batch, &busy);
      if (n > 0) {
        processed.fetch_add(n);  // "process" before declaring idle
        busy.store(false);
      }
    }
  });
  std::uint64_t pushed = 0;
  for (int round = 0; round < 40; ++round) {
    std::vector<int> burst(1 + round % 7, round);
    pushed += burst.size();
    ASSERT_TRUE(lanes.PushAll(static_cast<std::size_t>(round % 2), burst));
    int stable = 0;
    while (stable < 3) {
      const bool empty = lanes.Empty();  // read queue state first...
      const bool idle = !busy.load();    // ...then the busy flag
      stable = (empty && idle) ? stable + 1 : 0;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ASSERT_EQ(processed.load(), pushed) << "round " << round;
  }
  stop.store(true);
  lanes.Close();
  consumer.join();
  EXPECT_EQ(processed.load(), pushed);
}

TEST(FaninLanes, PushClaimsTheParkedConsumersWake) {
  // The first push into an idle, dry lane array claims the consumer:
  // consumer_state() reads kAwake once it returns, and the consumer's 5 s
  // pop comes back well before its timeout.  Once against a consumer
  // inside its spin (a spin longer than the pop, so the push must land in
  // it) and once against a consumer asleep past its spin.
  for (const ConsumerState idle : {ConsumerState::kSpinning, ConsumerState::kAsleep}) {
    SCOPED_TRACE(idle == ConsumerState::kSpinning ? "spinning" : "asleep");
    FaninLanes<int> lanes(16, 2,
                          idle == ConsumerState::kSpinning ? nanoseconds(std::chrono::seconds(30))
                                                           : kConsumerSpin);
    EXPECT_EQ(lanes.consumer_state(), ConsumerState::kAwake);
    std::size_t popped = 0;
    std::chrono::steady_clock::duration waited{};
    std::thread consumer([&] {
      std::vector<int> out;
      const auto t0 = std::chrono::steady_clock::now();
      popped = lanes.PopBatchFor(8, std::chrono::seconds(5), out);
      waited = std::chrono::steady_clock::now() - t0;
    });
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (lanes.consumer_state() != idle && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    ASSERT_EQ(lanes.consumer_state(), idle) << "consumer never reached the idle phase";
    std::vector<int> one = {1};
    ASSERT_TRUE(lanes.PushAll(1, one));
    EXPECT_EQ(lanes.consumer_state(), ConsumerState::kAwake) << "the push left it unclaimed";
    consumer.join();
    EXPECT_EQ(popped, 1u);
    EXPECT_LT(waited, std::chrono::seconds(1));
  }
}

TEST(FaninLanes, SkipsTheSpinAfterAnEmptyPop) {
  // The consumer spins only while records flow: once a pop has come back
  // empty, the next one goes straight to sleep -- here with a spin bound
  // far longer than either pop's timeout.
  FaninLanes<int> lanes(16, 1, nanoseconds(std::chrono::seconds(30)));
  std::vector<int> out;
  EXPECT_EQ(lanes.PopBatchFor(8, milliseconds(1), out), 0u);  // spins out its 1 ms
  std::size_t popped = 0;
  std::thread consumer([&] {
    std::vector<int> got;
    popped = lanes.PopBatchFor(8, std::chrono::seconds(5), got);
  });
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (lanes.consumer_state() != ConsumerState::kAsleep &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_EQ(lanes.consumer_state(), ConsumerState::kAsleep) << "it spun after an empty pop";
  std::vector<int> one = {1};
  ASSERT_TRUE(lanes.PushAll(0, one));
  consumer.join();
  EXPECT_EQ(popped, 1u);
}

// Idles before the i-th push for a gap that straddles the consumer's spin
// bound: none (races the consumer's wake-up), until it spins, a busy wait
// of 0.5-1.5 spin bounds (lands on either side of the spin -> sleep edge),
// or until it sleeps past the spin.  The waits for a state give up after
// 10 000 yields, since another producer may keep the consumer awake.
void IdleBeforePush(const FaninLanes<int>& lanes, int i) {
  const auto wait_for = [&](ConsumerState state) {
    for (int spin = 0; spin < 10'000 && lanes.consumer_state() != state; ++spin) {
      std::this_thread::yield();
    }
  };
  switch (i % 4) {
    case 1:
      wait_for(ConsumerState::kSpinning);
      break;
    case 2: {
      const auto until = std::chrono::steady_clock::now() + kConsumerSpin * (50 + i % 101) / 100;
      while (std::chrono::steady_clock::now() < until) {
      }
      break;
    }
    case 3:
      wait_for(ConsumerState::kAsleep);
      break;
    default:
      break;
  }
}

TEST(FaninLanes, WakeClaimStressWithOneRecordBatches) {
  // Two producers push one-record batches into their own lanes against a
  // consumer that idles between them, with gaps straddling its spin bound
  // (IdleBeforePush), so both race for the same claim -- on a spinning
  // consumer, a sleeping one, one crossing from spin to sleep, and one
  // mid-wake-up.  Exactly one may notify per park; a lost wake shows as a
  // pop that sleeps out its 2 s timeout.
  constexpr int kPerProducer = 1000;
  FaninLanes<int> lanes(64, 2);
  std::vector<int> next_expected(2, 0);
  int received = 0;
  int stalls = 0;
  std::thread consumer([&] {
    std::vector<int> out;
    for (;;) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::size_t n = lanes.PopBatchFor(64, std::chrono::seconds(2), out);
      if (n == 0) {
        if (lanes.closed() && lanes.Empty()) break;
        // An early empty return is benign; sleeping out most of the
        // timeout is a lost wake.
        if (std::chrono::steady_clock::now() - t0 >= std::chrono::seconds(1)) ++stalls;
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const int lane = out[i] / kPerProducer;
        ASSERT_EQ(out[i] % kPerProducer, next_expected[lane]++) << "lane FIFO violated";
        ++received;
      }
    }
  });
  std::vector<std::thread> producers;
  for (int lane = 0; lane < 2; ++lane) {
    producers.emplace_back([&, lane] {
      std::vector<int> batch;
      for (int i = 0; i < kPerProducer; ++i) {
        IdleBeforePush(lanes, i + lane);
        batch.push_back(lane * kPerProducer + i);
        ASSERT_TRUE(lanes.PushAll(static_cast<std::size_t>(lane), batch));
      }
    });
  }
  for (auto& t : producers) t.join();
  lanes.Close();
  consumer.join();
  EXPECT_EQ(received, 2 * kPerProducer);
  EXPECT_EQ(stalls, 0) << "a push left a parked consumer asleep";
}

TEST(ShipPartialBuffer, TruthTable) {
  // LocalEngine's flush-on-idle rule: consumer state x producer idle x
  // buffer age against its deadline.  The load-bearing row is a spinning
  // consumer with a busy producer: shipping there turns every record into
  // its own push and lets a backlog drain at a trickle.
  constexpr std::int64_t kDeadline = 50'000;
  struct Row {
    ConsumerState consumer;
    bool producer_idle;
    std::int64_t age_ns;
    bool ship;
  };
  const Row rows[] = {
      {ConsumerState::kAwake, false, 1'000, false},
      {ConsumerState::kAwake, true, 1'000, false},
      {ConsumerState::kSpinning, false, 1'000, false},
      {ConsumerState::kSpinning, true, 1'000, true},
      {ConsumerState::kAsleep, false, 1'000, true},
      {ConsumerState::kAsleep, true, 1'000, true},
      {ConsumerState::kAwake, false, kDeadline, true},
      {ConsumerState::kAwake, true, kDeadline, true},
      {ConsumerState::kSpinning, false, kDeadline, true},
      {ConsumerState::kSpinning, true, kDeadline, true},
      {ConsumerState::kAsleep, false, kDeadline + 1, true},
      {ConsumerState::kAwake, false, kDeadline - 1, false},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(ShipPartialBuffer(row.consumer, row.producer_idle, row.age_ns, kDeadline), row.ship)
        << "consumer " << static_cast<int>(row.consumer) << ", producer "
        << (row.producer_idle ? "idle" : "busy") << ", age " << row.age_ns;
  }
}

// ----------------------------------------------------------------- engine

// Emits `total` int records (value = index) paced by `interval`.
class CountingSource final : public SourceFunction {
 public:
  CountingSource(int total, milliseconds interval) : total_(total), interval_(interval) {}

  bool Produce(Collector& out) override {
    if (next_ >= total_) return false;
    out.Emit(MakeRecord<int>(next_, static_cast<std::uint64_t>(next_)));
    ++next_;
    if (interval_.count() > 0) std::this_thread::sleep_for(interval_);
    return true;
  }

 private:
  int total_;
  milliseconds interval_;
  int next_ = 0;
};

class ScaleUdf final : public Udf {
 public:
  explicit ScaleUdf(int factor, milliseconds busy = milliseconds(0))
      : factor_(factor), busy_(busy) {}

  void OnRecord(const Record& r, Collector& out) override {
    if (busy_.count() > 0) std::this_thread::sleep_for(busy_);
    out.Emit(MakeRecord<int>(Get<int>(r) * factor_, r.key));
  }

 private:
  int factor_;
  milliseconds busy_;
};

struct SinkState {
  Mutex mutex;
  std::vector<int> values ESP_GUARDED_BY(mutex);
};

class CollectSink final : public Udf {
 public:
  explicit CollectSink(SinkState* state) : state_(state) {}

  void OnRecord(const Record& r, Collector&) override {
    MutexLock lock(state_->mutex);
    state_->values.push_back(Get<int>(r));
  }

 private:
  SinkState* state_;
};

long long SumOfValues(SinkState& state) {
  MutexLock lock(state.mutex);
  long long sum = 0;
  for (int v : state.values) sum += v;
  return sum;
}

// N source subtasks feeding ONE sink: the laned topology.
JobGraph FaninGraph(std::uint32_t sources) {
  JobGraph g;
  const auto src = g.AddVertex(
      {.name = "Src", .parallelism = sources, .max_parallelism = sources});
  const auto snk = g.AddVertex({.name = "Snk", .parallelism = 1, .max_parallelism = 1});
  g.Connect(src, snk, WiringPattern::kRoundRobin);
  return g;
}

TEST(LocalEngineFanin, ManyProducersOneSinkDeliversExactlyOnce) {
  // 4 full-blast sources race into one sink's lane array; every record must
  // arrive exactly once.
  constexpr int kPerSource = 4000;
  SinkState state;
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kAdaptive;
  opts.queue_capacity = 64;  // small: producers park on full lanes
  opts.batch_capacity = 8;
  LocalEngine engine(FaninGraph(4), opts);
  engine.SetSource("Src", [total = kPerSource](std::uint32_t) {
    return std::make_unique<CountingSource>(total, milliseconds(0));
  });
  engine.SetUdf("Snk", [&](std::uint32_t) { return std::make_unique<CollectSink>(&state); });
  const EngineResult result = engine.Run(FromSeconds(60));

  EXPECT_TRUE(result.clean()) << result.first_failure();
  EXPECT_EQ(result.records_emitted, 4u * kPerSource);
  EXPECT_EQ(result.records_delivered, 4u * kPerSource);
  // Each source emits 0..kPerSource-1 once.
  EXPECT_EQ(SumOfValues(state), 4LL * kPerSource * (kPerSource - 1) / 2);
}

TEST(LocalEngineFanin, QuarantineLaneProducerMidBurstAccountsExactly) {
  // One of the two Mid producers feeding the sink's lane array wedges
  // mid-burst; the watchdog must quarantine it (closing its lane without
  // wedging the merge), the OTHER lane keeps flowing, and the stranded
  // backlog is shed with exact accounting: emitted == delivered + shed,
  // zero redelivery.
  constexpr int kTotal = 3000;
  SinkState state;
  FaultInjector injector(7);
  injector.Wedge("Mid", 0, /*from=*/0, /*duration=*/FromMillis(600));
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kInstantFlush;
  opts.queue_capacity = 16;
  opts.chaining = false;  // keep Mid->Snk a real laned edge, not a fused call
  opts.fault_injector = &injector;
  opts.recovery.policy = FailurePolicy::kRestartTask;
  opts.recovery.max_restarts_per_task = 20;
  opts.recovery.backoff_initial = FromMillis(5);
  opts.recovery.backoff_max = FromMillis(20);
  opts.overload.enabled = true;
  opts.overload.wedge_deadline = FromMillis(100);
  JobGraph g;
  const auto src = g.AddVertex({.name = "Src", .parallelism = 1, .max_parallelism = 1});
  const auto mid = g.AddVertex({.name = "Mid", .parallelism = 2, .max_parallelism = 2});
  const auto snk = g.AddVertex({.name = "Snk", .parallelism = 1, .max_parallelism = 1});
  g.Connect(src, mid, WiringPattern::kRoundRobin);
  g.Connect(mid, snk, WiringPattern::kRoundRobin);
  LocalEngine engine(std::move(g), opts);
  engine.SetSource("Src", [total = kTotal](std::uint32_t) {
    return std::make_unique<CountingSource>(total, milliseconds(0));
  });
  engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(3); });
  engine.SetUdf("Snk", [&](std::uint32_t) { return std::make_unique<CollectSink>(&state); });
  const EngineResult result = engine.Run(FromSeconds(60));

  EXPECT_GE(result.quarantines, 1u);
  EXPECT_EQ(result.records_redelivered, 0u);
  EXPECT_GT(result.records_shed, 0u);
  EXPECT_EQ(result.records_emitted, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(result.records_emitted,
            result.records_delivered + result.records_shed);
  // The healthy lane really flowed: deliveries survived the quarantine.
  EXPECT_GT(result.records_delivered, 0u);
  {
    MutexLock lock(state.mutex);
    EXPECT_EQ(state.values.size(), result.records_delivered);
  }
}

TEST(LocalEngineFanin, RescaleReformsLanedEdgeExactlyOnce) {
  // Stop-the-world rescale under backpressure with a LANED edge in the
  // graph: Mid starts at parallelism 2 (2 lanes into Snk) and the scaler
  // grows it mid-stream, dissolving the lane array and re-forming it with
  // more lanes.  The drain protocol (DrainAll salvage + PushFront
  // re-admission on the merged queue) must hand every in-flight record to
  // the next epoch exactly once, even with a tiny capacity keeping the
  // lanes permanently full.
  SinkState state;
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kInstantFlush;
  opts.queue_capacity = 8;
  opts.chaining = false;
  opts.measurement_interval = FromMillis(200);
  opts.adjustment_interval = FromMillis(800);
  opts.scaler.enabled = true;
  JobGraph g;
  const auto src = g.AddVertex({.name = "Src", .parallelism = 1, .max_parallelism = 1});
  const auto mid = g.AddVertex({.name = "Mid",
                                .parallelism = 2,
                                .min_parallelism = 1,
                                .max_parallelism = 4,
                                .elastic = true});
  const auto snk = g.AddVertex({.name = "Snk", .parallelism = 1, .max_parallelism = 1});
  g.Connect(src, mid, WiringPattern::kRoundRobin);
  g.Connect(mid, snk, WiringPattern::kRoundRobin);
  const LatencyConstraint constraint{
      JobSequence::FromEdgeChain(g, {JobEdgeId{0}, JobEdgeId{1}}), FromMillis(30),
      FromSeconds(10), "c"};
  LocalEngine engine(std::move(g), opts);
  engine.SetSource("Src", [](std::uint32_t) {
    return std::make_unique<CountingSource>(1500, milliseconds(0));  // full blast
  });
  engine.SetUdf("Mid",
                [](std::uint32_t) { return std::make_unique<ScaleUdf>(5, milliseconds(1)); });
  engine.SetUdf("Snk", [&](std::uint32_t) { return std::make_unique<CollectSink>(&state); });
  engine.AddConstraint(constraint);
  const EngineResult result = engine.Run(FromSeconds(60));

  EXPECT_TRUE(result.clean()) << result.first_failure();
  EXPECT_GE(result.rescales, 1u);
  EXPECT_EQ(result.records_delivered, 1500u);
  EXPECT_EQ(SumOfValues(state), 5LL * 1499 * 1500 / 2);  // exactly once
}

}  // namespace
}  // namespace esp::runtime
