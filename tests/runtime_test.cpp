// Tests for the threaded local runtime: record boxing, the single-lane input
// queue and the LocalEngine end-to-end (routing patterns, batching
// strategies including flush on idle, windowed UDFs, termination, and
// stop-the-world elastic rescaling).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_counter.h"

#include "common/thread_annotations.h"
#include "runtime/engine.h"
#include "runtime/fanin_lanes.h"
#include "runtime/record.h"

namespace esp::runtime {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

// ----------------------------------------------------------------- records

TEST(Record, BoxAndUnbox) {
  const Record r = MakeRecord<int>(42, /*key=*/7, /*tag=*/3);
  EXPECT_EQ(r.key, 7u);
  EXPECT_EQ(r.tag, 3);
  EXPECT_EQ(Get<int>(r), 42);
}

TEST(Record, SharedPayloadAcrossCopies) {
  const Record a = MakeRecord<std::string>("hello");
  const Record b = a;  // broadcast-style copy
  EXPECT_EQ(&Get<std::string>(a), &Get<std::string>(b));
}

TEST(Record, GetThrowsWithoutPayload) {
  const Record r;
  EXPECT_THROW(Get<int>(r), std::logic_error);
}

// ------------------------------------------------- small-buffer optimization

// Boundary probes for the inline-payload trait: 24 bytes of trivially
// copyable data is the last inline size, 32 bytes falls back to boxing, and
// over-aligned or non-trivial types are always boxed.
struct Inline24 {
  std::uint64_t a, b, c;
};
struct Boxed32 {
  std::uint64_t a, b, c, d;
};
struct OverAligned {
  alignas(16) double v;
};
static_assert(IsInlinePayload<int>);
static_assert(IsInlinePayload<long long>);
static_assert(IsInlinePayload<std::uint64_t>);
static_assert(IsInlinePayload<Inline24>);
static_assert(!IsInlinePayload<Boxed32>);
static_assert(!IsInlinePayload<OverAligned>);
static_assert(!IsInlinePayload<std::string>);
static_assert(!IsInlinePayload<std::vector<std::uint64_t>>);

TEST(Record, SmallTrivialPayloadsStoreInline) {
  const Record a = MakeRecord<int>(7);
  const Record b = MakeRecord<std::uint64_t>(1ull << 40);
  const Record c = MakeRecord<Inline24>({1, 2, 3});
  EXPECT_TRUE(a.payload_inline());
  EXPECT_TRUE(b.payload_inline());
  EXPECT_TRUE(c.payload_inline());
  EXPECT_EQ(Get<int>(a), 7);
  EXPECT_EQ(Get<std::uint64_t>(b), 1ull << 40);
  EXPECT_EQ(Get<Inline24>(c).c, 3u);
}

TEST(Record, OversizeOrNonTrivialPayloadsAreBoxed) {
  const Record a = MakeRecord<Boxed32>({1, 2, 3, 4});
  const Record b = MakeRecord<std::string>("payload");
  EXPECT_FALSE(a.payload_inline());
  EXPECT_FALSE(b.payload_inline());
  EXPECT_EQ(Get<Boxed32>(a).d, 4u);
  EXPECT_EQ(Get<std::string>(b), "payload");
}

TEST(Record, InlineCopiesAreIndependentStorage) {
  const Record a = MakeRecord<int>(42);
  const Record b = a;  // broadcast-style copy duplicates the inline bytes
  EXPECT_EQ(Get<int>(a), 42);
  EXPECT_EQ(Get<int>(b), 42);
  EXPECT_NE(&Get<int>(a), &Get<int>(b));
}

TEST(Record, MoveSemanticsPerStorageClass) {
  // Inline: moving is a byte copy, the source stays readable.
  Record ia = MakeRecord<int>(9);
  const Record ib = std::move(ia);
  EXPECT_EQ(Get<int>(ib), 9);
  EXPECT_TRUE(ia.has_payload());  // NOLINT(bugprone-use-after-move) moved-from state is the contract under test
  // Boxed: moving transfers the box, the source loses its payload.
  Record ba = MakeRecord<std::string>("gone");
  const Record bb = std::move(ba);
  EXPECT_EQ(Get<std::string>(bb), "gone");
  EXPECT_FALSE(ba.has_payload());  // NOLINT(bugprone-use-after-move) moved-from state is the contract under test
}

TEST(Record, GetChecksStorageClassNotJustPresence) {
  // Reading an inline-eligible type out of a boxed record (or vice versa)
  // is a producer/consumer type-contract violation and must throw rather
  // than reinterpret bytes.
  const Record boxed = MakeRecord<std::string>("text");
  EXPECT_THROW(Get<int>(boxed), std::logic_error);
  const Record inl = MakeRecord<int>(1);
  EXPECT_THROW(Get<std::string>(inl), std::logic_error);
}

// Non-trivially-copyable probe: counts live instances so payload lifetime
// across record copy/move/assign is observable.
struct LivenessProbe {
  static std::atomic<int> live;
  LivenessProbe() { ++live; }
  LivenessProbe(const LivenessProbe&) { ++live; }
  LivenessProbe& operator=(const LivenessProbe&) = default;
  ~LivenessProbe() { --live; }
};
std::atomic<int> LivenessProbe::live{0};
static_assert(!IsInlinePayload<LivenessProbe>);

TEST(Record, BoxedPayloadLifetimeAcrossCopyMoveAndAssign) {
  ASSERT_EQ(LivenessProbe::live.load(), 0);
  {
    Record a = MakeRecord<LivenessProbe>(LivenessProbe{});
    ASSERT_EQ(LivenessProbe::live.load(), 1);
    const Record b = a;  // aliases the box, no new payload instance
    EXPECT_EQ(LivenessProbe::live.load(), 1);
    Record c = std::move(a);
    EXPECT_FALSE(a.has_payload());  // NOLINT(bugprone-use-after-move) moved-from state is the contract under test
    EXPECT_TRUE(c.has_payload());
    c = MakeRecord<int>(5);  // replacing the boxed arm with inline releases c's ref
    EXPECT_TRUE(c.payload_inline());
    EXPECT_EQ(LivenessProbe::live.load(), 1);  // b still holds the box
  }
  EXPECT_EQ(LivenessProbe::live.load(), 0);  // nothing leaked, nothing double-freed
}

TEST(Record, LayoutStaysWithinBudget) {
  // Mirrors the static_asserts in record.h; a failure here means padding
  // creep taxed every queue chunk and batch buffer in the runtime.
  EXPECT_LE(sizeof(Record), 48u);
  EXPECT_EQ(alignof(Record), 8u);
}

// -------------------------------------------------------- single-lane queue
//
// Every non-fused task reads a FaninLanes with one SPSC lane per producer
// task; a 1-lane FaninLanes IS the single-producer ring (DESIGN.md §14).
// These pin the ring's contracts through the queue's only interface; the
// FaninLanes suite (fanin_test.cpp) covers the merged multi-lane cases.

using SingleLaneQueue = FaninLanes<int>;

// Pushes `items` to `lane` (the queue takes lvalue batches so it can hand
// back recycled capacity; tests mostly do not care).
bool Push(SingleLaneQueue& q, std::vector<int> items, std::size_t lane = 0) {
  return q.PushAll(lane, items);
}

TEST(SpscQueue, FifoOrderAcrossChunks) {
  SingleLaneQueue q(16, 1);
  ASSERT_TRUE(Push(q, {1, 2, 3}));
  ASSERT_TRUE(Push(q, {4, 5}));
  std::vector<int> out;
  // Takes the whole first chunk plus part of the second, preserving FIFO.
  EXPECT_EQ(q.PopBatchFor(4, nanoseconds(1000), out), 4u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.PopBatchFor(4, nanoseconds(1000), out), 1u);
  EXPECT_EQ(out, (std::vector<int>{5}));
  EXPECT_EQ(q.PopBatchFor(4, nanoseconds(1000), out), 0u);
}

TEST(SpscQueue, CursorsWrapAroundTheRingManyTimes) {
  // Capacity 4 -> 4 chunk slots; 100 push/pop cycles wrap the monotonic
  // cursors around the mask 25 times.
  SingleLaneQueue q(4, 1);
  std::vector<int> out;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(Push(q, {i}));
    ASSERT_EQ(q.PopBatchFor(4, nanoseconds(1000), out), 1u);
    EXPECT_EQ(out, (std::vector<int>{i}));
  }
  EXPECT_TRUE(q.Empty());
}

TEST(SpscQueue, SwapRecyclesCapacityThroughTheRingSlot) {
  // Capacity recycling without a free pool: the consumer's pop donates its
  // batch storage to the slot, and the producer's next push at that slot
  // takes it back.  Capacity 1 -> one slot, so the handoff is immediate.
  SingleLaneQueue q(1, 1);
  std::vector<int> out;
  out.reserve(64);
  std::vector<int> batch{1};
  ASSERT_TRUE(q.PushAll(0, batch));
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(q.PopBatchFor(4, nanoseconds(1000), out), 1u);  // slot <- out's 64
  batch = {2};
  ASSERT_TRUE(q.PushAll(0, batch));
  EXPECT_TRUE(batch.empty());
  EXPECT_GE(batch.capacity(), 64u);  // producer recharged from the slot
}

TEST(SpscQueue, CloseUnblocksAndDrains) {
  SingleLaneQueue q(4, 1);
  ASSERT_TRUE(Push(q, {1}));
  q.Close();
  EXPECT_TRUE(q.closed());
  std::vector<int> out;
  EXPECT_EQ(q.PopBatchFor(4, nanoseconds(1000), out), 1u);  // drains after close
  EXPECT_EQ(out, (std::vector<int>{1}));
  EXPECT_EQ(q.PopBatchFor(4, nanoseconds(1000), out), 0u);
  EXPECT_FALSE(Push(q, {2}));  // pushes rejected
}

TEST(SpscQueue, FullQueueBlocksProducerUntilConsumed) {
  SingleLaneQueue q(2, 1);
  ASSERT_TRUE(Push(q, {1, 2}));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    Push(q, {3});
    pushed.store(true);
  });
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(pushed.load());  // backpressure: producer is parked
  std::vector<int> out;
  EXPECT_EQ(q.PopBatchFor(4, nanoseconds(1'000'000), out), 2u);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.PopBatchFor(4, nanoseconds(1'000'000), out), 1u);
  EXPECT_EQ(out, (std::vector<int>{3}));
}

TEST(SpscQueue, OversizeBatchAdmittedWhenEmpty) {
  // The bound is checked before a push, so a batch larger than the whole
  // capacity still lands in an empty lane instead of deadlocking.
  SingleLaneQueue q(2, 1);
  ASSERT_TRUE(Push(q, {1, 2, 3, 4, 5}));
  EXPECT_EQ(q.size(), 5u);
}

TEST(SpscQueue, OversizeBatchAdmittedAfterDrain) {
  // An oversize batch arriving while the lane is NON-empty must park until
  // the lane drains, then be admitted -- the pop-side wake is what lets it
  // through.
  SingleLaneQueue q(2, 1);
  ASSERT_TRUE(Push(q, {1, 2}));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    Push(q, {3, 4, 5, 6, 7});
    pushed.store(true);
  });
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(pushed.load());  // waits: lane is occupied and batch > capacity
  std::vector<int> got, out;
  for (int i = 0; i < 100 && got.size() < 7; ++i) {
    q.PopBatchFor(4, nanoseconds(50'000'000), out);
    got.insert(got.end(), out.begin(), out.end());
  }
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(SpscQueue, OversizedChunkComesOutInPartialRuns) {
  // One chunk larger than the pop budget: the consumer's cursor stays on
  // the chunk across pops, preserving order with no loss.
  SingleLaneQueue q(16, 1);
  std::vector<int> big;
  for (int i = 0; i < 10; ++i) big.push_back(i);
  ASSERT_TRUE(Push(q, std::move(big)));
  std::vector<int> out, got;
  while (q.PopBatchFor(3, nanoseconds(1000), out) > 0) {
    EXPECT_LE(out.size(), 3u);
    got.insert(got.end(), out.begin(), out.end());
  }
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(SpscQueue, PushFrontComesOutBeforeRingItems) {
  // Recovery path: salvaged records re-admitted via the stash come out
  // ahead of queued chunks, even when the queue is full or closed.
  SingleLaneQueue q(2, 1);
  ASSERT_TRUE(Push(q, {5, 6}));
  q.Close();
  q.PushFront({1, 2, 3});
  EXPECT_EQ(q.size(), 5u);
  std::vector<int> out, got;
  while (q.PopBatchFor(8, nanoseconds(1000), out) > 0) {
    got.insert(got.end(), out.begin(), out.end());
  }
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 5, 6}));
}

TEST(SpscQueue, PushFrontReordersAheadOfAPartlyConsumedChunk) {
  // Salvage lands ahead of a chunk the consumer already started on, and
  // the chunk's remainder follows it without losing or repeating a record.
  SingleLaneQueue q(4, 1);
  ASSERT_TRUE(Push(q, {3, 4}));
  std::vector<int> out;
  ASSERT_EQ(q.PopBatchFor(1, nanoseconds(1000), out), 1u);  // consumed prefix
  EXPECT_EQ(out, (std::vector<int>{3}));
  q.PushFront({1, 2});
  std::vector<int> got;
  while (q.PopBatchFor(8, nanoseconds(1000), out) > 0) {
    got.insert(got.end(), out.begin(), out.end());
  }
  EXPECT_EQ(got, (std::vector<int>{1, 2, 4}));
}

TEST(SpscQueue, DrainAllTakesStashAndRingWithoutWaiting) {
  SingleLaneQueue q(8, 1);
  ASSERT_TRUE(Push(q, {3, 4}));
  ASSERT_TRUE(Push(q, {5}));
  q.PushFront({1, 2});
  EXPECT_EQ(q.DrainAll(), (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(q.Empty());
  EXPECT_TRUE(q.DrainAll().empty());
}

TEST(SpscQueue, DrainDetectorSeesNoInFlightItems) {
  // The stop-the-world drain invariant: mark_busy is raised BEFORE the pop
  // is published, so reading "queue empty, then flag false" proves every
  // pushed item was processed.
  SingleLaneQueue q(16, 1);
  std::atomic<bool> busy{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> processed{0};
  std::thread consumer([&] {
    std::vector<int> batch;
    while (!stop.load()) {
      const std::size_t n = q.PopBatchFor(8, nanoseconds(200'000), batch, &busy);
      if (n > 0) {
        processed.fetch_add(n);  // "process" before declaring idle
        busy.store(false);
      }
    }
  });
  std::uint64_t pushed = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<int> burst(1 + round % 13, round);
    pushed += burst.size();
    ASSERT_TRUE(Push(q, std::move(burst)));
    // Same protocol as LocalEngine::RebuildEpoch: three consecutive
    // observations of (queue empty, then task not busy) -- in that order.
    int stable = 0;
    while (stable < 3) {
      const bool empty = q.Empty();    // read queue state first...
      const bool idle = !busy.load();  // ...then the busy flag
      stable = (empty && idle) ? stable + 1 : 0;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ASSERT_EQ(processed.load(), pushed) << "round " << round;
  }
  stop.store(true);
  q.Close();
  consumer.join();
  EXPECT_EQ(processed.load(), pushed);
}

TEST(SpscQueue, ConcurrentStressKeepsOrderAndCount) {
  // Park/unpark stress across both cursors: a small capacity forces the
  // producer to park on full and the consumer to park on empty thousands of
  // times; under TSan this exercises the Dekker handshake from both sides.
  constexpr int kTotal = 20000;
  SingleLaneQueue q(32, 1);
  std::thread producer([&] {
    int next = 0;
    std::vector<int> batch;
    while (next < kTotal) {
      const int n = 1 + next % 7;
      for (int i = 0; i < n && next < kTotal; ++i) batch.push_back(next++);
      ASSERT_TRUE(q.PushAll(0, batch));
      EXPECT_TRUE(batch.empty());
    }
    q.Close();
  });
  std::vector<int> out;
  int expect = 0;
  while (true) {
    const std::size_t n = q.PopBatchFor(16, nanoseconds(500'000), out);
    if (n == 0) {
      if (q.closed() && q.Empty()) break;
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], expect) << "FIFO order violated";
      ++expect;
    }
  }
  producer.join();
  EXPECT_EQ(expect, kTotal);
}

// ------------------------------------------------------------ wake claim
//
// An idle consumer spins, then sleeps.  The push that finds it idle claims
// it (consumer_state() reads kAwake once that push returns) and, if it was
// asleep, wakes it.  LocalEngine's flush on idle polls this query, so a
// stale idle state would ship one record per poll.

TEST(SpscQueue, PushClaimsTheParkedConsumersWake) {
  // Idles a consumer on a 5 s pop, pushes one record once it is inside its
  // spin (a spin longer than the pop) or asleep past it, and checks the
  // push claimed it and the pop returned well before its timeout.
  for (const ConsumerState idle : {ConsumerState::kSpinning, ConsumerState::kAsleep}) {
    SCOPED_TRACE(idle == ConsumerState::kSpinning ? "spinning" : "asleep");
    SingleLaneQueue q(16, 1,
                      idle == ConsumerState::kSpinning ? nanoseconds(std::chrono::seconds(30))
                                                       : kConsumerSpin);
    EXPECT_EQ(q.consumer_state(), ConsumerState::kAwake);
    std::size_t popped = 0;
    std::chrono::steady_clock::duration waited{};
    std::thread consumer([&] {
      std::vector<int> out;
      const auto t0 = std::chrono::steady_clock::now();
      popped = q.PopBatchFor(16, std::chrono::seconds(5), out);
      waited = std::chrono::steady_clock::now() - t0;
    });
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (q.consumer_state() != idle && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    ASSERT_EQ(q.consumer_state(), idle) << "consumer never reached the idle phase";
    ASSERT_TRUE(Push(q, {1}));
    EXPECT_EQ(q.consumer_state(), ConsumerState::kAwake) << "the push left it unclaimed";
    consumer.join();
    EXPECT_EQ(popped, 1u);
    EXPECT_LT(waited, std::chrono::seconds(1));
  }
}

TEST(SpscQueue, WakeClaimStressWithOneRecordBatches) {
  // One-record pushes against a consumer that idles between them, with
  // gaps straddling its spin bound: none (races the wake-up), until it
  // spins, a busy wait of 0.5-1.5 spin bounds (either side of the spin ->
  // sleep edge), and until it sleeps.  A lost wake shows as a pop that
  // sleeps out its 2 s timeout; under TSan this grades the claim exchange
  // against the spin-to-sleep compare-exchange.
  constexpr int kTotal = 2000;
  SingleLaneQueue q(64, 1);
  int received = 0;
  int stalls = 0;
  std::thread consumer([&] {
    std::vector<int> out;
    for (;;) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::size_t n = q.PopBatchFor(64, std::chrono::seconds(2), out);
      if (n == 0) {
        if (q.closed() && q.Empty()) break;
        // An early empty return is benign; sleeping out most of the
        // timeout is a lost wake.
        if (std::chrono::steady_clock::now() - t0 >= std::chrono::seconds(1)) ++stalls;
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], received) << "FIFO order violated";
        ++received;
      }
    }
  });
  const auto wait_for = [&](ConsumerState state) {
    for (int spin = 0; spin < 10'000 && q.consumer_state() != state; ++spin) {
      std::this_thread::yield();
    }
  };
  std::vector<int> batch;
  for (int i = 0; i < kTotal; ++i) {
    switch (i % 4) {
      case 1:
        wait_for(ConsumerState::kSpinning);
        break;
      case 2: {
        const auto until =
            std::chrono::steady_clock::now() + kConsumerSpin * (50 + i % 101) / 100;
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
    batch.push_back(i);
    ASSERT_TRUE(q.PushAll(0, batch));
  }
  q.Close();
  consumer.join();
  EXPECT_EQ(received, kTotal);
  EXPECT_EQ(stalls, 0) << "a push left a parked consumer asleep";
}

// ---------------------------------------------------------------- fixtures

// Emits `total` int records (value = index) paced by `interval`.
class CountingSource final : public SourceFunction {
 public:
  CountingSource(int total, milliseconds interval, std::uint32_t outputs = 1)
      : total_(total), interval_(interval), outputs_(outputs) {}

  bool Produce(Collector& out) override {
    if (next_ >= total_) return false;
    for (std::uint32_t o = 0; o < outputs_; ++o) {
      out.Emit(MakeRecord<int>(next_, static_cast<std::uint64_t>(next_)), o);
    }
    ++next_;
    if (interval_.count() > 0) std::this_thread::sleep_for(interval_);
    return true;
  }

 private:
  int total_;
  milliseconds interval_;
  std::uint32_t outputs_;
  int next_ = 0;
};

// Multiplies int payloads by a factor.
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

// Collects int payloads (and the receiving subtask) into shared state.
struct SinkState {
  Mutex mutex;
  std::vector<int> values ESP_GUARDED_BY(mutex);
  std::vector<std::uint32_t> subtasks ESP_GUARDED_BY(mutex);
};

class CollectSink final : public Udf {
 public:
  CollectSink(SinkState* state, std::uint32_t subtask) : state_(state), subtask_(subtask) {}

  void OnRecord(const Record& r, Collector&) override {
    MutexLock lock(state_->mutex);
    state_->values.push_back(Get<int>(r));
    state_->subtasks.push_back(subtask_);
  }

 private:
  SinkState* state_;
  std::uint32_t subtask_;
};

JobGraph LinearGraph(std::uint32_t mid_p, std::uint32_t mid_max,
                     WiringPattern pattern = WiringPattern::kRoundRobin,
                     bool elastic = false) {
  JobGraph g;
  const auto src = g.AddVertex({.name = "Src", .parallelism = 1, .max_parallelism = 1});
  const auto mid = g.AddVertex({.name = "Mid",
                                .parallelism = mid_p,
                                .min_parallelism = 1,
                                .max_parallelism = mid_max,
                                .elastic = elastic});
  const auto snk = g.AddVertex({.name = "Snk", .parallelism = 1, .max_parallelism = 1});
  g.Connect(src, mid, pattern);
  g.Connect(mid, snk, pattern);
  return g;
}

// ----------------------------------------------------------------- engine

TEST(LocalEngine, EndToEndTransformsAllRecords) {
  SinkState state;
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kInstantFlush;
  LocalEngine engine(LinearGraph(2, 2), opts);
  engine.SetSource("Src",
                   [](std::uint32_t) { return std::make_unique<CountingSource>(200, milliseconds(0)); });
  engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(3); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  const EngineResult result = engine.Run(FromSeconds(20));

  EXPECT_EQ(result.records_emitted, 200u);
  EXPECT_EQ(result.records_delivered, 200u);
  ASSERT_EQ(state.values.size(), 200u);
  long long sum = 0;
  for (int v : state.values) sum += v;
  EXPECT_EQ(sum, 3LL * 199 * 200 / 2);  // 3 * sum(0..199)
  EXPECT_EQ(result.latency.count(), 200u);
}

TEST(LocalEngine, AdaptiveBatchingDeliversEverything) {
  SinkState state;
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kAdaptive;
  JobGraph g = LinearGraph(2, 2);
  const LatencyConstraint constraint{
      JobSequence::FromEdgeChain(g, {JobEdgeId{0}, JobEdgeId{1}}), FromMillis(50),
      FromSeconds(10), "c"};
  LocalEngine engine(std::move(g), opts);
  engine.SetSource("Src", [](std::uint32_t) {
    return std::make_unique<CountingSource>(300, milliseconds(1));
  });
  engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(1); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  engine.AddConstraint(constraint);
  const EngineResult result = engine.Run(FromSeconds(20));
  EXPECT_EQ(result.records_delivered, 300u);
  // Mean end-to-end latency respects the rough ballpark of the constraint.
  EXPECT_LT(result.latency.Quantile(0.5), 0.10);
}

TEST(LocalEngine, FixedBufferStillFlushesTailOnShutdown) {
  SinkState state;
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kFixedBuffer;
  opts.batch_capacity = 64;
  LocalEngine engine(LinearGraph(1, 1), opts);
  engine.SetSource("Src", [](std::uint32_t) {
    return std::make_unique<CountingSource>(100, milliseconds(0));  // < 2 batches
  });
  engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(1); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  const EngineResult result = engine.Run(FromSeconds(20));
  EXPECT_EQ(result.records_delivered, 100u);  // final force-flush delivered the tail
}

TEST(LocalEngine, KeyPartitioningRoutesConsistently) {
  SinkState state;
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kInstantFlush;
  LocalEngine engine(LinearGraph(4, 4, WiringPattern::kKeyPartitioned), opts);
  engine.SetSource("Src", [](std::uint32_t) {
    return std::make_unique<CountingSource>(400, milliseconds(0));
  });
  // Mid stamps its subtask id into the value so the sink can reconstruct
  // key -> subtask assignments.
  engine.SetUdf("Mid", [](std::uint32_t subtask) {
    class Stamp final : public Udf {
     public:
      explicit Stamp(std::uint32_t s) : s_(s) {}
      void OnRecord(const Record& r, Collector& out) override {
        out.Emit(MakeRecord<int>(static_cast<int>(r.key % 16) * 100 + static_cast<int>(s_),
                                 r.key));
      }
     private:
      std::uint32_t s_;
    };
    return std::make_unique<Stamp>(subtask);
  });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  const EngineResult result = engine.Run(FromSeconds(20));
  ASSERT_EQ(result.records_delivered, 400u);

  // Every (key mod 16) value must map to exactly one Mid subtask.
  std::map<int, std::set<int>> assignment;
  for (int v : state.values) assignment[v / 100].insert(v % 100);
  for (const auto& [bucket, subtasks] : assignment) {
    EXPECT_EQ(subtasks.size(), 1u) << "key bucket " << bucket;
  }
}

TEST(LocalEngine, BroadcastDuplicatesToAllConsumers) {
  SinkState state;
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kInstantFlush;
  JobGraph g;
  const auto src = g.AddVertex({.name = "Src", .parallelism = 1, .max_parallelism = 1});
  const auto mid = g.AddVertex({.name = "Mid", .parallelism = 3, .max_parallelism = 3});
  const auto snk = g.AddVertex({.name = "Snk", .parallelism = 1, .max_parallelism = 1});
  g.Connect(src, mid, WiringPattern::kBroadcast);
  g.Connect(mid, snk, WiringPattern::kRoundRobin);
  LocalEngine engine(std::move(g), opts);
  engine.SetSource("Src", [](std::uint32_t) {
    return std::make_unique<CountingSource>(50, milliseconds(0));
  });
  engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(1); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  const EngineResult result = engine.Run(FromSeconds(20));
  EXPECT_EQ(result.records_delivered, 150u);  // 50 records x 3 Mid consumers
}

TEST(LocalEngine, WindowedUdfEmitsOnTimer) {
  // Counts records per timer window and emits the count.
  class CountWindow final : public Udf {
   public:
    void OnRecord(const Record&, Collector&) override { ++count_; }
    SimDuration TimerPeriod() const override { return FromMillis(50); }
    void OnTimer(Collector& out) override {
      if (count_ > 0) {
        out.Emit(MakeRecord<int>(count_));
        count_ = 0;
      }
    }
    LatencyMode latency_mode() const override { return LatencyMode::kReadWrite; }
   private:
    int count_ = 0;
  };

  SinkState state;
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kInstantFlush;
  LocalEngine engine(LinearGraph(1, 1), opts);
  engine.SetSource("Src", [](std::uint32_t) {
    return std::make_unique<CountingSource>(150, milliseconds(1));
  });
  engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<CountWindow>(); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  const EngineResult result = engine.Run(FromSeconds(20));

  // All 150 records are accounted for across the window counts.
  long long total = 0;
  {
    MutexLock lock(state.mutex);
    for (int v : state.values) total += v;
  }
  EXPECT_EQ(total, 150);
  EXPECT_GT(state.values.size(), 1u);  // several windows fired
  (void)result;
}

TEST(LocalEngine, ElasticRescaleRaisesParallelism) {
  // One Mid task with a 2 ms busy loop cannot sustain ~2000 records at
  // 1 ms spacing; the scaler must resolve the bottleneck via stop-the-world
  // rescaling and all records must still arrive exactly once.
  SinkState state;
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kAdaptive;
  opts.measurement_interval = FromMillis(250);
  opts.adjustment_interval = FromMillis(1000);
  opts.scaler.enabled = true;
  JobGraph g = LinearGraph(1, 8, WiringPattern::kRoundRobin, /*elastic=*/true);
  const LatencyConstraint constraint{
      JobSequence::FromEdgeChain(g, {JobEdgeId{0}, JobEdgeId{1}}), FromMillis(40),
      FromSeconds(10), "c"};
  LocalEngine engine(std::move(g), opts);
  engine.SetSource("Src", [](std::uint32_t) {
    return std::make_unique<CountingSource>(4000, milliseconds(1));
  });
  engine.SetUdf("Mid",
                [](std::uint32_t) { return std::make_unique<ScaleUdf>(2, milliseconds(2)); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  engine.AddConstraint(constraint);
  const EngineResult result = engine.Run(FromSeconds(60));

  EXPECT_EQ(result.records_delivered, 4000u);
  EXPECT_GE(result.rescales, 1u);
  EXPECT_GT(result.final_parallelism.at("Mid"), 1u);
  // No duplicates or losses across the rescale boundary.
  long long sum = 0;
  for (int v : state.values) sum += v;
  EXPECT_EQ(sum, 2LL * 3999 * 4000 / 2);
}

TEST(LocalEngine, RescaleUnderBackpressureLosesNothing) {
  // A tiny queue capacity keeps the flow permanently backpressured while
  // the scaler rescales mid-stream: the drain protocol must still deliver
  // every record exactly once.
  SinkState state;
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kInstantFlush;
  opts.queue_capacity = 4;
  opts.measurement_interval = FromMillis(200);
  opts.adjustment_interval = FromMillis(800);
  opts.scaler.enabled = true;
  JobGraph g = LinearGraph(1, 4, WiringPattern::kRoundRobin, /*elastic=*/true);
  const LatencyConstraint constraint{
      JobSequence::FromEdgeChain(g, {JobEdgeId{0}, JobEdgeId{1}}), FromMillis(30),
      FromSeconds(10), "c"};
  LocalEngine engine(std::move(g), opts);
  engine.SetSource("Src", [](std::uint32_t) {
    return std::make_unique<CountingSource>(1500, milliseconds(0));  // full blast
  });
  engine.SetUdf("Mid",
                [](std::uint32_t) { return std::make_unique<ScaleUdf>(5, milliseconds(1)); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  engine.AddConstraint(constraint);
  const EngineResult result = engine.Run(FromSeconds(60));

  EXPECT_TRUE(result.clean()) << result.first_failure();
  EXPECT_EQ(result.records_delivered, 1500u);
  long long sum = 0;
  for (int v : state.values) sum += v;
  EXPECT_EQ(sum, 5LL * 1499 * 1500 / 2);  // exactly once, despite rescales
}

TEST(LocalEngine, EstimatedConstraintLatencyIsReported) {
  SinkState state;
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kAdaptive;
  opts.measurement_interval = FromMillis(200);
  opts.adjustment_interval = FromMillis(600);
  JobGraph g = LinearGraph(2, 2);
  const LatencyConstraint constraint{
      JobSequence::FromEdgeChain(g, {JobEdgeId{0}, JobEdgeId{1}}), FromMillis(50),
      FromSeconds(10), "c"};
  LocalEngine engine(std::move(g), opts);
  engine.SetSource("Src", [](std::uint32_t) {
    return std::make_unique<CountingSource>(2500, milliseconds(1));
  });
  engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(1); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  engine.AddConstraint(constraint);
  const EngineResult result = engine.Run(FromSeconds(30));

  ASSERT_GE(result.estimated_latency.size(), 2u);
  bool any_estimate = false;
  for (const auto& round : result.estimated_latency) {
    if (!round.empty() && round[0] >= 0) any_estimate = true;
  }
  EXPECT_TRUE(any_estimate);
}

TEST(LocalEngine, RunTwiceThrows) {
  SinkState state;
  LocalEngineOptions opts;
  LocalEngine engine(LinearGraph(1, 1), opts);
  engine.SetSource("Src", [](std::uint32_t) {
    return std::make_unique<CountingSource>(1, milliseconds(0));
  });
  engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(1); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  EXPECT_TRUE(engine.Run(FromSeconds(5)).clean());
  EXPECT_THROW(engine.Run(FromSeconds(1)), std::logic_error);
}

TEST(LocalEngine, UdfExceptionIsReportedNotFatal) {
  // A sink that emits has no output edge: the engine must surface the
  // error instead of crashing the process.  Under the default fail-fast
  // policy the run terminates promptly with the failure recorded.
  LocalEngineOptions opts;
  LocalEngine engine(LinearGraph(1, 1), opts);
  engine.SetSource("Src", [](std::uint32_t) {
    return std::make_unique<CountingSource>(5, milliseconds(0));
  });
  engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(1); });
  engine.SetUdf("Snk", [](std::uint32_t) { return std::make_unique<ScaleUdf>(1); });
  const EngineResult result = engine.Run(FromSeconds(5));
  ASSERT_FALSE(result.failures.empty());
  EXPECT_EQ(result.failures.front().vertex, "Snk");
  EXPECT_FALSE(result.failures.front().recovered);
  EXPECT_NE(result.first_failure().find("Snk"), std::string::npos);
  EXPECT_EQ(result.restarts, 0u);
}

// --------------------------------------------------------- fault injection

// Builds a Src -> Mid(x3) -> Snk job over `total` full-blast records with
// the given recovery policy and injector, collecting into `state`.
EngineResult RunFaultJob(int total, FailurePolicy policy, FaultInjector* injector,
                         SinkState* state, LocalEngineOptions opts = {}) {
  opts.shipping = ShippingStrategy::kInstantFlush;
  opts.recovery.policy = policy;
  opts.recovery.backoff_initial = FromMillis(5);
  opts.recovery.backoff_max = FromMillis(50);
  opts.fault_injector = injector;
  LocalEngine engine(LinearGraph(1, 1), opts);
  engine.SetSource("Src", [total](std::uint32_t) {
    return std::make_unique<CountingSource>(total, milliseconds(0));
  });
  engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(3); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(state, s); });
  return engine.Run(FromSeconds(60));
}

long long SumOfValues(SinkState& state) {
  MutexLock lock(state.mutex);
  long long sum = 0;
  for (int v : state.values) sum += v;
  return sum;
}

TEST(LocalEngineFaults, RestartTaskRecoversAndDeliversExactly) {
  // Injected throws fire BEFORE the UDF touches the record, so the failing
  // record is salvaged unprocessed and replay is exactly-once: the job must
  // deliver every record exactly once despite the mid-stream crash.
  constexpr int kTotal = 2000;
  SinkState state;
  FaultInjector injector(7);
  injector.ThrowAtRecord("Mid", 0, /*nth=*/500);
  const EngineResult result =
      RunFaultJob(kTotal, FailurePolicy::kRestartTask, &injector, &state);

  EXPECT_GE(result.restarts, 1u);
  EXPECT_GE(result.records_redelivered, 1u);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_EQ(result.failures.front().vertex, "Mid");
  EXPECT_TRUE(result.failures.front().recovered) << result.first_failure();
  EXPECT_EQ(result.records_delivered, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(SumOfValues(state), 3LL * kTotal * (kTotal - 1) / 2);
}

TEST(LocalEngineFaults, SinkRestartDoesNotDoubleCountDelivered) {
  // The failure strikes mid-batch in the SINK: metrics for the completed
  // prefix are banked once, the remainder is salvaged, and the replayed
  // records are counted on their second (successful) pass only.
  constexpr int kTotal = 1000;
  SinkState state;
  FaultInjector injector(7);
  injector.ThrowAtRecord("Snk", 0, /*nth=*/300);
  const EngineResult result =
      RunFaultJob(kTotal, FailurePolicy::kRestartTask, &injector, &state);

  EXPECT_GE(result.restarts, 1u);
  EXPECT_EQ(result.records_delivered, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(SumOfValues(state), 3LL * kTotal * (kTotal - 1) / 2);
}

TEST(LocalEngineFaults, RestartEpochRecovers) {
  constexpr int kTotal = 1500;
  SinkState state;
  FaultInjector injector(7);
  injector.ThrowAtRecord("Mid", 0, /*nth=*/400);
  const EngineResult result =
      RunFaultJob(kTotal, FailurePolicy::kRestartEpoch, &injector, &state);

  EXPECT_GE(result.restarts, 1u);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_TRUE(result.failures.front().recovered);
  EXPECT_EQ(result.records_delivered, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(SumOfValues(state), 3LL * kTotal * (kTotal - 1) / 2);
}

TEST(LocalEngineFaults, FailFastTerminatesTheRun) {
  // Under fail-fast the supervisor terminates the run at the first failure
  // instead of letting the job stall around the dead task.
  SinkState state;
  FaultInjector injector(7);
  injector.ThrowAtRecord("Mid", 0, /*nth=*/100);
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kInstantFlush;
  opts.recovery.policy = FailurePolicy::kFailFast;
  opts.fault_injector = &injector;
  LocalEngine engine(LinearGraph(1, 1), opts);
  engine.SetSource("Src", [](std::uint32_t) {
    // Slow source: without fail-fast the run would idle out the full
    // max_duration; termination well short of 5000 records proves the cut.
    return std::make_unique<CountingSource>(5000, milliseconds(1));
  });
  engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(3); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  const EngineResult result = engine.Run(FromSeconds(60));

  ASSERT_FALSE(result.failures.empty());
  EXPECT_EQ(result.failures.front().vertex, "Mid");
  EXPECT_FALSE(result.failures.front().recovered);
  EXPECT_EQ(result.restarts, 0u);
  EXPECT_LT(result.records_delivered, 5000u);
}

TEST(LocalEngineFaults, BudgetExhaustionFallsBackToFailFast) {
  // A deterministically poisoned record fails every replay: the supervisor
  // restarts up to the budget, then gives up and terminates the run.
  constexpr std::uint32_t kBudget = 3;
  SinkState state;
  FaultInjector injector(7);
  injector.ThrowAtRecord("Mid", 0, /*nth=*/50, /*times=*/1000);
  LocalEngineOptions opts;
  opts.recovery.max_restarts_per_task = kBudget;
  const EngineResult result =
      RunFaultJob(500, FailurePolicy::kRestartTask, &injector, &state, opts);

  EXPECT_EQ(result.restarts, kBudget);
  ASSERT_EQ(result.failures.size(), static_cast<std::size_t>(kBudget) + 1);
  for (std::size_t i = 0; i < kBudget; ++i) {
    EXPECT_TRUE(result.failures[i].recovered) << "failure " << i;
  }
  EXPECT_FALSE(result.failures.back().recovered);
  EXPECT_LT(result.records_delivered, 500u);
}

TEST(LocalEngineFaults, CrashDuringInFlightRescaleLosesNothing) {
  // The hardest interleaving: a backpressured elastic job rescaling
  // mid-stream while a Mid subtask dies.  Recovery and rescaling share the
  // pause/drain/rebuild machinery; every record must still arrive exactly
  // once.
  constexpr int kTotal = 1500;
  SinkState state;
  FaultInjector injector(7);
  injector.ThrowAtRecord("Mid", /*subtask=*/-1, /*nth=*/400);
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kInstantFlush;
  opts.queue_capacity = 4;
  opts.measurement_interval = FromMillis(200);
  opts.adjustment_interval = FromMillis(800);
  opts.scaler.enabled = true;
  opts.recovery.policy = FailurePolicy::kRestartTask;
  opts.recovery.backoff_initial = FromMillis(5);
  opts.fault_injector = &injector;
  JobGraph g = LinearGraph(1, 4, WiringPattern::kRoundRobin, /*elastic=*/true);
  const LatencyConstraint constraint{
      JobSequence::FromEdgeChain(g, {JobEdgeId{0}, JobEdgeId{1}}), FromMillis(30),
      FromSeconds(10), "c"};
  LocalEngine engine(std::move(g), opts);
  engine.SetSource("Src", [total = kTotal](std::uint32_t) {
    return std::make_unique<CountingSource>(total, milliseconds(0));
  });
  engine.SetUdf("Mid",
                [](std::uint32_t) { return std::make_unique<ScaleUdf>(5, milliseconds(1)); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  engine.AddConstraint(constraint);
  const EngineResult result = engine.Run(FromSeconds(60));

  EXPECT_GE(result.rescales, 1u);
  EXPECT_GE(result.restarts, 1u);
  EXPECT_EQ(result.records_delivered, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(SumOfValues(state), 5LL * kTotal * (kTotal - 1) / 2);
}

TEST(LocalEngineFaults, RandomThrowsAllRecoverUnderBudget) {
  // Seeded probabilistic injection: the exact failure count is a
  // deterministic function of the seed, and every failure must recover.
  constexpr int kTotal = 2000;
  SinkState state;
  FaultInjector injector(42);
  injector.ThrowWithProbability("Mid", 0, 0.002);
  LocalEngineOptions opts;
  opts.recovery.max_restarts_per_task = 50;
  const EngineResult result =
      RunFaultJob(kTotal, FailurePolicy::kRestartTask, &injector, &state, opts);

  for (const FailureEvent& ev : result.failures) {
    EXPECT_TRUE(ev.recovered) << ev.Format();
  }
  EXPECT_EQ(result.restarts, result.failures.size());
  EXPECT_EQ(result.records_delivered, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(SumOfValues(state), 3LL * kTotal * (kTotal - 1) / 2);
}

TEST(LocalEngineFaults, DelayedDeliveryOnlySlowsTheFlow) {
  constexpr int kTotal = 500;
  SinkState state;
  FaultInjector injector(7);
  injector.DelayDelivery("Snk", 0, FromMillis(20), /*batches=*/3);
  const EngineResult result =
      RunFaultJob(kTotal, FailurePolicy::kRestartTask, &injector, &state);

  EXPECT_TRUE(result.clean()) << result.first_failure();
  EXPECT_EQ(result.records_delivered, static_cast<std::uint64_t>(kTotal));
}

TEST(LocalEngineFaults, WedgedConsumerDoesNotHangShutdown) {
  // Mid[0] stops consuming from t=0; the queue fills, the source blocks,
  // and the run can only end via max_duration.  The bounded teardown must
  // bring the engine down cleanly (the injected wedge releases on
  // shutdown), with the undelivered remainder simply missing.
  SinkState state;
  FaultInjector injector(7);
  injector.Wedge("Mid", 0, /*from=*/0, /*duration=*/0);
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kInstantFlush;
  opts.queue_capacity = 16;
  opts.fault_injector = &injector;
  LocalEngine engine(LinearGraph(1, 1), opts);
  engine.SetSource("Src", [](std::uint32_t) {
    return std::make_unique<CountingSource>(100000, milliseconds(0));
  });
  engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(3); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  const auto t0 = std::chrono::steady_clock::now();
  const EngineResult result = engine.Run(FromMillis(400));
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 20);
  EXPECT_LT(result.records_delivered, 100000u);
}

TEST(LocalEngineFaults, StuckUdfSurfacesAsTeardownFailure) {
  // A UDF stuck in user code (NOT the cooperative wedge) cannot be joined;
  // the bounded teardown must report it as a failure instead of hanging Run.
  // The stuck loop spins on `release` so the abandoned thread returns and
  // the engine destructor (which joins it) completes.
  std::atomic<bool> release{false};
  class StuckUdf final : public Udf {
   public:
    explicit StuckUdf(std::atomic<bool>* r) : release_(r) {}
    void OnRecord(const Record&, Collector&) override {
      while (!release_->load()) std::this_thread::sleep_for(milliseconds(5));
    }

   private:
    std::atomic<bool>* release_;
  };

  {
    LocalEngineOptions opts;
    opts.shipping = ShippingStrategy::kInstantFlush;
    opts.recovery.teardown_timeout = FromMillis(200);
    LocalEngine engine(LinearGraph(1, 1), opts);
    engine.SetSource("Src", [](std::uint32_t) {
      return std::make_unique<CountingSource>(50, milliseconds(0));
    });
    engine.SetUdf("Mid", [&](std::uint32_t) { return std::make_unique<StuckUdf>(&release); });
    engine.SetUdf("Snk", [](std::uint32_t) { return std::make_unique<ScaleUdf>(1); });
    const EngineResult result = engine.Run(FromMillis(300));

    ASSERT_FALSE(result.failures.empty());
    EXPECT_EQ(result.failures.back().vertex, "Mid");
    EXPECT_NE(result.failures.back().what.find("teardown"), std::string::npos);

    // Unstick the abandoned thread; the engine destructor joins it.
    release.store(true);
  }
}

// ----------------------------------------------------------- task chaining

// Windowed SINK for the fused-member timer test: counts records per window
// and banks the count into shared state on each timer (no emission -- a
// sink has no output edge).
class WindowedCountSink final : public Udf {
 public:
  explicit WindowedCountSink(SinkState* state) : state_(state) {}
  void OnRecord(const Record&, Collector&) override { ++count_; }
  SimDuration TimerPeriod() const override { return FromMillis(50); }
  void OnTimer(Collector&) override {
    if (count_ == 0) return;
    MutexLock lock(state_->mutex);
    state_->values.push_back(count_);
    count_ = 0;
  }
  LatencyMode latency_mode() const override { return LatencyMode::kReadWrite; }

 private:
  SinkState* state_;
  int count_ = 0;
};

TEST(LocalEngineChaining, FusedPipelineDeliversExactlyOnce) {
  // Mid -> Snk fuses (equal parallelism 1); Src -> Mid cannot (a source
  // never heads a chain).  Delivery must be exactly-once through the fused
  // path, the chain must show up in the telemetry, and final_parallelism
  // must still name every ORIGINAL vertex -- fused members included.
  constexpr int kTotal = 500;
  SinkState state;
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kInstantFlush;
  LocalEngine engine(LinearGraph(1, 1), opts);
  engine.SetSource("Src", [total = kTotal](std::uint32_t) {
    return std::make_unique<CountingSource>(total, milliseconds(0));
  });
  engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(3); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  const EngineResult result = engine.Run(FromSeconds(30));

  EXPECT_TRUE(result.clean()) << result.first_failure();
  EXPECT_EQ(result.records_delivered, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(SumOfValues(state), 3LL * kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(result.chain_forms, 1u);
  EXPECT_EQ(result.chain_breaks, 0u);  // single epoch, never dissolved
  EXPECT_EQ(result.final_parallelism.at("Src"), 1u);
  EXPECT_EQ(result.final_parallelism.at("Mid"), 1u);
  EXPECT_EQ(result.final_parallelism.at("Snk"), 1u);
}

TEST(LocalEngineChaining, ChainingOffDeliversTheSameThroughRealQueues) {
  constexpr int kTotal = 500;
  SinkState state;
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kInstantFlush;
  opts.chaining = false;
  LocalEngine engine(LinearGraph(1, 1), opts);
  engine.SetSource("Src", [total = kTotal](std::uint32_t) {
    return std::make_unique<CountingSource>(total, milliseconds(0));
  });
  engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(3); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  const EngineResult result = engine.Run(FromSeconds(30));

  EXPECT_TRUE(result.clean()) << result.first_failure();
  EXPECT_EQ(result.records_delivered, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(SumOfValues(state), 3LL * kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(result.chain_forms, 0u);
  EXPECT_EQ(result.chain_breaks, 0u);
}

TEST(LocalEngineChaining, SpscBackpressuredPipelineDeliversExactly) {
  // Chaining off keeps both hops as queues: every edge here has exactly
  // one producer task, so both ride a single-lane (SPSC) queue.  A tiny
  // capacity keeps the flow backpressured, stressing park/unpark.
  constexpr int kTotal = 2000;
  SinkState state;
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kInstantFlush;
  opts.chaining = false;
  opts.queue_capacity = 8;
  LocalEngine engine(LinearGraph(1, 1), opts);
  engine.SetSource("Src", [total = kTotal](std::uint32_t) {
    return std::make_unique<CountingSource>(total, milliseconds(0));
  });
  engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(3); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  const EngineResult result = engine.Run(FromSeconds(30));

  EXPECT_TRUE(result.clean()) << result.first_failure();
  EXPECT_EQ(result.records_delivered, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(SumOfValues(state), 3LL * kTotal * (kTotal - 1) / 2);
}

TEST(LocalEngineChaining, FusedMemberTimerStillFires) {
  // A windowed UDF in the fused position: its timer has no thread of its
  // own, so the chain head must drive it between batches.
  SinkState state;
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kInstantFlush;
  LocalEngine engine(LinearGraph(1, 1), opts);
  engine.SetSource("Src", [](std::uint32_t) {
    return std::make_unique<CountingSource>(150, milliseconds(1));
  });
  engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(1); });
  engine.SetUdf("Snk",
                [&](std::uint32_t) { return std::make_unique<WindowedCountSink>(&state); });
  const EngineResult result = engine.Run(FromSeconds(20));

  EXPECT_GE(result.chain_forms, 1u);
  long long total = 0;
  std::size_t windows = 0;
  {
    MutexLock lock(state.mutex);
    for (int v : state.values) total += v;
    windows = state.values.size();
  }
  EXPECT_EQ(total, 150);  // every record counted in some window
  EXPECT_GT(windows, 1u);  // the member timer fired repeatedly mid-stream
}

TEST(LocalEngineChaining, RescaleBreaksTheChainDynamically) {
  // Chains are epoch-scoped: the run starts with Mid -> Snk fused (both
  // p=1); the scaler then raises Mid's parallelism, which must dissolve the
  // chain (unequal parallelism) without losing a record.
  constexpr int kTotal = 1500;
  SinkState state;
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kInstantFlush;
  opts.queue_capacity = 4;
  opts.measurement_interval = FromMillis(200);
  opts.adjustment_interval = FromMillis(800);
  opts.scaler.enabled = true;
  JobGraph g = LinearGraph(1, 4, WiringPattern::kRoundRobin, /*elastic=*/true);
  const LatencyConstraint constraint{
      JobSequence::FromEdgeChain(g, {JobEdgeId{0}, JobEdgeId{1}}), FromMillis(30),
      FromSeconds(10), "c"};
  LocalEngine engine(std::move(g), opts);
  engine.SetSource("Src", [total = kTotal](std::uint32_t) {
    return std::make_unique<CountingSource>(total, milliseconds(0));
  });
  engine.SetUdf("Mid",
                [](std::uint32_t) { return std::make_unique<ScaleUdf>(5, milliseconds(1)); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  engine.AddConstraint(constraint);
  const EngineResult result = engine.Run(FromSeconds(60));

  EXPECT_GE(result.rescales, 1u);
  EXPECT_GE(result.chain_forms, 1u);   // the first epoch fused Mid -> Snk
  EXPECT_GE(result.chain_breaks, 1u);  // the rescale rebuild dissolved it
  EXPECT_EQ(result.records_delivered, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(SumOfValues(state), 5LL * kTotal * (kTotal - 1) / 2);
}

TEST(LocalEngineChaining, FaultInFusedMemberNamesTheMemberVertex) {
  // The throw happens inside the fused Snk UDF on Mid's thread: the failure
  // event must name Snk (the ORIGINAL vertex), recovery must restart the
  // carrier task, and replay must stay exactly-once.
  constexpr int kTotal = 1000;
  SinkState state;
  FaultInjector injector(7);
  injector.ThrowAtRecord("Snk", 0, /*nth=*/300);
  const EngineResult result =
      RunFaultJob(kTotal, FailurePolicy::kRestartTask, &injector, &state);

  EXPECT_GE(result.chain_forms, 1u);
  EXPECT_GE(result.restarts, 1u);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_EQ(result.failures.front().vertex, "Snk");
  EXPECT_TRUE(result.failures.front().recovered) << result.first_failure();
  EXPECT_EQ(result.records_delivered, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(SumOfValues(state), 3LL * kTotal * (kTotal - 1) / 2);
}

TEST(LocalEngineChaining, FaultInFusedMemberEpochRestartReformsTheChain) {
  // kRestartEpoch tears the whole epoch down and rebuilds it: the chain
  // dissolves with the epoch (one break) and re-forms in the new one (a
  // second form), and the salvaged backlog still arrives exactly once.
  constexpr int kTotal = 1000;
  SinkState state;
  FaultInjector injector(7);
  injector.ThrowAtRecord("Snk", 0, /*nth=*/300);
  const EngineResult result =
      RunFaultJob(kTotal, FailurePolicy::kRestartEpoch, &injector, &state);

  EXPECT_GE(result.restarts, 1u);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_EQ(result.failures.front().vertex, "Snk");
  EXPECT_TRUE(result.failures.front().recovered) << result.first_failure();
  EXPECT_EQ(result.chain_forms, 2u);
  EXPECT_EQ(result.chain_breaks, 1u);
  EXPECT_EQ(result.records_delivered, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(SumOfValues(state), 3LL * kTotal * (kTotal - 1) / 2);
}

TEST(LocalEngineChaining, FaultInFusedMemberFailFastTerminates) {
  constexpr int kTotal = 5000;
  SinkState state;
  FaultInjector injector(7);
  injector.ThrowAtRecord("Snk", 0, /*nth=*/100);
  const EngineResult result =
      RunFaultJob(kTotal, FailurePolicy::kFailFast, &injector, &state);

  ASSERT_FALSE(result.failures.empty());
  EXPECT_EQ(result.failures.front().vertex, "Snk");
  EXPECT_FALSE(result.failures.front().recovered);
  EXPECT_EQ(result.restarts, 0u);
  EXPECT_LT(result.records_delivered, static_cast<std::uint64_t>(kTotal));
}

// ------------------------------------------------------ end-to-end latency

TEST(LocalEngine, LatencyRunsFromTheSourceThroughRebuiltRecords) {
  // Src bursts kTotal records into a Mid that takes 3 ms per record and
  // emits a freshly built record, so record k waits about k * 3 ms in Mid's
  // queue.  The rebuilt record inherits its input's source stamp: every
  // latency covers Mid's 3 ms (fused sink included), and the queue wait
  // ahead of Mid counts too.
  constexpr int kTotal = 20;
  for (const bool chaining : {false, true}) {
    SCOPED_TRACE(chaining ? "chaining on" : "chaining off");
    SinkState state;
    LocalEngineOptions opts;
    opts.chaining = chaining;
    LocalEngine engine(LinearGraph(1, 1), opts);
    engine.SetSource("Src", [total = kTotal](std::uint32_t) {
      return std::make_unique<CountingSource>(total, milliseconds(0));
    });
    engine.SetUdf("Mid", [](std::uint32_t) {
      return std::make_unique<ScaleUdf>(1, milliseconds(3));
    });
    engine.SetUdf("Snk",
                  [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
    const EngineResult result = engine.Run(FromSeconds(30));

    ASSERT_TRUE(result.clean()) << result.first_failure();
    EXPECT_EQ(result.chain_forms, chaining ? 1u : 0u);
    ASSERT_EQ(result.latency.count(), static_cast<std::uint64_t>(kTotal));
    // Quantile(0) reports a 5 %-wide bucket's lower edge: 2 ms under 3.
    EXPECT_GE(result.latency.Quantile(0.0), 2e-3);
    // The last record queued behind ~19 others before Mid saw it.
    EXPECT_GE(result.latency.Quantile(1.0), 10 * 3e-3);
  }
}

// ----------------------------------------------------------- flush on idle
//
// With no constraint an adaptive edge's flush deadline is
// batching.min_deadline; at 10 s it cannot ship a lone record in time, so
// only the flush-on-idle rule (ship a non-empty buffer whose consumer is
// parked) delivers it before the source gives up and ends the stream.

// Emits one record, then idles until `expect` records reached the sink or
// `give_up` passed, and ends the stream.  `arrived_before_end` reports
// whether the sink had everything before the source ended.
class OneRecordThenIdleSource final : public SourceFunction {
 public:
  OneRecordThenIdleSource(const std::atomic<int>* arrived, int expect,
                          milliseconds give_up, std::atomic<bool>* arrived_before_end)
      : arrived_(arrived),
        expect_(expect),
        give_up_(give_up),
        arrived_before_end_(arrived_before_end) {}

  bool Produce(Collector& out) override {
    if (!emitted_) {
      emitted_ = true;
      start_ = std::chrono::steady_clock::now();
      out.Emit(MakeRecord<int>(1));
      return true;
    }
    if (arrived_->load() >= expect_) {
      arrived_before_end_->store(true);
      return false;
    }
    if (std::chrono::steady_clock::now() - start_ >= give_up_) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return true;
  }

 private:
  const std::atomic<int>* arrived_;
  int expect_;
  milliseconds give_up_;
  std::atomic<bool>* arrived_before_end_;
  bool emitted_ = false;
  std::chrono::steady_clock::time_point start_{};
};

class CountArrivals final : public Udf {
 public:
  explicit CountArrivals(std::atomic<int>* arrived) : arrived_(arrived) {}
  void OnRecord(const Record&, Collector&) override { arrived_->fetch_add(1); }

 private:
  std::atomic<int>* arrived_;
};

class Forward final : public Udf {
 public:
  void OnRecord(const Record& r, Collector& out) override { out.Emit(r); }
};

struct IdleRun {
  EngineResult result;
  bool arrived_before_end = false;
};

// Runs `g` (source "Src", sink "Snk", optional pass-through "A") with one
// record per source subtask and a 10 s flush deadline.
IdleRun RunOneRecordPerSource(JobGraph g, LocalEngineOptions opts, int sources,
                              milliseconds give_up) {
  opts.batching.min_deadline = FromSeconds(10);
  std::atomic<int> arrived{0};
  std::atomic<bool> arrived_before_end{false};
  const bool has_mid = g.VertexIds().size() == 3;
  LocalEngine engine(std::move(g), opts);
  engine.SetSource("Src", [&](std::uint32_t) {
    return std::make_unique<OneRecordThenIdleSource>(&arrived, sources, give_up,
                                                     &arrived_before_end);
  });
  if (has_mid) engine.SetUdf("A", [](std::uint32_t) { return std::make_unique<Forward>(); });
  engine.SetUdf("Snk", [&](std::uint32_t) { return std::make_unique<CountArrivals>(&arrived); });
  IdleRun run;
  run.result = engine.Run(FromSeconds(30));
  run.arrived_before_end = arrived_before_end.load();
  return run;
}

JobGraph SourceToSink(std::uint32_t sources) {
  JobGraph g;
  const auto src = g.AddVertex(
      {.name = "Src", .parallelism = sources, .max_parallelism = sources});
  const auto snk = g.AddVertex({.name = "Snk", .parallelism = 1, .max_parallelism = 1});
  g.Connect(src, snk, WiringPattern::kRoundRobin);
  return g;
}

void ExpectExactAccounting(const EngineResult& result, std::uint64_t records) {
  EXPECT_TRUE(result.clean()) << result.first_failure();
  EXPECT_EQ(result.records_emitted, records);
  EXPECT_EQ(result.records_delivered, records);
  EXPECT_EQ(result.records_shed, 0u);
  EXPECT_EQ(result.records_redelivered, 0u);
}

// Every record reached the sink while its source still ran, and well inside
// a second of its emission -- not after a 10 s deadline or the source's
// 2 s give-up.
void ExpectShippedOnIdle(const IdleRun& run, std::uint64_t records) {
  ExpectExactAccounting(run.result, records);
  EXPECT_TRUE(run.arrived_before_end);
  ASSERT_EQ(run.result.latency.count(), records);
  EXPECT_LT(run.result.latency.Quantile(1.0), 1.0);
}

TEST(LocalEngineIdleFlush, ShipsALoneRecordOverSpsc) {
  LocalEngineOptions opts;
  opts.chaining = false;
  const IdleRun run = RunOneRecordPerSource(SourceToSink(1), opts, 1, milliseconds(2000));
  ExpectShippedOnIdle(run, 1);
}

TEST(LocalEngineIdleFlush, ShipsLoneRecordsOverFaninLanes) {
  LocalEngineOptions opts;
  const IdleRun run = RunOneRecordPerSource(SourceToSink(2), opts, 2, milliseconds(2000));
  ExpectShippedOnIdle(run, 2);
}

TEST(LocalEngineIdleFlush, TaskSideTriggerShipsThroughAnUnchainedHop) {
  // Src -> A -> Snk with chaining off: the A -> Snk buffer is filled by A's
  // task loop, so only the check after each popped batch can ship it.
  JobGraph g;
  const auto src = g.AddVertex({.name = "Src", .parallelism = 1, .max_parallelism = 1});
  const auto a = g.AddVertex({.name = "A", .parallelism = 1, .max_parallelism = 1});
  const auto snk = g.AddVertex({.name = "Snk", .parallelism = 1, .max_parallelism = 1});
  g.Connect(src, a, WiringPattern::kPointwise);
  g.Connect(a, snk, WiringPattern::kPointwise);
  LocalEngineOptions opts;
  opts.chaining = false;
  const IdleRun run = RunOneRecordPerSource(std::move(g), opts, 1, milliseconds(2000));
  ExpectShippedOnIdle(run, 1);
}

TEST(LocalEngineIdleFlush, FixedBufferHoldsTheRecordUntilEndOfStream) {
  // kFixedBuffer keeps its paper meaning: a partial buffer waits for the
  // batch to fill or for end of stream, however idle its consumer is.
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kFixedBuffer;
  opts.chaining = false;
  const IdleRun run = RunOneRecordPerSource(SourceToSink(1), opts, 1, milliseconds(300));
  ExpectExactAccounting(run.result, 1);
  EXPECT_FALSE(run.arrived_before_end);
  ASSERT_EQ(run.result.latency.count(), 1u);
  EXPECT_GE(run.result.latency.Quantile(1.0), 0.25);
}

// ---------------------------------------------------- allocation regression

// These tests assert the tentpole property of the zero-allocation record
// path; they need the counting allocator (cmake -DESP_COUNT_ALLOCS=ON, as
// the CI perf-smoke job builds) and skip themselves elsewhere.

TEST(AllocCounting, CounterObservesBoxedAllocations) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "build with -DESP_COUNT_ALLOCS=ON";
  const std::uint64_t before = TotalAllocs();
  const Record boxed = MakeRecord<std::string>(std::string(64, 'x'));
  EXPECT_GT(TotalAllocs(), before);  // boxing went through operator new
  const std::uint64_t mid = TotalAllocs();
  const Record inl = MakeRecord<int>(1);
  EXPECT_EQ(TotalAllocs(), mid);  // inline payload did not
  EXPECT_FALSE(boxed.payload_inline());
  EXPECT_TRUE(inl.payload_inline());
}

TEST(AllocCounting, WarmedRecordQueueCycleIsAllocationFree) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "build with -DESP_COUNT_ALLOCS=ON";
  // Single-threaded steady-state loop over the full hand-off cycle:
  // MakeRecord -> producer batch -> PushAll -> PopBatchFor, on the one
  // input queue with 1 lane (the single-producer ring) and 2 lanes.  The
  // ring recycles capacity per SLOT (a pop leaves its old storage in the
  // slot, the next push there takes it back), so warm-up must visit every
  // slot of every lane: a small capacity keeps the ring short, and the
  // warm-up runs twice round it.  After that the loop must perform EXACTLY
  // zero heap allocations.
  constexpr std::size_t kCapacity = 128;
  constexpr std::size_t kBatch = 64;
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(lanes == 1 ? "1 lane" : "2 lanes");
    FaninLanes<Record> q(kCapacity, lanes);
    std::vector<Record> batch;
    std::vector<Record> out;
    std::size_t lane = 0;
    const auto cycle = [&] {
      for (std::size_t i = 0; i < kBatch; ++i) {
        batch.push_back(MakeRecord<std::uint64_t>(i, /*key=*/i));
      }
      if (!q.PushAll(lane, batch)) return;
      lane = (lane + 1) % lanes;
      std::size_t got = 0;
      while (got < kBatch) {
        got += q.PopBatchFor(kBatch, nanoseconds(1'000'000), out);
      }
    };
    // Each lane's ring has at most kCapacity slots.
    for (std::size_t warm = 0; warm < 2 * kCapacity * lanes; ++warm) cycle();
    const std::uint64_t before = TotalAllocs();
    for (int rounds = 0; rounds < 200; ++rounds) cycle();
    EXPECT_EQ(TotalAllocs() - before, 0u)
        << "steady-state record hand-off touched the heap";
  }
}

TEST(AllocCounting, EngineMarginalAllocsPerRecordNearZero) {
  if (!AllocCountingEnabled()) GTEST_SKIP() << "build with -DESP_COUNT_ALLOCS=ON";
  // Whole-engine runs legitimately allocate on cold start (threads, tasks,
  // control ticks), so the per-record claim is asserted as a MARGINAL cost:
  // growing the record count must not grow allocations proportionally.
  const auto run = [](int records) {
    LocalEngineOptions opts;
    opts.shipping = ShippingStrategy::kFixedBuffer;
    SinkState state;
    LocalEngine engine(LinearGraph(1, 1), opts);
    engine.SetSource("Src", [records](std::uint32_t) {
      return std::make_unique<CountingSource>(records, milliseconds(0));
    });
    engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(2); });
    engine.SetUdf("Snk",
                  [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
    const std::uint64_t before = TotalAllocs();
    const EngineResult result = engine.Run(FromSeconds(30));
    EXPECT_EQ(result.records_delivered, static_cast<std::uint64_t>(records));
    return TotalAllocs() - before;
  };
  const std::uint64_t small = run(20'000);
  const std::uint64_t large = run(80'000);
  const double marginal =
      (static_cast<double>(large) - static_cast<double>(small)) / 60'000.0;
  EXPECT_LT(marginal, 0.05) << "small-run allocs=" << small
                            << " large-run allocs=" << large;
}

// ---------------------------------------------------------- overload guard

// Full blast for `burst` records, then `tail` records paced at
// `tail_interval`: saturates the job, then leaves the guard room to recover
// while records still flow.
class BurstThenTrickleSource final : public SourceFunction {
 public:
  BurstThenTrickleSource(int burst, int tail, milliseconds tail_interval)
      : burst_(burst), tail_(tail), tail_interval_(tail_interval) {}

  bool Produce(Collector& out) override {
    if (next_ >= burst_ + tail_) return false;
    out.Emit(MakeRecord<int>(next_, static_cast<std::uint64_t>(next_)));
    if (next_ >= burst_) std::this_thread::sleep_for(tail_interval_);
    ++next_;
    return true;
  }

 private:
  int burst_;
  int tail_;
  milliseconds tail_interval_;
  int next_ = 0;
};

TEST(LocalEngineOverload, ShedsUnderSaturationAndRecoversWithExactAccounting) {
  // Offered load is far over the Mid service rate while the burst lasts and
  // the scaler has no headroom (nothing elastic): the guard must shed at
  // source admission, account every dropped record, and disengage once the
  // trickle tail lets the estimate re-enter the constraint.
  SinkState state;
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kInstantFlush;
  opts.queue_capacity = 64;
  opts.measurement_interval = FromMillis(50);
  opts.adjustment_interval = FromMillis(100);
  opts.overload.enabled = true;
  opts.overload.wedge_deadline = FromSeconds(30);  // watchdog out of the way
  JobGraph g = LinearGraph(1, 1);
  const LatencyConstraint constraint{
      JobSequence::FromEdgeChain(g, {JobEdgeId{0}, JobEdgeId{1}}), FromMillis(20),
      FromSeconds(10), "lat"};
  LocalEngine engine(std::move(g), opts);
  engine.SetSource("Src", [](std::uint32_t) {
    return std::make_unique<BurstThenTrickleSource>(2000, 200, milliseconds(10));
  });
  engine.SetUdf("Mid", [](std::uint32_t) {
    return std::make_unique<ScaleUdf>(3, milliseconds(1));
  });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  engine.AddConstraint(constraint);
  const EngineResult result = engine.Run(FromSeconds(60));

  // Shedding engaged and was accounted exactly: every emitted record was
  // delivered or shed, nothing twice (no failures -> no redelivery slack).
  EXPECT_GT(result.records_shed, 0u);
  EXPECT_GE(result.shed_windows, 1u);
  EXPECT_EQ(result.records_redelivered, 0u);
  EXPECT_EQ(result.records_emitted,
            result.records_delivered + result.records_shed);
  {
    MutexLock lock(state.mutex);
    EXPECT_EQ(state.values.size(), result.records_delivered);
  }
  std::uint64_t by_vertex = 0;
  for (const auto& [vertex, n] : result.shed_by_vertex) by_vertex += n;
  EXPECT_EQ(by_vertex, result.records_shed);
  EXPECT_EQ(result.shed_by_vertex.count("Src"), 1u);  // admission shedding

  // The ladder transitions are pinned as events: shedding engaged
  // (kShedEnter) and later disengaged (kShedExit), with the enter marked
  // recovered once the exit happened.
  bool entered = false;
  bool exited = false;
  for (const FailureEvent& ev : result.failures) {
    if (ev.action == FailureAction::kShedEnter) entered = true;
    if (ev.action == FailureAction::kShedExit) {
      exited = true;
      EXPECT_TRUE(ev.recovered);
    }
  }
  EXPECT_TRUE(entered);
  EXPECT_TRUE(exited) << "shedding never disengaged during the trickle tail";
}

TEST(LocalEngineOverload, WatchdogQuarantinesWedgedChainHeadAllPolicies) {
  // The wedge x SPSC regression: Src feeds the fused Mid+Snk chain head over
  // a small ring; Mid wedges at t=0, the ring fills, and the source parks on
  // the full ring.  Under every recovery policy the watchdog must detect the
  // wedge within the deadline and wake the parked producer -- no deadlock,
  // bounded wall clock, the run never idles out its full max_duration.
  for (const FailurePolicy policy :
       {FailurePolicy::kFailFast, FailurePolicy::kRestartTask,
        FailurePolicy::kRestartEpoch}) {
    SCOPED_TRACE(static_cast<int>(policy));
    SinkState state;
    FaultInjector injector(7);
    injector.Wedge("Mid", 0, /*from=*/0, /*duration=*/0);  // until shutdown
    LocalEngineOptions opts;
    opts.shipping = ShippingStrategy::kInstantFlush;
    opts.queue_capacity = 16;
    opts.fault_injector = &injector;
    opts.recovery.policy = policy;
    opts.recovery.max_restarts_per_task = 2;
    opts.recovery.backoff_initial = FromMillis(5);
    opts.recovery.backoff_max = FromMillis(20);
    opts.overload.enabled = true;
    opts.overload.wedge_deadline = FromMillis(150);
    LocalEngine engine(LinearGraph(1, 1), opts);
    engine.SetSource("Src", [](std::uint32_t) {
      return std::make_unique<CountingSource>(100000, milliseconds(0));
    });
    engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(3); });
    engine.SetUdf("Snk",
                  [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
    const auto t0 = std::chrono::steady_clock::now();
    const EngineResult result = engine.Run(FromSeconds(30));
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    EXPECT_LT(elapsed_s, 20.0);
    ASSERT_FALSE(result.failures.empty());
    const FailureEvent& first = result.failures.front();
    EXPECT_EQ(first.vertex, "Mid");
    EXPECT_EQ(first.action, FailureAction::kQuarantine);
    // Bounded detection: the event is stamped within deadline + slack, far
    // inside the 30 s max_duration.
    EXPECT_LE(first.time, FromSeconds(10));
    if (policy == FailurePolicy::kFailFast) {
      EXPECT_EQ(result.quarantines, 0u);
      EXPECT_EQ(result.restarts, 0u);
      EXPECT_FALSE(first.recovered);
    } else {
      // Replacements re-resolve the wedge binding and wedge again, so the
      // budget (2) bounds the cycle: two isolations (each rebuilt, hence
      // recovered) plus the final budget-exhausted report.
      EXPECT_EQ(result.quarantines, 2u);
      EXPECT_TRUE(first.recovered) << first.Format();
      EXPECT_FALSE(result.failures.back().recovered);
      std::uint32_t quarantine_events = 0;
      for (const FailureEvent& ev : result.failures) {
        if (ev.action == FailureAction::kQuarantine) ++quarantine_events;
      }
      EXPECT_EQ(quarantine_events, 3u);
    }
  }
}

TEST(LocalEngineOverload, QuarantineAccountsStrandedRecordsExactly) {
  // A finite wedge window [0, 600 ms): the watchdog isolates the wedged
  // chain head (possibly several times -- replacements re-wedge while the
  // window is open), the stranded backlog is counted as shed against the
  // wedged vertex, and once the window closes the job drains.  No salvage is
  // taken from a quarantined task, so the accounting is exact:
  // emitted == delivered + shed with zero redelivery.
  constexpr int kTotal = 3000;
  SinkState state;
  FaultInjector injector(7);
  injector.Wedge("Mid", 0, /*from=*/0, /*duration=*/FromMillis(600));
  LocalEngineOptions opts;
  opts.shipping = ShippingStrategy::kInstantFlush;
  opts.queue_capacity = 16;
  opts.fault_injector = &injector;
  opts.recovery.policy = FailurePolicy::kRestartTask;
  opts.recovery.max_restarts_per_task = 20;
  opts.recovery.backoff_initial = FromMillis(5);
  opts.recovery.backoff_max = FromMillis(20);
  opts.overload.enabled = true;
  opts.overload.wedge_deadline = FromMillis(100);
  LocalEngine engine(LinearGraph(1, 1), opts);
  engine.SetSource("Src", [total = kTotal](std::uint32_t) {
    return std::make_unique<CountingSource>(total, milliseconds(0));
  });
  engine.SetUdf("Mid", [](std::uint32_t) { return std::make_unique<ScaleUdf>(3); });
  engine.SetUdf("Snk",
                [&](std::uint32_t s) { return std::make_unique<CollectSink>(&state, s); });
  const EngineResult result = engine.Run(FromSeconds(60));

  EXPECT_GE(result.quarantines, 1u);
  EXPECT_EQ(result.records_redelivered, 0u);
  EXPECT_GT(result.records_shed, 0u);
  EXPECT_EQ(result.records_emitted, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(result.records_emitted,
            result.records_delivered + result.records_shed);
  // The drops are attributed to the wedged vertex (no admission shedding
  // here: the job has no constraint, only the watchdog is active).
  EXPECT_GT(result.shed_by_vertex.at("Mid"), 0u);
  {
    MutexLock lock(state.mutex);
    EXPECT_EQ(state.values.size(), result.records_delivered);
  }
  for (const FailureEvent& ev : result.failures) {
    EXPECT_EQ(ev.action, FailureAction::kQuarantine);
    EXPECT_TRUE(ev.recovered) << ev.Format();
  }
}

TEST(LocalEngineFaults, FailureEventActionPinsSupervisorSemantics) {
  // Both restart paths (in-place task restart and epoch rebuild) stamp
  // kRestart + recovered on the event they resolve; a fail-fast report
  // carries no action and stays unrecovered.
  for (const FailurePolicy policy :
       {FailurePolicy::kRestartTask, FailurePolicy::kRestartEpoch}) {
    SCOPED_TRACE(static_cast<int>(policy));
    SinkState state;
    FaultInjector injector(7);
    injector.ThrowAtRecord("Mid", 0, /*nth=*/200);
    const EngineResult result = RunFaultJob(800, policy, &injector, &state);
    ASSERT_FALSE(result.failures.empty());
    EXPECT_EQ(result.failures.front().action, FailureAction::kRestart);
    EXPECT_TRUE(result.failures.front().recovered) << result.first_failure();
  }
  {
    SinkState state;
    FaultInjector injector(7);
    injector.ThrowAtRecord("Mid", 0, /*nth=*/200);
    const EngineResult result =
        RunFaultJob(800, FailurePolicy::kFailFast, &injector, &state);
    ASSERT_FALSE(result.failures.empty());
    EXPECT_EQ(result.failures.front().action, FailureAction::kNone);
    EXPECT_FALSE(result.failures.front().recovered);
  }
  EXPECT_STREQ(ToString(FailureAction::kRestart), "restart");
  EXPECT_STREQ(ToString(FailureAction::kQuarantine), "quarantine");
  EXPECT_STREQ(ToString(FailureAction::kShedEnter), "shed-enter");
  EXPECT_STREQ(ToString(FailureAction::kShedExit), "shed-exit");
}

}  // namespace
}  // namespace esp::runtime
