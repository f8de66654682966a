// Micro-benchmarks isolating the threaded runtime's hot-path protocols (not
// a paper figure):
//
//   * BM_AckFanout{PerTuple,Coalesced} — the tuple-tree ack accounting, as
//     the pre-overhaul runtime did it (one shared-atomic RMW per routed copy
//     at emit, three per ack) versus the coalesced protocol (one release
//     store seeds the tree, acks buffered per executor and flushed once per
//     scheduling quantum with adjacent-run merging). The arg is the tree
//     fanout; the counter is acks/s.
//
//   * BM_FlushWake{PerRing,PerFlush} — the wake side of one emit flush that
//     publishes one tuple into each of N rings (the arg) spread over 4
//     executor gates, with a spinning consumer draining them. PerRing is the
//     earlier protocol: sample the consumer-owned head ("was empty"), push,
//     and on an empty -> non-empty edge bump the gate's epoch, fence and
//     check `parked` — per ring. PerFlush is FlushTask's protocol: push every
//     ring, then one fence and one `parked` load per distinct gate. Only the
//     flush is timed; the consumer drains every ring between flushes. The
//     counter is tuples published per second.
//
//   * BM_IdleWake — round-trip latency of the adaptive wait ladder's park /
//     wake edge (IdleGate in runtime.cc, replicated here structurally): the
//     producer publishes work, fences, and only if the consumer is parked
//     bumps the epoch and notifies (NotifyIfParked); the parked consumer
//     must observe the work and respond. This is the latency a parked
//     executor adds to the first tuple after an idle period — the price
//     the ladder pays for not burning the core while idle.
//
// The benches replicate the runtime's structures rather than linking its
// internals (RootSlot and IdleGate are runtime.cc-private by design); the
// layout/ordering discipline — alignas(kCacheLineBytes), acq_rel on the
// closing decrement, seq_cst fences around the park flag — is kept
// identical so the numbers track the real thing.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "slb/dspe/spsc_queue.h"

namespace slb {
namespace {

struct alignas(kCacheLineBytes) BenchRootSlot {
  std::atomic<uint32_t> pending{0};
};

constexpr size_t kSlots = 64;       // a realistic credit window
constexpr size_t kQuantum = 64;     // acks buffered per flush (batch_size)

// The pre-overhaul protocol: every routed copy is a fetch_add at emit;
// every completed tuple pays an acq_rel fetch_sub on the shared slot plus
// relaxed decrements of the spout's in-flight credit and the global
// active-roots count.
void BM_AckFanoutPerTuple(benchmark::State& state) {
  const uint32_t fanout = static_cast<uint32_t>(state.range(0));
  std::vector<BenchRootSlot> slots(kSlots);
  std::atomic<uint32_t> in_flight{0};
  std::atomic<uint64_t> active_roots{0};

  uint64_t acks = 0;
  for (auto _ : state) {
    const size_t slot = acks % kSlots;
    BenchRootSlot& root = slots[slot];
    // Emit: anchor ref, then one fetch_add per routed copy.
    root.pending.store(1, std::memory_order_relaxed);
    in_flight.fetch_add(1, std::memory_order_relaxed);
    active_roots.fetch_add(1, std::memory_order_relaxed);
    for (uint32_t c = 0; c < fanout; ++c) {
      root.pending.fetch_add(1, std::memory_order_relaxed);
    }
    root.pending.fetch_sub(1, std::memory_order_acq_rel);  // drop the anchor
    // Ack: every copy completes with three shared RMWs.
    for (uint32_t c = 0; c < fanout; ++c) {
      if (root.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        in_flight.fetch_sub(1, std::memory_order_relaxed);
        active_roots.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    ++acks;
  }
  state.SetItemsProcessed(static_cast<int64_t>(acks) * fanout);
}
BENCHMARK(BM_AckFanoutPerTuple)->Arg(1)->Arg(4);

// The coalesced protocol: one release store seeds the whole tree, final
// acks land in a thread-local buffer (adjacent-run merge) and flush once
// per quantum — one fetch_sub per distinct root plus two batched counter
// updates per flush, instead of three RMWs per tuple.
void BM_AckFanoutCoalesced(benchmark::State& state) {
  const uint32_t fanout = static_cast<uint32_t>(state.range(0));
  std::vector<BenchRootSlot> slots(kSlots);
  std::atomic<uint32_t> in_flight{0};
  std::atomic<uint64_t> active_roots{0};

  struct PendingAck {
    size_t slot;
    uint32_t count;
  };
  std::vector<PendingAck> acks_buffer;
  acks_buffer.reserve(kQuantum);

  uint64_t acks = 0;
  uint64_t emitted = 0;
  for (auto _ : state) {
    const size_t slot = acks % kSlots;
    BenchRootSlot& root = slots[slot];
    // Emit: one release store covers all copies; credit charged in batch.
    root.pending.store(fanout, std::memory_order_release);
    ++emitted;
    // Ack: defer with adjacent-run merging; the fanout-1 intermediate
    // completions are net-zero (the tree stays open) and cost nothing.
    for (uint32_t c = 1; c < fanout; ++c) {
      benchmark::DoNotOptimize(root.pending.load(std::memory_order_relaxed));
    }
    if (!acks_buffer.empty() && acks_buffer.back().slot == slot) {
      ++acks_buffer.back().count;
    } else {
      acks_buffer.push_back({slot, 1});
    }
    ++acks;
    if (acks_buffer.size() == kQuantum || (acks % kQuantum) == 0) {
      in_flight.fetch_add(static_cast<uint32_t>(emitted),
                          std::memory_order_relaxed);
      active_roots.fetch_add(emitted, std::memory_order_relaxed);
      uint64_t completed = 0;
      for (const PendingAck& ack : acks_buffer) {
        slots[ack.slot].pending.fetch_sub(ack.count,
                                          std::memory_order_acq_rel);
        completed += ack.count;
      }
      acks_buffer.clear();
      in_flight.fetch_sub(static_cast<uint32_t>(completed),
                          std::memory_order_relaxed);
      active_roots.fetch_sub(completed, std::memory_order_release);
      emitted = 0;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(acks) * fanout);
}
BENCHMARK(BM_AckFanoutCoalesced)->Arg(1)->Arg(4);

// Structural replica of runtime.cc's IdleGate and its fence pairing with
// ParkIdle.
struct BenchIdleGate {
  std::atomic<uint64_t> epoch{0};
  std::atomic<uint32_t> parked{0};
  std::mutex mu;
  std::condition_variable cv;
};

// runtime.cc's NotifyIfParked: the caller has published and fenced already.
void BenchNotifyIfParked(BenchIdleGate& gate) {
  if (gate.parked.load(std::memory_order_relaxed) == 0) return;
  gate.epoch.fetch_add(1, std::memory_order_release);
  { std::lock_guard<std::mutex> lock(gate.mu); }
  gate.cv.notify_all();
}

constexpr size_t kFlushGates = 4;  // executor threads hosting the rings

// `num_rings` rings, ring r hosted on gate r % kFlushGates, drained by one
// spinning consumer thread.
class FlushWakeFixture {
 public:
  explicit FlushWakeFixture(size_t num_rings) {
    for (size_t r = 0; r < num_rings; ++r) {
      rings_.push_back(std::make_unique<SpscRing<uint64_t>>(1024));
    }
    consumer_ = std::thread([this] {
      uint64_t item = 0;
      while (!stop_.load(std::memory_order_acquire)) {
        for (auto& ring : rings_) {
          while (ring->TryPop(&item)) benchmark::DoNotOptimize(item);
        }
      }
    });
  }
  ~FlushWakeFixture() {
    stop_.store(true, std::memory_order_release);
    consumer_.join();
  }

  size_t size() const { return rings_.size(); }
  SpscRing<uint64_t>& ring(size_t r) { return *rings_[r]; }
  BenchIdleGate& gate_of(size_t r) { return gates_[r % kFlushGates]; }

  void WaitDrained() const {
    for (const auto& ring : rings_) {
      while (!ring->EmptyApprox()) std::this_thread::yield();
    }
  }

 private:
  std::vector<std::unique_ptr<SpscRing<uint64_t>>> rings_;
  BenchIdleGate gates_[kFlushGates];
  std::atomic<bool> stop_{false};
  std::thread consumer_;
};

// Times one `flush` per iteration, then waits, untimed, until the consumer
// has drained every ring. Each flush so starts from route-light's steady
// state — empty rings that a running consumer polls — instead of drifting
// into a mode where a lagging consumer leaves rings non-empty and the
// per-ring protocol skips its wakes.
template <typename Flush>
void RunFlushWake(benchmark::State& state, Flush flush) {
  FlushWakeFixture fx(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    flush(fx);
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
    fx.WaitDrained();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}

// The earlier FlushTask: per ring, a read of the consumer-owned head line,
// the push, and on an empty -> non-empty edge an epoch RMW, a seq_cst fence
// and a `parked` load on the destination's gate.
void BM_FlushWakePerRing(benchmark::State& state) {
  RunFlushWake(state, [](FlushWakeFixture& fx) {
    for (size_t r = 0; r < fx.size(); ++r) {
      const bool was_empty = fx.ring(r).EmptyApprox();
      fx.ring(r).TryPush(r);
      if (was_empty) {
        BenchIdleGate& gate = fx.gate_of(r);
        gate.epoch.fetch_add(1, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        BenchNotifyIfParked(gate);
      }
    }
  });
}
BENCHMARK(BM_FlushWakePerRing)->Arg(64)->UseManualTime();

// FlushTask now: every push first, recording each destination gate once,
// then one seq_cst fence and one `parked` load per recorded gate.
void BM_FlushWakePerFlush(benchmark::State& state) {
  std::vector<BenchIdleGate*> hosts;
  hosts.reserve(kFlushGates);
  RunFlushWake(state, [&hosts](FlushWakeFixture& fx) {
    for (size_t r = 0; r < fx.size(); ++r) {
      fx.ring(r).TryPush(r);
      BenchIdleGate* gate = &fx.gate_of(r);
      if (std::find(hosts.begin(), hosts.end(), gate) == hosts.end()) {
        hosts.push_back(gate);
      }
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (BenchIdleGate* gate : hosts) BenchNotifyIfParked(*gate);
    hosts.clear();
  });
}
BENCHMARK(BM_FlushWakePerFlush)->Arg(64)->UseManualTime();

// One park/wake round trip per iteration: the consumer snapshots the epoch,
// announces itself parked, fences, re-polls the work counter and sleeps
// until the epoch moves (ParkIdle); the producer (benchmark thread)
// publishes work, fences, notifies if parked, and waits for the consumer's
// acknowledgment. Measures the full wake latency a parked executor adds to
// the first tuple after idleness.
void BM_IdleWake(benchmark::State& state) {
  BenchIdleGate gate;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> work{0};
  std::atomic<uint64_t> acked{0};

  std::thread consumer([&] {
    uint64_t seen = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t epoch = gate.epoch.load(std::memory_order_acquire);
      gate.parked.fetch_add(1, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (work.load(std::memory_order_relaxed) == seen) {
        std::unique_lock<std::mutex> lock(gate.mu);
        gate.cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
          return gate.epoch.load(std::memory_order_relaxed) != epoch ||
                 stop.load(std::memory_order_acquire);
        });
      }
      gate.parked.fetch_sub(1, std::memory_order_relaxed);
      seen = work.load(std::memory_order_acquire);
      acked.store(seen, std::memory_order_release);
    }
  });

  uint64_t published = 0;
  for (auto _ : state) {
    // The signal side of a ring publish: work, fence, NotifyIfParked.
    work.store(++published, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    BenchNotifyIfParked(gate);
    while (acked.load(std::memory_order_acquire) < published) {
      std::this_thread::yield();
    }
  }

  stop.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(gate.mu);
  }
  gate.cv.notify_all();
  consumer.join();
  state.SetItemsProcessed(static_cast<int64_t>(published));
}
BENCHMARK(BM_IdleWake)->UseRealTime();

}  // namespace
}  // namespace slb

BENCHMARK_MAIN();
