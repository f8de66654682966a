#include "slb/dspe/runtime.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "slb/common/histogram.h"
#include "slb/common/logging.h"
#include "slb/dspe/plan.h"
#include "slb/dspe/spsc_queue.h"
#include "slb/hash/hash.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace slb {
namespace {

// A tuple in transit. The (spout_task, root_slot) pair names the root tree
// this tuple belongs to for ack accounting.
struct RtTuple {
  uint64_t key = 0;
  uint64_t value = 0;
  uint32_t spout_task = 0;
  uint32_t root_slot = 0;
};

// One in-flight root tuple tree of a spout task. `pending` counts the
// not-yet-accounted references on the tree: the spout seeds it with ONE
// release-store covering every routed copy of the root (the copies are
// invisible downstream until the trailing FlushTask publishes them, so no
// anchor reference is needed), bolts apply only the NET change of a
// processed tuple (emitted copies minus the consumed one — a +k add while
// their own reference still holds the tree open, or a deferred -1 batched
// into the executor's ack flush). emit_time_s is written by the spout
// strictly before the release-store that makes pending non-zero, and read by
// completers strictly before the final decrement, so slot reuse never races.
// Cache-line sized: the slot array is indexed concurrently by every executor
// completing trees of this spout, and padding keeps one tree's refcount
// traffic from invalidating its neighbors' lines.
struct alignas(kCacheLineBytes) RootSlot {
  std::atomic<uint32_t> pending{0};
  double emit_time_s = 0.0;
};

class ReusableCollector final : public OutputCollector {
 public:
  void Emit(const TopologyTuple& tuple) override { emitted.push_back(tuple); }
  std::vector<TopologyTuple> emitted;
};

struct TaskState;

// Per-destination emit buffer of one outgoing edge: tuples routed but not
// yet published to the destination ring (the batch plus, under backpressure,
// the stash of rejected pushes).
struct OutEdge {
  uint32_t to_component = 0;
  std::vector<SpscRing<RtTuple>*> rings;      // one per destination task
  std::vector<TaskState*> dest_tasks;         // parallel to rings (for wakes)
  std::vector<std::vector<RtTuple>> buffers;  // parallel to rings
  std::vector<size_t> flushed;                // prefix of buffer already sent
};

// Spout trigger sentinel: no rescale event pending for this spout.
constexpr uint64_t kNoTrigger = ~0ULL;

// Key-state handoff frames, carried on dedicated SPSC rings between bolt
// workers of the rescaled component. kStateFrame ships one key's state to
// its new owner; kPullRequest asks the owner named by the directory to ship
// it (the lazy scale-out pull).
constexpr uint32_t kStateFrame = 0;
constexpr uint32_t kPullRequest = 1;
constexpr uint32_t kHandoffRingCapacity = 128;

struct HandoffFrame {
  uint64_t key = 0;
  uint64_t value = 0;
  uint32_t kind = kStateFrame;
  uint32_t from_worker = 0;  // sender's worker index in the rescaled bolt
};

struct ThreadCtx;

struct TaskState {
  // Executor thread hosting this task (tasks never migrate; set before the
  // host starts, or at the rescale barrier for scale-out workers). Producers
  // use it to wake the host after publishing into one of its rings.
  ThreadCtx* host = nullptr;
  uint32_t task_id = 0;
  uint32_t component = 0;
  uint32_t index = 0;
  std::unique_ptr<Spout> spout;
  std::unique_ptr<Bolt> bolt;
  std::vector<std::unique_ptr<StreamPartitioner>> partitioners;
  std::vector<OutEdge> out;
  // FlushTask scratch: the distinct hosts one flush published to, at most
  // one entry per executor thread.
  std::vector<ThreadCtx*> wake_hosts;
  // Bolt: input rings, one per upstream producer task (MPSC as polled SPSC).
  std::vector<SpscRing<RtTuple>*> inputs;
  size_t input_cursor = 0;
  ReusableCollector collector;
  uint64_t processed = 0;
  // Spout: root-slot table (size = credit window) and live-root count.
  std::unique_ptr<RootSlot[]> slots;
  uint32_t num_slots = 0;
  // Credit counter: hammered by every executor's ack flush while the owning
  // spout polls it for backpressure — isolated on its own cache line so that
  // traffic never invalidates the spout's cursor/flag fields around it.
  alignas(kCacheLineBytes) std::atomic<uint32_t> in_flight{0};
  alignas(kCacheLineBytes) uint32_t slot_cursor = 0;
  bool exhausted = false;

  // --- Elastic rescale (all meaningful only when Runtime::elastic set). ----
  // Spout side: pause after `processed == next_trigger` emissions; the
  // routed stream is logged for the post-run migration replay.
  uint64_t next_trigger = kNoTrigger;
  bool paused = false;
  bool log_routing = false;
  SenderRoutingLog routing_log;
  // Bolt side: membership in the rescaled component, scale-in drain state,
  // and the key-state handoff mesh endpoints this task owns.
  bool elastic = false;
  bool draining = false;
  bool retired = false;
  std::vector<uint64_t> drain_keys;
  size_t drain_cursor = 0;
  std::vector<std::pair<TaskState*, SpscRing<HandoffFrame>*>> handoff_out;
  std::vector<SpscRing<HandoffFrame>*> handoff_in;
  std::vector<std::pair<TaskState*, HandoffFrame>> handoff_stash;
};

struct Runtime;

// Live-rescale coordination. Ownership discipline: fields below the barrier
// block are written only by the mutator (the last executor to park at a
// barrier) or before threads start; every executor re-reads them only after
// the barrier generation advances, so barrier_mu carries the happens-before.
struct ElasticState {
  // Static configuration.
  uint32_t spout_component = 0;
  uint32_t bolt_component = 0;
  uint32_t num_spouts = 0;
  uint64_t edge_hash_seed = 0;
  RescaleCostModel cost;
  BoltFactory bolt_factory;
  uint64_t thread_seed_base = 0;

  struct PendingEvent {
    uint64_t at_message = 0;
    uint32_t num_workers = 0;
  };
  std::vector<PendingEvent> pending;

  // Mutator-owned topology view.
  size_t next_event = 0;
  std::vector<TaskState*> spouts;      // elastic spout tasks, index order
  std::vector<TaskState*> workers;     // live bolt tasks by worker index
  std::vector<TaskState*> bolt_tasks;  // every bolt task ever (stats)
  std::vector<TaskState*> draining;    // scale-in tasks not yet settled
  std::vector<RescaleFiredEvent> fired;

  // Quiesce barrier: phase flips 0->1 when every spout sits at its trigger
  // and every in-flight tuple tree has acked; threads then park on the
  // generation barrier and the last arrival mutates the worker set.
  std::mutex barrier_mu;
  std::condition_variable barrier_cv;
  uint64_t barrier_gen = 0;      // guarded by barrier_mu
  uint32_t barrier_waiting = 0;  // guarded by barrier_mu
  uint32_t active_threads = 0;   // guarded by barrier_mu
  std::atomic<uint32_t> spouts_quiesced{0};
  std::atomic<uint32_t> phase{0};
  std::atomic<bool> cancelled{false};

  // Migration directory: the keys that still owe a move this window.
  // Scale-in entries are created at the barrier (frames_pending = number of
  // removed holders); scale-out entries hold the lazy owner lists and
  // resolve on first post-event touch. dir_active mirrors directory.size()
  // so the per-tuple hot path can skip the lock when nothing is pending
  // (entries are only created at barriers, so a stale zero is impossible
  // while a key is actually unresolved).
  struct DirEntry {
    std::vector<uint32_t> owners;
    uint32_t frames_pending = 0;
  };
  std::mutex dir_mu;
  std::unordered_map<uint64_t, DirEntry> directory;  // guarded by dir_mu
  std::atomic<uint64_t> dir_active{0};
  std::atomic<uint64_t> inflight_keys{0};
  std::atomic<uint32_t> draining_tasks{0};

  // Measured protocol costs.
  std::atomic<uint64_t> handoff_frames{0};
  std::atomic<uint64_t> measured_stalls{0};
  std::atomic<int64_t> quiesce_start_ns{0};
  std::atomic<int64_t> drain_done_ns{0};
  std::atomic<int64_t> stall_window_start_ns{0};
  std::atomic<int64_t> last_install_ns{0};
  double total_quiesce_s = 0.0;          // mutator / post-join main only
  double total_credit_drain_s = 0.0;     // mutator / post-join main only
  double total_migration_stall_s = 0.0;  // mutator / post-join main only
};

struct ThreadCtx;

// Wakeup gate of ONE parked executor — per-thread so producers wake exactly
// the host of the consumer they published to, never the whole fleet. Every
// wake pairs two seq_cst fences, Dekker-style:
//
//   signaller: publish work -> fence -> load `parked`
//   parker:    `parked`++   -> fence -> poll for work (MaybeRunnable)
//
// so either the signaller sees `parked` > 0 and notifies, or the parker's
// poll sees the published work and does not sleep. `epoch` ticks only on a
// notify (i.e. only while `parked` > 0): the parker snapshots it before
// announcing itself, so the cv predicate catches a notify racing the park,
// and a signaller finding the owner running writes nothing on this line.
struct IdleGate {
  std::atomic<uint64_t> epoch{0};
  std::atomic<uint32_t> parked{0};
  std::mutex mu;
  std::condition_variable cv;
};

struct Runtime {
  std::vector<std::unique_ptr<TaskState>> tasks;
  std::vector<std::unique_ptr<SpscRing<RtTuple>>> rings;
  std::vector<std::unique_ptr<SpscRing<HandoffFrame>>> handoff_rings;
  uint32_t batch_size = 64;
  uint32_t max_pending = 1;
  uint32_t queue_capacity = 1024;
  uint64_t max_tuples = 0;
  uint32_t num_spout_tasks = 0;  // spout task ids are [0, num_spout_tasks)
  uint32_t spin_iterations = 32;
  uint32_t yield_iterations = 8;
  bool pin_threads = false;

  std::chrono::steady_clock::time_point start;
  std::atomic<uint32_t> active_spouts{0};
  std::atomic<uint64_t> active_roots{0};
  std::atomic<uint64_t> total_processed{0};
  std::atomic<bool> stop{false};
  std::atomic<uint32_t> threads_pinned{0};

  std::unique_ptr<ElasticState> elastic;  // null = static worker set

  // Broadcast wake for rare global transitions (stop, failure, quiesce
  // phase, schedule pause/cancel, thread retirement): pokes every executor's
  // gate. Defined after ThreadCtx (needs its gate member).
  void WakeAll();

  // Executor threads and their contexts. A scale-out barrier appends while
  // the main thread is join-looping, so both live behind spawn_mu and the
  // thread container is a deque (stable references across growth).
  std::mutex spawn_mu;
  std::deque<std::thread> threads;                   // guarded by spawn_mu
  std::vector<std::unique_ptr<ThreadCtx>> contexts;  // guarded by spawn_mu

  std::mutex error_mu;
  Status first_error;  // guarded by error_mu

  double NowSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

  void Fail(Status status) {
    {
      std::lock_guard<std::mutex> lock(error_mu);
      if (first_error.ok()) first_error = std::move(status);
    }
    stop.store(true, std::memory_order_release);
    WakeAll();  // parked executors must observe the stop
  }
};

// One deferred root-tree reference drop, batched per executor pass.
struct PendingAck {
  uint32_t spout_task = 0;
  uint32_t root_slot = 0;
  uint32_t count = 0;
};

// Per-executor-thread accumulators, merged after join. Histogram is
// non-movable (internal mutex), so contexts live behind unique_ptr.
struct ThreadCtx {
  explicit ThreadCtx(uint64_t seed) : latency_ms(1 << 16, seed) {}
  std::vector<TaskState*> tasks;
  Histogram latency_ms;
  uint64_t roots_acked = 0;
  double last_ack_s = 0.0;
  uint64_t processed_delta = 0;
  uint32_t thread_index = 0;  // spawn order; drives round-robin CPU pinning
  // Coalesced acking: reference drops accumulated during the pass, flushed
  // by FlushAcks before the pass's idle/park decision. Consecutive drops on
  // the same tree merge in place (descendants of one root arrive adjacent).
  std::vector<PendingAck> acks;
  std::vector<uint32_t> spout_acked;  // per-spout completions, scratch
  // This executor's park gate, signalled by producers publishing to one of
  // its tasks and by the global transitions in Runtime::WakeAll.
  IdleGate gate;
  // Idle-ladder accounting: idle_s covers the yield + park stages (not the
  // pause rung), park_s the parked subset, parks the episode count.
  double idle_s = 0.0;
  double park_s = 0.0;
  uint64_t parks = 0;
};

// The notify half of a wake. The caller must already have published its
// work and issued the seq_cst fence that pairs with ParkIdle's; one fence
// may cover any number of gates. The release on the epoch bump pairs with
// the parker's acquire snapshot, so a snapshot can never read a bump whose
// `parked` load already saw that same park's announcement.
void NotifyIfParked(IdleGate& gate) {
  if (gate.parked.load(std::memory_order_relaxed) == 0) return;
  gate.epoch.fetch_add(1, std::memory_order_release);
  // Empty critical section: a parker between its predicate check and
  // cv.wait cannot miss the notify once we pass through the mutex.
  { std::lock_guard<std::mutex> lock(gate.mu); }
  gate.cv.notify_all();
}

// A complete wake of one gate: the fence, then the notify half.
void WakeGate(IdleGate& gate) {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  NotifyIfParked(gate);
}

// Targeted wake for the handoff paths: pokes the executor hosting `task`.
// Cheap when that thread is not parked — one fence and one shared load.
inline void WakeHost(TaskState* task) {
  if (task->host != nullptr) WakeGate(task->host->gate);
}

void Runtime::WakeAll() {
  std::lock_guard<std::mutex> lock(spawn_mu);
  for (auto& ctx : contexts) WakeGate(ctx->gate);
}

void ThreadMain(Runtime& rt, ThreadCtx& ctx);

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Messages spout s (of S, fed round-robin) emits before global position p:
// the count of i < p with i == s (mod S). Triggers derived this way make the
// threaded engine fire events at exactly the simulator's stream positions.
uint64_t PreCount(uint64_t p, uint32_t s, uint32_t num_spouts) {
  return p > s ? (p - s - 1) / num_spouts + 1 : 0;
}

// Attempts to publish every buffered tuple; returns true if any tuple moved.
// Every push is followed by a wake of the destination's host, coalesced per
// host: the pushes go first (each recording its host once in
// task.wake_hosts), then ONE seq_cst fence, then one `parked` load per
// recorded host. A consumer parks only after its post-announce poll
// found all its rings empty, so by the fence pairing on IdleGate every
// tuple published here either reaches that poll or finds the consumer
// parked and notifies it — no wake depends on ParkIdle's timed wait.
bool FlushTask(TaskState& task) {
  bool moved = false;
  for (OutEdge& edge : task.out) {
    for (size_t d = 0; d < edge.rings.size(); ++d) {
      std::vector<RtTuple>& buf = edge.buffers[d];
      size_t& sent = edge.flushed[d];
      if (sent == buf.size()) continue;
      const size_t pushed =
          edge.rings[d]->TryPushBatch(buf.data() + sent, buf.size() - sent);
      sent += pushed;
      if (pushed > 0) {
        moved = true;
        ThreadCtx* host = edge.dest_tasks[d]->host;
        if (host != nullptr &&
            std::find(task.wake_hosts.begin(), task.wake_hosts.end(),
                      host) == task.wake_hosts.end()) {
          task.wake_hosts.push_back(host);
        }
      }
      if (sent == buf.size()) {
        buf.clear();
        sent = 0;
      }
    }
  }
  if (!task.wake_hosts.empty()) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (ThreadCtx* host : task.wake_hosts) NotifyIfParked(host->gate);
    task.wake_hosts.clear();
  }
  return moved;
}

bool AllFlushed(const TaskState& task) {
  for (const OutEdge& edge : task.out) {
    for (const auto& buf : edge.buffers) {
      if (!buf.empty()) return false;
    }
  }
  return true;
}

// Routes `tuple` along every outgoing edge of `task` into the per-
// destination emit buffers and returns the number of copies queued. Does NOT
// touch the root's refcount — buffered copies are invisible downstream until
// FlushTask publishes them, so the caller charges all copies in one step
// (the spout's seeding store, or a bolt's net adjustment) before flushing.
// Routing-log capture is a template parameter so the non-logging
// instantiation — the only one bolts and non-rescale spouts ever run —
// carries zero branches and zero allocation for it (pinned by the
// routing_log_capacity_bytes audit in TopologyStats).
template <bool kLogRouting>
uint32_t RouteCopies(TaskState& task, const TopologyTuple& tuple,
                     uint32_t spout_task, uint32_t root_slot) {
  uint32_t copies = 0;
  for (size_t e = 0; e < task.out.size(); ++e) {
    OutEdge& edge = task.out[e];
    const uint32_t dest = task.partitioners[e]->Route(tuple.key);
    if constexpr (kLogRouting) {
      if (e == 0) {
        task.routing_log.keys.push_back(tuple.key);
        task.routing_log.workers.push_back(dest);
      }
    }
    edge.buffers[dest].push_back(
        RtTuple{tuple.key, tuple.value, spout_task, root_slot});
    ++copies;
  }
  return copies;
}

// Queues one deferred reference drop on a root tree, merging with the
// previous entry when it names the same tree (a batch of one root's
// descendants processed back-to-back coalesces into a single decrement).
void DeferAck(ThreadCtx& ctx, uint32_t spout_task, uint32_t root_slot) {
  if (!ctx.acks.empty()) {
    PendingAck& last = ctx.acks.back();
    if (last.spout_task == spout_task && last.root_slot == root_slot) {
      ++last.count;
      return;
    }
  }
  ctx.acks.push_back(PendingAck{spout_task, root_slot, 1});
}

// Applies the pass's deferred reference drops: one acq_rel fetch_sub per
// distinct tree touched, then one credit return per spout and one
// active_roots adjustment for the whole batch. The release on active_roots
// pairs with the quiesce/termination checks' acquire loads, so an observer
// of active_roots == 0 also sees every in_flight return of this flush.
bool FlushAcks(Runtime& rt, ThreadCtx& ctx) {
  if (ctx.acks.empty()) return false;
  if (ctx.spout_acked.size() < rt.num_spout_tasks) {
    ctx.spout_acked.assign(rt.num_spout_tasks, 0);
  }
  uint64_t completed = 0;
  double now_s = 0.0;
  for (const PendingAck& ack : ctx.acks) {
    RootSlot& root = rt.tasks[ack.spout_task]->slots[ack.root_slot];
    const double emit_s = root.emit_time_s;  // must precede the decrement
    if (root.pending.fetch_sub(ack.count, std::memory_order_acq_rel) ==
        ack.count) {
      if (completed == 0) now_s = rt.NowSeconds();
      ctx.latency_ms.Add((now_s - emit_s) * 1e3);
      ++ctx.roots_acked;
      ++ctx.spout_acked[ack.spout_task];
      ++completed;
    }
  }
  ctx.acks.clear();
  if (completed == 0) return false;
  ctx.last_ack_s = std::max(ctx.last_ack_s, now_s);
  for (uint32_t s = 0; s < rt.num_spout_tasks; ++s) {
    if (ctx.spout_acked[s] == 0) continue;
    rt.tasks[s]->in_flight.fetch_sub(ctx.spout_acked[s],
                                     std::memory_order_relaxed);
  }
  rt.active_roots.fetch_sub(completed, std::memory_order_release);
  // Returned credit may unblock a spout parked on an exhausted window: every
  // return above is published before the one fence, then each credited
  // spout's host is checked (the same pairing as FlushTask's).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (uint32_t s = 0; s < rt.num_spout_tasks; ++s) {
    if (ctx.spout_acked[s] == 0) continue;
    ctx.spout_acked[s] = 0;
    ThreadCtx* host = rt.tasks[s]->host;
    if (host != nullptr) NotifyIfParked(host->gate);
  }
  return true;
}

// Finds a root slot with pending == 0. Guaranteed to exist because the
// caller checked in_flight < num_slots and every live root holds exactly one
// slot at pending > 0.
uint32_t ClaimRootSlot(TaskState& task) {
  for (uint32_t i = 0; i < task.num_slots; ++i) {
    const uint32_t s = (task.slot_cursor + i) % task.num_slots;
    // acquire: pairs with the final acq_rel decrement in CompleteOne so the
    // spout's upcoming emit_time_s write cannot race the completer's read.
    if (task.slots[s].pending.load(std::memory_order_acquire) == 0) {
      task.slot_cursor = (s + 1) % task.num_slots;
      return s;
    }
  }
  SLB_CHECK(false) << "no free root slot despite available credit";
  return 0;
}

// ---------------------------------------------------------------------------
// Key-state handoff mesh.
// ---------------------------------------------------------------------------

SpscRing<HandoffFrame>* FindHandoffRing(TaskState& from, const TaskState* to) {
  for (auto& [dest, ring] : from.handoff_out) {
    if (dest == to) return ring;
  }
  return nullptr;
}

// Sends one frame from `from` toward `to`, stashing on a full ring (the
// stash preserves order and is retried each quantum — natural backpressure
// for the drain pace). Counts the frame exactly once, at send time.
void PushHandoff(ElasticState& els, TaskState& from, TaskState* to,
                 const HandoffFrame& frame) {
  els.handoff_frames.fetch_add(1, std::memory_order_relaxed);
  if (!from.handoff_stash.empty()) {
    from.handoff_stash.emplace_back(to, frame);
    return;
  }
  SpscRing<HandoffFrame>* ring = FindHandoffRing(from, to);
  SLB_CHECK(ring != nullptr) << "no handoff ring for worker pair";
  if (ring == nullptr || !ring->TryPush(frame)) {
    from.handoff_stash.emplace_back(to, frame);
    return;
  }
  WakeHost(to);
}

bool FlushHandoffStash(TaskState& task) {
  bool moved = false;
  auto& stash = task.handoff_stash;
  for (size_t i = 0; i < stash.size();) {
    SpscRing<HandoffFrame>* ring = FindHandoffRing(task, stash[i].first);
    SLB_CHECK(ring != nullptr) << "no handoff ring for stashed frame";
    if (ring != nullptr && ring->TryPush(stash[i].second)) {
      WakeHost(stash[i].first);
      stash.erase(stash.begin() + i);  // stashes are tiny; O(n) is fine
      moved = true;
    } else {
      ++i;
    }
  }
  return moved;
}

// A state frame landed: retire its directory obligation. Erasing the entry
// (once all expected frames arrived) is what re-opens the key's hot path.
void ResolveInstalledKey(ElasticState& els, uint64_t key) {
  std::lock_guard<std::mutex> lock(els.dir_mu);
  auto it = els.directory.find(key);
  SLB_CHECK(it != els.directory.end()) << "state frame for unknown key";
  if (--it->second.frames_pending == 0) {
    els.directory.erase(it);
    els.dir_active.fetch_sub(1, std::memory_order_relaxed);
    els.inflight_keys.fetch_sub(1, std::memory_order_relaxed);
  }
  els.last_install_ns.store(NowNs(), std::memory_order_relaxed);
}

// Services this worker's side of the handoff mesh: retries the stash, then
// drains incoming frames — installing state, or answering pull requests by
// extracting the key and shipping it back.
bool ServiceHandoffs(ElasticState& els, TaskState& task) {
  bool did_work = FlushHandoffStash(task);
  HandoffFrame frame;
  for (SpscRing<HandoffFrame>* ring : task.handoff_in) {
    while (ring->TryPop(&frame)) {
      did_work = true;
      if (frame.kind == kStateFrame) {
        task.bolt->InstallKeyState(frame.key, frame.value);
        ResolveInstalledKey(els, frame.key);
      } else {
        uint64_t value = 0;
        task.bolt->ExtractKeyState(frame.key, &value);
        PushHandoff(els, task, els.workers[frame.from_worker],
                    HandoffFrame{frame.key, value, kStateFrame, task.index});
      }
    }
  }
  return did_work;
}

// Per-tuple migration check on the rescaled bolt, active only while the
// directory is non-empty. Mirrors MigrationTracker::OnMessage: a key whose
// state is in flight counts as a measured stall (the tuple is processed
// anyway; counters merge once the frame lands); a key landing on a worker
// that already holds its state resolves without moving; a key landing
// anywhere else pulls the state from its lowest-indexed owner.
void ElasticCheck(ElasticState& els, TaskState& task, uint64_t key) {
  std::lock_guard<std::mutex> lock(els.dir_mu);
  auto it = els.directory.find(key);
  if (it == els.directory.end()) return;
  ElasticState::DirEntry& entry = it->second;
  if (entry.frames_pending > 0) {
    els.measured_stalls.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint32_t self = task.index;
  if (std::find(entry.owners.begin(), entry.owners.end(), self) !=
      entry.owners.end()) {
    els.directory.erase(it);  // checked, nothing moves
    els.dir_active.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  const uint32_t owner = entry.owners.front();
  entry.frames_pending = 1;
  els.inflight_keys.fetch_add(1, std::memory_order_relaxed);
  PushHandoff(els, task, els.workers[owner],
              HandoffFrame{key, 0, kPullRequest, task.index});
}

// Quantum of a worker removed by scale-in: stream its sorted key state to
// the survivors at batch pace, then retire. The thread hosting it exits once
// every task it owns has retired.
bool DrainQuantum(Runtime& rt, ElasticState& els, TaskState& task) {
  bool did_work = FlushHandoffStash(task);
  if (!task.handoff_stash.empty()) return did_work;
  const uint32_t n_live = static_cast<uint32_t>(els.workers.size());
  uint32_t budget = rt.batch_size;
  while (budget > 0 && task.drain_cursor < task.drain_keys.size()) {
    const uint64_t key = task.drain_keys[task.drain_cursor++];
    uint64_t value = 0;
    task.bolt->ExtractKeyState(key, &value);
    const uint32_t dest =
        HashToRange(SeededHash64(key, els.edge_hash_seed), n_live);
    PushHandoff(els, task, els.workers[dest],
                HandoffFrame{key, value, kStateFrame, task.index});
    --budget;
    did_work = true;
    if (!task.handoff_stash.empty()) break;  // ring full: resume next quantum
  }
  if (task.drain_cursor == task.drain_keys.size() &&
      task.handoff_stash.empty()) {
    task.draining = false;
    task.retired = true;
    els.draining_tasks.fetch_sub(1, std::memory_order_relaxed);
    did_work = true;
  }
  return did_work;
}

// Emission loop of one spout quantum, instantiated with and without routing-
// log capture (only elastic spouts ever log; everyone else runs the
// zero-overhead variant). Credit is charged in ONE batched fetch_add per
// quantum: the loop works against a snapshot of in_flight plus a local
// emitted count — in_flight is only ever *incremented* by this thread, so
// the snapshot over-approximates the live value and the credit window is
// never exceeded. That same bound keeps ClaimRootSlot's free-slot guarantee:
// trees holding slots <= snapshot + emitted < num_slots.
template <bool kLogRouting>
bool SpoutEmitLoop(Runtime& rt, ThreadCtx& ctx, TaskState& task,
                   ElasticState* els) {
  bool did_work = false;
  uint32_t emitted = 0;
  const uint32_t in_flight_now =
      task.in_flight.load(std::memory_order_relaxed);
  // Publishes the quantum's batched credit charge. Must run BEFORE any store
  // that another thread pairs with an active_roots == 0 observation — the
  // quiesce announcement and the exhaustion decrement below — otherwise the
  // observer can conclude no roots are live while this quantum's emitted
  // tuples are still uncharged (and unflushed), and stop the topology or
  // flip the rescale phase out from under them.
  const auto charge_emitted = [&] {
    if (emitted == 0) return;
    task.in_flight.fetch_add(emitted, std::memory_order_relaxed);
    rt.active_roots.fetch_add(emitted, std::memory_order_relaxed);
    emitted = 0;
  };
  for (uint32_t n = 0; n < rt.batch_size; ++n) {
    if (els != nullptr && task.processed == task.next_trigger) {
      if (els->cancelled.load(std::memory_order_acquire)) {
        task.next_trigger = kNoTrigger;
      } else {
        // Quiesce point: pause before emitting the first post-event tuple.
        // Charge this quantum's roots before announcing: the acq_rel publish
        // on spouts_quiesced makes the charge visible to any thread that
        // observes the full quiesce count, so the phase 0->1 CAS cannot fire
        // while these roots are uncharged and their tuples unflushed.
        charge_emitted();
        task.paused = true;
        els->spouts_quiesced.fetch_add(1, std::memory_order_acq_rel);
        int64_t expected = 0;
        els->quiesce_start_ns.compare_exchange_strong(
            expected, NowNs(), std::memory_order_acq_rel);
        rt.WakeAll();  // parked peers must re-evaluate the quiesce state
        break;
      }
    }
    if (in_flight_now + emitted >= rt.max_pending) {
      break;  // credit window exhausted: wait for acks (backpressure)
    }
    TopologyTuple tuple;
    if (!task.spout->NextTuple(&tuple)) {
      // Charge before the exhaustion decrement, and make that decrement a
      // release: a peer whose termination check acquires active_spouts == 0
      // then also sees these roots in active_roots, so it cannot store stop
      // with this quantum's tuples still uncharged/unflushed.
      charge_emitted();
      task.exhausted = true;
      rt.active_spouts.fetch_sub(1, std::memory_order_release);
      if (els != nullptr && task.next_trigger != kNoTrigger) {
        // The stream ran out short of the schedule's promised length: this
        // spout can never reach its trigger, so no barrier can assemble.
        // Cancel the remaining events (paused peers release themselves).
        els->cancelled.store(true, std::memory_order_release);
        els->quiesce_start_ns.store(0, std::memory_order_relaxed);
        rt.WakeAll();  // a peer may be parked with only a paused spout
      }
      break;
    }
    ++task.processed;
    ++ctx.processed_delta;
    const uint32_t slot = ClaimRootSlot(task);
    RootSlot& root = task.slots[slot];
    root.emit_time_s = rt.NowSeconds();
    const uint32_t copies =
        RouteCopies<kLogRouting>(task, tuple, task.task_id, slot);
    if (copies == 0) {
      // Edgeless spout: the tree is just the root — acked on emission.
      const double now_s = rt.NowSeconds();
      ctx.latency_ms.Add((now_s - root.emit_time_s) * 1e3);
      ctx.last_ack_s = std::max(ctx.last_ack_s, now_s);
      ++ctx.roots_acked;
    } else {
      // One release-store seeds the whole tree's refcount; the copies only
      // become visible downstream at the flush below, after the batched
      // credit charge, so pending can never transiently hit zero and no
      // completer can outrun the accounting.
      root.pending.store(copies, std::memory_order_release);
      ++emitted;
    }
    did_work = true;
  }
  charge_emitted();
  return did_work;
}

bool SpoutQuantum(Runtime& rt, ThreadCtx& ctx, TaskState& task) {
  bool did_work = FlushTask(task);
  if (!AllFlushed(task) || task.exhausted) return did_work;

  ElasticState* els = rt.elastic.get();
  if (els != nullptr && task.paused) {
    if (!els->cancelled.load(std::memory_order_acquire)) return did_work;
    // The schedule was cancelled while this spout sat at its trigger.
    task.paused = false;
    task.next_trigger = kNoTrigger;
    els->spouts_quiesced.fetch_sub(1, std::memory_order_acq_rel);
  }

  did_work |= task.log_routing
                  ? SpoutEmitLoop<true>(rt, ctx, task, els)
                  : SpoutEmitLoop<false>(rt, ctx, task, els);
  did_work |= FlushTask(task);
  return did_work;
}

bool BoltQuantum(Runtime& rt, ThreadCtx& ctx, TaskState& task) {
  ElasticState* els = rt.elastic.get();
  bool did_work = false;
  if (els != nullptr && task.elastic) did_work |= ServiceHandoffs(*els, task);
  did_work |= FlushTask(task);
  if (!AllFlushed(task)) return did_work;  // backpressure: do not consume

  uint32_t budget = rt.batch_size;
  RtTuple chunk[32];
  while (budget > 0) {
    // MPSC fan-in: poll the per-producer SPSC rings round-robin.
    size_t popped = 0;
    for (size_t i = 0; i < task.inputs.size(); ++i) {
      const size_t r = (task.input_cursor + i) % task.inputs.size();
      const size_t want =
          std::min<size_t>(budget, sizeof(chunk) / sizeof(chunk[0]));
      popped = task.inputs[r]->TryPopBatch(chunk, want);
      if (popped > 0) {
        task.input_cursor = (r + 1) % task.inputs.size();
        break;
      }
    }
    if (popped == 0) break;

    for (size_t i = 0; i < popped; ++i) {
      const RtTuple& in = chunk[i];
      if (els != nullptr && task.elastic &&
          els->dir_active.load(std::memory_order_relaxed) > 0) {
        ElasticCheck(*els, task, in.key);
      }
      task.collector.emitted.clear();
      task.bolt->Execute(TopologyTuple{in.key, in.value}, &task.collector);
      ++task.processed;
      ++ctx.processed_delta;
      uint32_t new_refs = 0;
      for (const TopologyTuple& out : task.collector.emitted) {
        new_refs += RouteCopies<false>(task, out, in.spout_task, in.root_slot);
      }
      // Net refcount change: +new_refs for the queued copies, -1 for the
      // consumed input. A pure relay (net zero) touches no atomic at all; a
      // fan-out applies one relaxed add — safe because our own still-held
      // reference keeps the tree open until the children are charged; a leaf
      // defers its lone decrement into the pass's coalesced ack flush.
      if (new_refs == 0) {
        DeferAck(ctx, in.spout_task, in.root_slot);
      } else if (new_refs > 1) {
        rt.tasks[in.spout_task]->slots[in.root_slot].pending.fetch_add(
            new_refs - 1, std::memory_order_relaxed);
      }
    }
    budget -= static_cast<uint32_t>(popped);
    did_work = true;
  }
  did_work |= FlushTask(task);
  return did_work;
}

// ---------------------------------------------------------------------------
// Barrier-time mutation (runs with every other executor parked).
// ---------------------------------------------------------------------------

void CloseStallWindow(ElasticState& els) {
  const int64_t start =
      els.stall_window_start_ns.load(std::memory_order_relaxed);
  const int64_t last = els.last_install_ns.load(std::memory_order_relaxed);
  if (start != 0 && last > start) {
    els.total_migration_stall_s += static_cast<double>(last - start) * 1e-9;
  }
  els.stall_window_start_ns.store(0, std::memory_order_relaxed);
  els.last_install_ns.store(0, std::memory_order_relaxed);
}

// Delivers one frame directly (no rings; mutator only). A pull request both
// extracts at the owner and installs at the requester in one step.
void DeliverInline(ElasticState& els, TaskState* to,
                   const HandoffFrame& frame) {
  if (frame.kind == kStateFrame) {
    to->bolt->InstallKeyState(frame.key, frame.value);
    ResolveInstalledKey(els, frame.key);
    return;
  }
  uint64_t value = 0;
  to->bolt->ExtractKeyState(frame.key, &value);
  els.handoff_frames.fetch_add(1, std::memory_order_relaxed);
  TaskState* requester = els.workers[frame.from_worker];
  requester->bolt->InstallKeyState(frame.key, value);
  ResolveInstalledKey(els, frame.key);
}

// Forces the previous window's migration to completion so the next event
// never straddles an unfinished one: pumps stashes and rings to a fixpoint
// (a pull request spawns a state frame), finishes any scale-in drain inline,
// and clears the directory. Lazy entries whose keys were never touched keep
// their state where it is — exactly the lazy protocol.
void SettleHandoffs(ElasticState& els) {
  bool moved = true;
  while (moved) {
    moved = false;
    for (TaskState* t : els.bolt_tasks) {
      for (auto& [to, frame] : t->handoff_stash) {
        DeliverInline(els, to, frame);
        moved = true;
      }
      t->handoff_stash.clear();
      HandoffFrame frame;
      for (SpscRing<HandoffFrame>* ring : t->handoff_in) {
        while (ring->TryPop(&frame)) {
          DeliverInline(els, t, frame);
          moved = true;
        }
      }
    }
  }
  const uint32_t n_live = static_cast<uint32_t>(els.workers.size());
  for (TaskState* t : els.draining) {
    if (t->retired) continue;
    while (t->drain_cursor < t->drain_keys.size()) {
      const uint64_t key = t->drain_keys[t->drain_cursor++];
      uint64_t value = 0;
      t->bolt->ExtractKeyState(key, &value);
      els.handoff_frames.fetch_add(1, std::memory_order_relaxed);
      const uint32_t dest =
          HashToRange(SeededHash64(key, els.edge_hash_seed), n_live);
      els.workers[dest]->bolt->InstallKeyState(key, value);
      ResolveInstalledKey(els, key);
    }
    t->draining = false;
    t->retired = true;
    els.draining_tasks.fetch_sub(1, std::memory_order_relaxed);
  }
  els.draining.clear();
  SLB_CHECK(els.draining_tasks.load(std::memory_order_relaxed) == 0);
  {
    std::lock_guard<std::mutex> lock(els.dir_mu);
    for (const auto& [key, entry] : els.directory) {
      (void)key;
      SLB_CHECK(entry.frames_pending == 0)
          << "unsettled handoff frame at barrier";
    }
    els.directory.clear();
    els.dir_active.store(0, std::memory_order_relaxed);
  }
  SLB_CHECK(els.inflight_keys.load(std::memory_order_relaxed) == 0);
}

void EnsureHandoffRing(Runtime& rt, TaskState* from, TaskState* to) {
  if (from == to || FindHandoffRing(*from, to) != nullptr) return;
  rt.handoff_rings.push_back(
      std::make_unique<SpscRing<HandoffFrame>>(kHandoffRingCapacity));
  SpscRing<HandoffFrame>* ring = rt.handoff_rings.back().get();
  from->handoff_out.emplace_back(to, ring);
  to->handoff_in.push_back(ring);
}

// Scale-in: the top (old_n - new_n) workers leave the routing range and
// enter drain mode — after resume they stream their sorted key state to
// HashToRange-chosen survivors and then retire. The directory pins every
// affected key until its state lands (tuples arriving earlier count as
// measured stalls).
void ScaleIn(Runtime& rt, ElasticState& els, uint32_t new_n) {
  const uint32_t old_n = static_cast<uint32_t>(els.workers.size());
  std::lock_guard<std::mutex> dir_lock(els.dir_mu);
  for (uint32_t w = new_n; w < old_n; ++w) {
    TaskState* t = els.workers[w];
    t->drain_keys.clear();
    t->bolt->AppendStateKeys(&t->drain_keys);
    std::sort(t->drain_keys.begin(), t->drain_keys.end());
    t->drain_cursor = 0;
    t->draining = true;
    els.draining.push_back(t);
    els.draining_tasks.fetch_add(1, std::memory_order_relaxed);
    for (uint64_t key : t->drain_keys) {
      const uint32_t dest =
          HashToRange(SeededHash64(key, els.edge_hash_seed), new_n);
      auto [it, inserted] =
          els.directory.try_emplace(key, ElasticState::DirEntry{{dest}, 0});
      if (inserted) {
        els.dir_active.fetch_add(1, std::memory_order_relaxed);
        els.inflight_keys.fetch_add(1, std::memory_order_relaxed);
      }
      ++it->second.frames_pending;
    }
    for (uint32_t d = 0; d < new_n; ++d) {
      EnsureHandoffRing(rt, t, els.workers[d]);
    }
  }
  els.workers.resize(new_n);
}

// Scale-out: spawns fresh bolt tasks for worker indices [old_n, new_n),
// wires new data rings from every spout (replacing the drained rings of any
// previously retired worker at a reused index), builds the lazy owner
// directory over every live key, extends the handoff mesh to all live
// pairs, and starts ONE new executor thread owning the new tasks.
void ScaleOut(Runtime& rt, ElasticState& els, uint32_t new_n) {
  const uint32_t old_n = static_cast<uint32_t>(els.workers.size());
  {
    std::lock_guard<std::mutex> lock(els.dir_mu);
    for (uint32_t w = 0; w < old_n; ++w) {
      std::vector<uint64_t> keys;
      els.workers[w]->bolt->AppendStateKeys(&keys);
      for (uint64_t key : keys) {
        auto [it, inserted] =
            els.directory.try_emplace(key, ElasticState::DirEntry{});
        if (inserted) els.dir_active.fetch_add(1, std::memory_order_relaxed);
        it->second.owners.push_back(w);
      }
    }
  }

  ThreadCtx* ctx = nullptr;
  {
    std::lock_guard<std::mutex> lock(rt.spawn_mu);
    rt.contexts.push_back(std::make_unique<ThreadCtx>(
        els.thread_seed_base ^
        (0x9e3779b97f4a7c15ULL * (rt.contexts.size() + 1))));
    ctx = rt.contexts.back().get();
    ctx->thread_index = static_cast<uint32_t>(rt.contexts.size() - 1);
  }
  for (uint32_t w = old_n; w < new_n; ++w) {
    auto task = std::make_unique<TaskState>();
    task->task_id = static_cast<uint32_t>(rt.tasks.size());
    task->component = els.bolt_component;
    task->index = w;
    task->elastic = true;
    task->bolt = els.bolt_factory(w);
    SLB_CHECK(task->bolt != nullptr) << "bolt factory returned null";
    task->bolt->Prepare(w, new_n);
    SLB_CHECK(task->bolt->SupportsStateHandoff());
    TaskState* raw = task.get();
    for (TaskState* spout : els.spouts) {
      rt.rings.push_back(
          std::make_unique<SpscRing<RtTuple>>(rt.queue_capacity));
      SpscRing<RtTuple>* ring = rt.rings.back().get();
      OutEdge& out = spout->out[0];
      if (w < out.rings.size()) {
        // A retired worker owned this index before; its ring is drained and
        // orphaned — swap in a fresh one.
        SLB_CHECK(out.rings[w]->EmptyApprox());
        SLB_CHECK(out.buffers[w].empty());
        out.rings[w] = ring;
        out.dest_tasks[w] = raw;
        out.flushed[w] = 0;
      } else {
        SLB_CHECK(out.rings.size() == w);
        out.rings.push_back(ring);
        out.dest_tasks.push_back(raw);
        out.buffers.emplace_back();
        out.flushed.push_back(0);
      }
      raw->inputs.push_back(ring);
    }
    rt.tasks.push_back(std::move(task));
    els.workers.push_back(raw);
    els.bolt_tasks.push_back(raw);
    ctx->tasks.push_back(raw);
    raw->host = ctx;
  }
  // Lazy pulls flow between any live pair once the window opens.
  for (TaskState* a : els.workers) {
    for (TaskState* b : els.workers) EnsureHandoffRing(rt, a, b);
  }
  ++els.active_threads;  // caller (the mutator) holds barrier_mu
  {
    std::lock_guard<std::mutex> lock(rt.spawn_mu);
    rt.threads.emplace_back(ThreadMain, std::ref(rt), std::ref(*ctx));
  }
}

// Runs with barrier_mu held and every other live executor parked: settles
// the previous migration window, audits the quiesce invariants, fires the
// next event (rescaling every sender's partitioner in lockstep, exactly like
// the simulator's event loop), reprograms triggers, and opens the next
// measured stall window.
void MutateAtBarrier(Runtime& rt) {
  ElasticState& els = *rt.elastic;
  const int64_t quiesce_start =
      els.quiesce_start_ns.load(std::memory_order_relaxed);
  const int64_t drain_done = els.drain_done_ns.load(std::memory_order_relaxed);

  SettleHandoffs(els);
  CloseStallWindow(els);

  // Credit-backpressure audit (the regression pin): a quiesced topology has
  // no live root trees, no unreturned spout credit, and empty transport.
  SLB_CHECK(rt.active_roots.load(std::memory_order_acquire) == 0)
      << "root trees alive across quiesce";
  for (TaskState* spout : els.spouts) {
    SLB_CHECK(spout->in_flight.load(std::memory_order_acquire) == 0)
        << "spout credit not returned across quiesce";
    SLB_CHECK(AllFlushed(*spout)) << "spout emit buffer non-empty at barrier";
    SLB_CHECK(spout->paused && spout->processed == spout->next_trigger)
        << "spout not at its trigger at barrier";
  }
  for (const auto& ring : rt.rings) {
    SLB_CHECK(ring->EmptyApprox()) << "data ring non-empty at barrier";
  }

  SLB_CHECK(els.next_event < els.pending.size());
  const ElasticState::PendingEvent event = els.pending[els.next_event++];
  const uint32_t old_n = static_cast<uint32_t>(els.workers.size());
  if (event.num_workers != old_n) {
    els.fired.push_back(
        RescaleFiredEvent{event.at_message, old_n, event.num_workers});
    for (TaskState* spout : els.spouts) {
      Status status = spout->partitioners[0]->Rescale(event.num_workers);
      if (!status.ok()) {
        rt.Fail(std::move(status));
        return;
      }
    }
    if (event.num_workers < old_n) {
      ScaleIn(rt, els, event.num_workers);
    } else {
      ScaleOut(rt, els, event.num_workers);
    }
  }

  // Next trigger may equal the current position (stacked events): the spout
  // then re-pauses before emitting anything and the next barrier fires it.
  for (TaskState* spout : els.spouts) {
    spout->next_trigger =
        els.next_event < els.pending.size()
            ? PreCount(els.pending[els.next_event].at_message, spout->index,
                       els.num_spouts)
            : kNoTrigger;
    spout->paused = false;
  }
  els.spouts_quiesced.store(0, std::memory_order_relaxed);

  const int64_t resume = NowNs();
  if (quiesce_start != 0) {
    els.total_credit_drain_s +=
        static_cast<double>(drain_done - quiesce_start) * 1e-9;
    els.total_quiesce_s +=
        static_cast<double>(resume - quiesce_start) * 1e-9;
  }
  els.quiesce_start_ns.store(0, std::memory_order_relaxed);
  els.drain_done_ns.store(0, std::memory_order_relaxed);
  els.stall_window_start_ns.store(resume, std::memory_order_relaxed);
  els.last_install_ns.store(0, std::memory_order_relaxed);
}

// Generation barrier every executor parks on while phase == 1. The last
// arrival (counting threads that already exited) becomes the mutator; a
// waiter that becomes last after a peer exits takes over. wait_for keeps the
// barrier live across Fail() from any thread.
void ParkAtBarrier(Runtime& rt) {
  ElasticState& els = *rt.elastic;
  std::unique_lock<std::mutex> lock(els.barrier_mu);
  if (els.phase.load(std::memory_order_acquire) != 1) {
    return;  // stale observation (e.g. a freshly spawned thread)
  }
  const uint64_t gen = els.barrier_gen;
  ++els.barrier_waiting;
  auto mutate_and_release = [&]() {
    try {
      MutateAtBarrier(rt);
    } catch (const std::exception& e) {
      rt.Fail(Status::Internal(std::string("rescale mutation threw: ") +
                               e.what()));
    } catch (...) {
      rt.Fail(Status::Internal("rescale mutation threw a non-std exception"));
    }
    --els.barrier_waiting;
    ++els.barrier_gen;
    els.phase.store(0, std::memory_order_release);
    els.barrier_cv.notify_all();
  };
  if (els.barrier_waiting == els.active_threads) {
    mutate_and_release();
    return;
  }
  while (els.barrier_gen == gen) {
    if (rt.stop.load(std::memory_order_acquire)) break;
    els.barrier_cv.wait_for(lock, std::chrono::milliseconds(1));
    if (els.barrier_gen == gen && !rt.stop.load(std::memory_order_acquire) &&
        els.barrier_waiting == els.active_threads) {
      mutate_and_release();
      return;
    }
  }
  --els.barrier_waiting;
}

// One cpu-relax hint (the "pause" rung of the idle ladder): tells the core
// we're in a spin-wait without giving up the timeslice.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

// CPUs this process may run on (affinity-mask aware on Linux); falls back to
// hardware_concurrency elsewhere. Sets the default executor count and
// whether the idle ladder's spin rung runs.
uint32_t AvailableCpuCount() {
#if defined(__linux__)
  cpu_set_t available;
  CPU_ZERO(&available);
  if (sched_getaffinity(0, sizeof(available), &available) == 0) {
    const int count = CPU_COUNT(&available);
    if (count > 0) return static_cast<uint32_t>(count);
  }
#endif
  const uint32_t hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// Pins the calling thread to one CPU, chosen round-robin over the CPUs in
// the process's affinity mask. Returns false (no-op) where unsupported or on
// any syscall failure — pinning is an optimization, never a requirement.
bool PinCurrentThreadToCpu(uint32_t thread_index) {
#if defined(__linux__)
  cpu_set_t available;
  CPU_ZERO(&available);
  if (sched_getaffinity(0, sizeof(available), &available) != 0) return false;
  const int count = CPU_COUNT(&available);
  if (count <= 0) return false;
  int target = static_cast<int>(thread_index % static_cast<uint32_t>(count));
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &available)) continue;
    if (target-- == 0) {
      CPU_SET(cpu, &chosen);
      return pthread_setaffinity_np(pthread_self(), sizeof(chosen), &chosen) ==
             0;
    }
  }
  return false;
#else
  (void)thread_index;
  return false;
#endif
}

// Conservative "could any of my tasks make progress?" poll, used as the
// final check before parking. May return true spuriously (the pass will just
// find nothing); must never return false while work for this thread exists
// that no future signal would announce.
bool MaybeRunnable(Runtime& rt, ThreadCtx& ctx) {
  ElasticState* els = rt.elastic.get();
  if (els != nullptr) {
    if (els->phase.load(std::memory_order_acquire) != 0) return true;
    if (els->spouts_quiesced.load(std::memory_order_acquire) ==
            els->num_spouts &&
        !els->cancelled.load(std::memory_order_acquire) &&
        rt.active_roots.load(std::memory_order_acquire) == 0) {
      return true;  // quiesce complete: someone must flip the phase
    }
  }
  for (TaskState* task : ctx.tasks) {
    if (task->retired) continue;
    if (task->draining || !task->handoff_stash.empty()) return true;
    for (SpscRing<HandoffFrame>* ring : task->handoff_in) {
      if (!ring->EmptyApprox()) return true;
    }
    if (task->spout != nullptr) {
      if (task->paused) {
        if (els != nullptr && els->cancelled.load(std::memory_order_acquire)) {
          return true;  // must release itself from the cancelled trigger
        }
      } else if (!task->exhausted &&
                 task->in_flight.load(std::memory_order_relaxed) <
                     rt.max_pending) {
        return true;
      }
    }
    // A task with unflushed emit buffers must keep retrying: consumers do
    // not signal "space freed" edges, only "tuples published" ones, so a
    // backpressured producer stays in the spin/yield rungs until the ring
    // drains (the consumer is by definition runnable while its ring holds
    // tuples, so the stall is bounded by downstream progress).
    if (!AllFlushed(*task)) return true;
    for (SpscRing<RtTuple>* ring : task->inputs) {
      if (!ring->EmptyApprox()) return true;
    }
  }
  return false;
}

// The parked rung: snapshot the epoch, announce in `parked`, fence, re-poll
// once (the parker's half of the pairing on IdleGate), then sleep on the cv
// until the epoch moves. Every wake source — ring publish (FlushTask),
// credit return (FlushAcks), handoff frames (WakeHost) and the global
// transitions (Runtime::WakeAll) — publishes before its own seq_cst fence,
// so the re-poll sees its work or it sees `parked` and notifies. The 1 ms
// timed wait is a backstop that no wake depends on; it keeps any future
// missed-wakeup bug a latency blip instead of a deadlock.
void ParkIdle(Runtime& rt, ThreadCtx& ctx) {
  IdleGate& gate = ctx.gate;
  const uint64_t epoch = gate.epoch.load(std::memory_order_acquire);
  gate.parked.fetch_add(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (rt.stop.load(std::memory_order_acquire) || MaybeRunnable(rt, ctx)) {
    gate.parked.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  ElasticState* els = rt.elastic.get();
  const auto park_start = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(gate.mu);
    gate.cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return gate.epoch.load(std::memory_order_relaxed) != epoch ||
             rt.stop.load(std::memory_order_relaxed) ||
             (els != nullptr &&
              els->phase.load(std::memory_order_relaxed) != 0);
    });
  }
  gate.parked.fetch_sub(1, std::memory_order_relaxed);
  const double parked_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    park_start)
          .count();
  ctx.idle_s += parked_s;
  ctx.park_s += parked_s;
  ++ctx.parks;
}

void ThreadMain(Runtime& rt, ThreadCtx& ctx) {
  if (rt.pin_threads && PinCurrentThreadToCpu(ctx.thread_index)) {
    rt.threads_pinned.fetch_add(1, std::memory_order_relaxed);
  }
  ElasticState* els = rt.elastic.get();
  uint64_t idle_streak = 0;
  while (!rt.stop.load(std::memory_order_acquire)) {
    if (els != nullptr) {
      if (els->phase.load(std::memory_order_acquire) == 1) {
        ParkAtBarrier(rt);
        continue;
      }
      if (els->spouts_quiesced.load(std::memory_order_acquire) ==
              els->num_spouts &&
          !els->cancelled.load(std::memory_order_acquire) &&
          rt.active_roots.load(std::memory_order_acquire) == 0) {
        // Every spout sits at its trigger and every in-flight tree has
        // acked: the topology is quiescent. First observer opens the
        // barrier; drain_done stamps the credit-drain endpoint.
        uint32_t expected = 0;
        if (els->phase.compare_exchange_strong(expected, 1,
                                               std::memory_order_acq_rel)) {
          els->drain_done_ns.store(NowNs(), std::memory_order_relaxed);
          rt.WakeAll();  // parked peers must join the barrier
        }
        continue;
      }
    }
    bool did_work = false;
    try {
      for (TaskState* task : ctx.tasks) {
        if (task->retired) continue;
        if (task->draining) {
          did_work |= DrainQuantum(rt, *els, *task);
        } else if (task->spout != nullptr) {
          did_work |= SpoutQuantum(rt, ctx, *task);
        } else {
          did_work |= BoltQuantum(rt, ctx, *task);
        }
      }
    } catch (const std::exception& e) {
      rt.Fail(Status::Internal(std::string("topology task threw: ") + e.what()));
      return;
    } catch (...) {
      rt.Fail(Status::Internal("topology task threw a non-std exception"));
      return;
    }
    // Coalesced acking: apply the pass's deferred reference drops before
    // anything can decide the pass was idle (and before any barrier or
    // termination check can depend on the credit they return).
    did_work |= FlushAcks(rt, ctx);
    if (ctx.processed_delta > 0) {
      const uint64_t total = rt.total_processed.fetch_add(
                                 ctx.processed_delta,
                                 std::memory_order_relaxed) +
                             ctx.processed_delta;
      ctx.processed_delta = 0;
      if (rt.max_tuples != 0 && total > rt.max_tuples) {
        rt.Fail(Status::FailedPrecondition(
            "tuple budget exceeded; emission loop in topology?"));
        return;
      }
    }
    if (els != nullptr && !ctx.tasks.empty()) {
      bool all_retired = true;
      for (const TaskState* task : ctx.tasks) all_retired &= task->retired;
      if (all_retired) {
        // Every task this thread owned drained away in a scale-in: retire
        // the thread. The decrement may make a parked peer the mutator.
        {
          std::lock_guard<std::mutex> lock(els->barrier_mu);
          --els->active_threads;
          els->barrier_cv.notify_all();
        }
        rt.WakeAll();
        return;
      }
    }
    if (did_work) {
      // Peers were woken in-line by the producer-side targeted wakes (ring
      // publishes, credit returns, handoff frames) — no broadcast here.
      idle_streak = 0;
      continue;
    }
    if (rt.active_spouts.load(std::memory_order_acquire) == 0 &&
        rt.active_roots.load(std::memory_order_acquire) == 0 &&
        (els == nullptr ||
         (els->draining_tasks.load(std::memory_order_acquire) == 0 &&
          els->inflight_keys.load(std::memory_order_acquire) == 0))) {
      rt.stop.store(true, std::memory_order_release);
      rt.WakeAll();  // parked peers must observe the stop
      return;
    }
    // Idle ladder: relax -> timed yield -> park. Each rung still re-polls
    // every task at the top of the next pass.
    ++idle_streak;
    if (idle_streak <= rt.spin_iterations) {
      CpuRelax();
    } else if (idle_streak <= uint64_t{rt.spin_iterations} +
                                  rt.yield_iterations) {
      const auto yield_start = std::chrono::steady_clock::now();
      std::this_thread::yield();
      ctx.idle_s +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        yield_start)
              .count();
    } else {
      ParkIdle(rt, ctx);
    }
  }
}

}  // namespace

Result<TopologyStats> ExecuteTopologyThreaded(
    const TopologyBuilder::Topology& topology, const TopologyOptions& options,
    const TopologyRuntimeOptions& runtime_options) {
  if (options.max_pending_per_spout < 1) {
    return Status::InvalidArgument("max_pending_per_spout must be >= 1");
  }
  if (runtime_options.queue_capacity < 2) {
    return Status::InvalidArgument("queue_capacity must be >= 2");
  }
  if (runtime_options.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  const bool elastic = !runtime_options.rescale.empty();
  if (elastic) {
    if (Status status =
            ValidateRescaleSchedule(runtime_options.rescale.schedule);
        !status.ok()) {
      return status;
    }
    if (runtime_options.rescale.total_messages == 0) {
      return Status::InvalidArgument("rescale.total_messages must be > 0");
    }
  }

  auto planned = PlanTopology(topology);
  if (!planned.ok()) return planned.status();
  const TopologyPlan& plan = planned.value();
  const std::vector<PlannedComponent>& components = plan.components;

  ElasticTargetPlan target;
  if (elastic) {
    auto resolved =
        ResolveElasticTarget(plan, runtime_options.rescale.component);
    if (!resolved.ok()) return resolved.status();
    target = resolved.value();
  }

  Runtime rt;
  rt.batch_size = runtime_options.batch_size;
  rt.max_pending = options.max_pending_per_spout;
  rt.queue_capacity = runtime_options.queue_capacity;
  rt.max_tuples = options.max_tuples;
  rt.spin_iterations = runtime_options.spin_iterations;
  rt.yield_iterations = runtime_options.yield_iterations;
  rt.pin_threads = runtime_options.pin_threads;

  // --- Instantiate tasks and their sender-local partitioners. --------------
  rt.tasks.reserve(plan.num_tasks);
  for (uint32_t c = 0; c < components.size(); ++c) {
    for (uint32_t i = 0; i < components[c].parallelism; ++i) {
      auto task = std::make_unique<TaskState>();
      task->task_id = static_cast<uint32_t>(rt.tasks.size());
      task->component = c;
      task->index = i;
      if (components[c].is_spout) {
        task->spout = topology.spouts[components[c].decl_index].factory(i);
        if (task->spout == nullptr) {
          return Status::InvalidArgument("spout factory returned null");
        }
        task->num_slots = options.max_pending_per_spout;
        task->slots = std::make_unique<RootSlot[]>(task->num_slots);
      } else {
        const auto& decl = topology.bolts[components[c].decl_index];
        task->bolt = decl.factory(i);
        if (task->bolt == nullptr) {
          return Status::InvalidArgument("bolt factory returned null");
        }
        task->bolt->Prepare(i, components[c].parallelism);
      }
      auto partitioners = MakeEdgePartitioners(plan, c, options.hash_seed);
      if (!partitioners.ok()) return partitioners.status();
      task->partitioners = std::move(partitioners.value());
      rt.tasks.push_back(std::move(task));
    }
  }

  // --- Transport fabric: one SPSC ring per (producer, consumer) task pair
  // of every edge, registered on both endpoints in deterministic order. ----
  for (uint32_t c = 0; c < components.size(); ++c) {
    const PlannedComponent& comp = components[c];
    for (const PlannedEdge& edge : comp.outputs) {
      const PlannedComponent& to = components[edge.to_component];
      for (uint32_t p = 0; p < comp.parallelism; ++p) {
        TaskState& producer = *rt.tasks[comp.first_task + p];
        OutEdge out;
        out.to_component = edge.to_component;
        out.rings.reserve(to.parallelism);
        out.dest_tasks.reserve(to.parallelism);
        out.buffers.resize(to.parallelism);
        out.flushed.assign(to.parallelism, 0);
        for (uint32_t q = 0; q < to.parallelism; ++q) {
          rt.rings.push_back(std::make_unique<SpscRing<RtTuple>>(
              runtime_options.queue_capacity));
          SpscRing<RtTuple>* ring = rt.rings.back().get();
          out.rings.push_back(ring);
          out.dest_tasks.push_back(rt.tasks[to.first_task + q].get());
          rt.tasks[to.first_task + q]->inputs.push_back(ring);
        }
        producer.out.push_back(std::move(out));
      }
    }
  }

  // --- Elastic rescale wiring. ---------------------------------------------
  if (elastic) {
    rt.elastic = std::make_unique<ElasticState>();
    ElasticState& els = *rt.elastic;
    els.spout_component = target.spout_component;
    els.bolt_component = target.bolt_component;
    els.num_spouts = components[target.spout_component].parallelism;
    els.edge_hash_seed =
        EdgeHashSeed(options.hash_seed, target.spout_component, 0);
    els.cost = runtime_options.rescale.schedule.cost;
    els.bolt_factory =
        topology.bolts[components[target.bolt_component].decl_index].factory;
    els.thread_seed_base = options.seed ^ 0x7f4a7c15ULL;
    const double m =
        static_cast<double>(runtime_options.rescale.total_messages);
    for (const RescaleEvent& event : runtime_options.rescale.schedule.events) {
      els.pending.push_back(ElasticState::PendingEvent{
          static_cast<uint64_t>(event.at_fraction * m), event.num_workers});
    }
    const PlannedComponent& spout_comp = components[target.spout_component];
    for (uint32_t i = 0; i < spout_comp.parallelism; ++i) {
      TaskState* t = rt.tasks[spout_comp.first_task + i].get();
      if (!t->partitioners[0]->SupportsRescale()) {
        return Status::InvalidArgument(t->partitioners[0]->name() +
                                       " does not support rescaling");
      }
      t->log_routing = true;
      t->next_trigger =
          PreCount(els.pending.front().at_message, i, els.num_spouts);
      els.spouts.push_back(t);
    }
    const PlannedComponent& bolt_comp = components[target.bolt_component];
    for (uint32_t i = 0; i < bolt_comp.parallelism; ++i) {
      TaskState* t = rt.tasks[bolt_comp.first_task + i].get();
      if (!t->bolt->SupportsStateHandoff()) {
        return Status::InvalidArgument(
            "bolt '" + bolt_comp.name +
            "' does not support state handoff (required for live rescale)");
      }
      t->elastic = true;
      els.workers.push_back(t);
      els.bolt_tasks.push_back(t);
    }
  }

  // --- Executor threads: tasks assigned round-robin. -----------------------
  const uint32_t cpus = AvailableCpuCount();
  uint32_t num_threads = runtime_options.num_threads;
  if (num_threads == 0) num_threads = cpus;
  num_threads = std::min<uint32_t>(num_threads, plan.num_tasks);
  if (num_threads < 2 || num_threads > cpus) {
    // Spinning waits for another executor on another CPU to produce. With
    // one executor, or more executors than CPUs, nothing new arrives until
    // this thread yields, so the spin rung only steals a producer's
    // timeslice: go straight to yielding. Decided once, from the initial
    // executor count; a scale-out that adds threads does not revisit it.
    rt.spin_iterations = 0;
  }

  uint32_t num_spout_tasks = 0;
  for (uint32_t c = 0; c < plan.num_spout_components; ++c) {
    num_spout_tasks += components[c].parallelism;
  }
  rt.active_spouts.store(num_spout_tasks, std::memory_order_relaxed);
  rt.num_spout_tasks = num_spout_tasks;

  for (uint32_t t = 0; t < num_threads; ++t) {
    rt.contexts.push_back(std::make_unique<ThreadCtx>(options.seed ^ (t + 1)));
    rt.contexts.back()->thread_index = t;
  }
  for (uint32_t t = 0; t < plan.num_tasks; ++t) {
    rt.contexts[t % num_threads]->tasks.push_back(rt.tasks[t].get());
    rt.tasks[t]->host = rt.contexts[t % num_threads].get();
  }
  if (rt.elastic != nullptr) rt.elastic->active_threads = num_threads;

  rt.start = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(rt.spawn_mu);
    for (uint32_t t = 0; t < num_threads; ++t) {
      rt.threads.emplace_back(ThreadMain, std::ref(rt),
                              std::ref(*rt.contexts[t]));
    }
  }
  // Join in arrival order; a scale-out barrier may append threads while we
  // wait, so re-check the deque after every join (deque references stay
  // valid across growth). When the joined prefix covers the whole deque no
  // live thread remains, so no further spawn can happen.
  size_t joined = 0;
  while (true) {
    std::thread* next = nullptr;
    {
      std::lock_guard<std::mutex> lock(rt.spawn_mu);
      if (joined < rt.threads.size()) next = &rt.threads[joined];
    }
    if (next == nullptr) break;
    next->join();
    ++joined;
  }

  {
    std::lock_guard<std::mutex> lock(rt.error_mu);
    if (!rt.first_error.ok()) return rt.first_error;
  }

  // --- Collect statistics (all threads joined; plain reads are safe). ------
  TopologyStats stats;
  Histogram latency_ms(1 << 18, options.seed ^ 0xabcdULL);
  double last_ack_s = 0.0;
  for (const auto& ctx : rt.contexts) {
    latency_ms.Merge(ctx->latency_ms);
    stats.roots_acked += ctx->roots_acked;
    last_ack_s = std::max(last_ack_s, ctx->last_ack_s);
    stats.idle_s += ctx->idle_s;
    stats.park_s += ctx->park_s;
    stats.parks += ctx->parks;
  }
  stats.threads_pinned = rt.threads_pinned.load(std::memory_order_relaxed);
  // Routing-log audit, measured before the elastic replay below moves the
  // logs out: zero on non-rescale runs pins that the hot path never touched
  // (or allocated for) per-tuple capture.
  for (const auto& task : rt.tasks) {
    stats.routing_log_capacity_bytes +=
        task->routing_log.keys.capacity() * sizeof(uint64_t) +
        task->routing_log.workers.capacity() * sizeof(uint32_t);
  }
  stats.tuples_processed = rt.total_processed.load(std::memory_order_relaxed);
  stats.makespan_s = last_ack_s;
  stats.throughput_per_s =
      last_ack_s > 0 ? static_cast<double>(stats.roots_acked) / last_ack_s : 0.0;
  stats.latency_avg_ms = latency_ms.mean();
  stats.latency_p50_ms = latency_ms.p50();
  stats.latency_p95_ms = latency_ms.p95();
  stats.latency_p99_ms = latency_ms.p99();
  stats.latency_max_ms = latency_ms.max();

  ElasticState* els = rt.elastic.get();
  for (uint32_t c = 0; c < components.size(); ++c) {
    const PlannedComponent& comp = components[c];
    ComponentStats cs;
    cs.name = comp.name;
    if (els != nullptr && c == els->bolt_component) {
      // Tuples processed spans every task that ever existed (including
      // retired ones); loads and state describe the FINAL worker set.
      for (const TaskState* t : els->bolt_tasks) {
        cs.tuples_processed += t->processed;
      }
      const uint32_t n = static_cast<uint32_t>(els->workers.size());
      uint64_t final_total = 0;
      for (const TaskState* t : els->workers) final_total += t->processed;
      cs.task_loads.resize(n, 0.0);
      double max_load = 0.0;
      for (uint32_t i = 0; i < n; ++i) {
        const TaskState& task = *els->workers[i];
        cs.task_loads[i] = final_total > 0
                               ? static_cast<double>(task.processed) /
                                     static_cast<double>(final_total)
                               : 0.0;
        max_load = std::max(max_load, cs.task_loads[i]);
        cs.state_entries += task.bolt->StateEntries();
      }
      cs.imbalance =
          final_total > 0 ? max_load - 1.0 / static_cast<double>(n) : 0.0;
      stats.components.push_back(std::move(cs));
      continue;
    }
    uint64_t total = 0;
    for (uint32_t i = 0; i < comp.parallelism; ++i) {
      total += rt.tasks[comp.first_task + i]->processed;
    }
    cs.tuples_processed = total;
    cs.task_loads.resize(comp.parallelism, 0.0);
    double max_load = 0.0;
    for (uint32_t i = 0; i < comp.parallelism; ++i) {
      const TaskState& task = *rt.tasks[comp.first_task + i];
      cs.task_loads[i] = total > 0 ? static_cast<double>(task.processed) /
                                         static_cast<double>(total)
                                   : 0.0;
      max_load = std::max(max_load, cs.task_loads[i]);
      if (task.bolt != nullptr) cs.state_entries += task.bolt->StateEntries();
    }
    cs.imbalance =
        total > 0 ? max_load - 1.0 / static_cast<double>(comp.parallelism) : 0.0;
    stats.components.push_back(std::move(cs));
  }

  if (els != nullptr) {
    CloseStallWindow(*els);
    TopologyRescaleStats& rs = stats.rescale;
    rs.rescale_events = static_cast<uint32_t>(els->fired.size());
    rs.final_parallelism = static_cast<uint32_t>(els->workers.size());
    rs.handoff_frames = els->handoff_frames.load(std::memory_order_relaxed);
    rs.measured_stalled_messages =
        els->measured_stalls.load(std::memory_order_relaxed);
    rs.total_quiesce_s = els->total_quiesce_s;
    rs.total_credit_drain_s = els->total_credit_drain_s;
    rs.total_migration_stall_s = els->total_migration_stall_s;
    // Modeled columns: replay the recorded routing logs through the same
    // migration protocol the simulator runs — deterministic at any thread
    // count and byte-identical to RunPartitionSimulation on these streams.
    std::vector<SenderRoutingLog> logs;
    logs.reserve(els->spouts.size());
    for (TaskState* t : els->spouts) logs.push_back(std::move(t->routing_log));
    MigrationTracker tracker =
        ReplayRoundRobinMigration(els->cost, els->fired, logs);
    rs.keys_migrated = tracker.keys_migrated();
    rs.state_bytes_migrated = tracker.state_bytes_migrated();
    rs.stalled_messages = tracker.stalled_messages();
    rs.moved_key_fraction = tracker.moved_key_fraction();
    rs.migrated_keys = tracker.migrated_keys();
  }
  return stats;
}

}  // namespace slb
