// Sharded stage-task queue: the fleet-scale sibling of JobQueue.
//
// JobQueue funnels every dispatch through one mutex and rescans the whole
// ready list per pick — exact and fine at 10 streams, the measured host
// bottleneck at 10,000. This queue shards the ready set by the same
// affinity key dispatch batches on — the (geometry, context) pair, with
// geometry entering through each fabric's placement filter — and splits
// every context into `shards` independently locked sub-shards keyed by
// stream id, so same-context traffic scales across fabrics too:
//
//         context A (ctx 0)          context B (ctx 1)
//      ┌─────────┬─────────┐      ┌─────────┬─────────┐
//      │ shard 0 │ shard 1 │      │ shard 2 │ shard 3 │   (ways = 2)
//      │ s0 s2…  │ s1 s3…  │      │ s4 s6…  │ s5 s7…  │   streams by id
//      └────┬────┴────┬────┘      └────┬────┴─────────┘
//           │home      │ sibling steal  │ switch steal
//        fabric 0 ─────┘ (same config)  │ (largest backlog,
//           └───────────────────────────┘  pays a reconfig)
//
// A fabric serves its *home* sub-shard of its active context first (no
// switch, no contention with the other fabrics' home shards), steals from
// sibling sub-shards of the same context when home runs dry (still no
// switch), and only then switches context — to the context with the
// largest visible backlog, exactly the switch-to-biggest-batch rule the
// single queue applies. An ageing valve checked before the affinity path
// bounds starvation: when any hostable shard's head has waited past
// aging_threshold dispatches, the oldest head is served first, affinity
// or not.
//
// Dispatch and completion are batched: one shard lock acquisition pops up
// to max_batch jobs (half the shard, so siblings keep stealing material),
// and one completion call groups its successor enqueues by target shard.
// Counters and the event timeline are sharded too — each fabric owns a
// private slot merged on read — so the record sites are contention-free
// and nothing serializes on a stats lock.
//
// The scheduling ORDER therefore differs from JobQueue's (per-shard FIFO
// instead of one global FIFO with EDF tie-breaks) — deliberately. Encoded
// output does not: bits, PSNR and reconstructions depend only on each
// stream's frame order, per-frame context and codec config, all of which
// every dispatch order preserves, so single-shard and sharded runs are
// bit-exact twins (test_sharded_sched holds this across both dispatch
// modes and under admission).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runtime/job_queue.hpp"

namespace dsra::runtime {

class ShardedJobQueue {
 public:
  using HostFilter = JobQueue::HostFilter;

  /// @p streams as in JobQueue. config.shards is the sub-shard count per
  /// context (clamped to >= 1); config.max_batch the dispatch batch
  /// ceiling per lock acquisition.
  ShardedJobQueue(std::vector<StreamJob>& streams, JobQueueConfig config = {});

  /// Batched acquire: blocks until at least one eligible job exists (the
  /// batch holds 1..max_batch jobs from one shard, oldest first), or
  /// returns empty when no job this fabric could ever run remains.
  [[nodiscard]] std::vector<FrameTask> acquire_batch(
      int fabric_id, const std::optional<std::string>& fabric_impl,
      unsigned capabilities = kCapAllKernels, const HostFilter& can_host = nullptr,
      int max_batch = 0);

  /// Batched completion: one timestamp, one stage-DAG pass per task, and
  /// the successor enqueues grouped by target shard (one lock acquisition
  /// per shard).
  void complete_batch(const std::vector<CompletedTask>& batch, int fabric_id);

  [[nodiscard]] std::string required_context(const FrameTask& task) const;

  // Merged-on-read accessors. The counter folds are atomic and safe at
  // any moment; timeline() merges the plain per-fabric event buffers, so
  // call it only after the run has drained (the scheduler reads it after
  // joining the workers).
  [[nodiscard]] std::uint64_t dispatches() const;
  [[nodiscard]] std::uint64_t max_wait_dispatches() const;
  [[nodiscard]] std::vector<std::uint64_t> placement_skips() const;
  /// Event log merged from the per-fabric slots, sorted by tick.
  [[nodiscard]] std::vector<StageEvent> timeline() const;

  [[nodiscard]] int shard_count() const { return static_cast<int>(shard_total_); }
  /// Batches served from a non-home shard (sibling or cross-context).
  [[nodiscard]] std::uint64_t steals() const;
  /// Lock acquisitions that yielded at least one job.
  [[nodiscard]] std::uint64_t dispatch_batches() const;

  /// Live queue state for the health sampler, assembled entirely from
  /// the racy-read shard hints and the atomic slot counters — no shard
  /// lock is taken, so it is safe to call at any moment from the
  /// monitor's epoch thread while workers dispatch.
  [[nodiscard]] health::QueueHealthSample health_sample() const;

 private:
  struct Ready {
    int stream_id = 0;
    StageKind stage = StageKind::kWholeFrame;
    int frame_index = 0;
    int ctx = 0;                  ///< interned context id
    std::uint64_t ready_seq = 0;  ///< dispatch count when it became ready
    std::chrono::steady_clock::time_point ready_time;
  };
  static constexpr std::uint64_t kEmptyHead = ~std::uint64_t{0};
  struct Shard {
    std::mutex m;
    std::deque<Ready> jobs;  ///< FIFO: push_back on enqueue, pop_front on dispatch
    /// Racy-read hints for the lock-free candidate scan, maintained under
    /// m: live job count and the head's ready_seq (kEmptyHead when none).
    std::atomic<std::uint32_t> count{0};
    std::atomic<std::uint64_t> head_seq{kEmptyHead};
  };
  /// Per-fabric state, written only by the owning worker thread (merged
  /// on read after the drain): the affinity run, private counters and the
  /// private event buffer — the epoch/merge-on-read half of the design.
  /// The counters are relaxed atomics (still single-writer) so the health
  /// sampler can fold them mid-run without a data race; the event buffer
  /// stays plain and is only merged after the drain.
  struct FabricSlot {
    std::string run_impl;
    int run_length = 0;
    std::atomic<std::uint64_t> max_wait{0};
    std::atomic<std::uint64_t> placement_skips{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> batches{0};
    std::vector<StageEvent> events;
  };
  /// Interned id of @p context (a dense linear probe: the context set is
  /// a handful of names, and this keeps a shared map off the hot path).
  [[nodiscard]] int ctx_id(const std::string& context) const;
  /// Ready entry of @p job of stream @p stream_id, keyed by its context.
  [[nodiscard]] Ready ready_of(int stream_id, StageJob job,
                               std::chrono::steady_clock::time_point now) const;
  [[nodiscard]] const std::string& context_name(int ctx) const { return ctx_names_[static_cast<std::size_t>(ctx)]; }
  [[nodiscard]] std::size_t shard_index(int ctx, int stream_id) const {
    return static_cast<std::size_t>(ctx) * ways_ +
           static_cast<std::size_t>(stream_id) % ways_;
  }
  [[nodiscard]] FabricSlot& slot_of(int fabric_id);

  /// Append @p batch to its target shards, one lock per shard, then wake
  /// sleepers. Safe from any thread.
  void push_group(std::vector<Ready>& batch);
  void wake_sleepers();

  std::vector<StreamJob>& streams_;
  JobQueueConfig config_;
  StageDag dag_;
  std::size_t ways_ = 1;         ///< sub-shards per context
  std::size_t shard_total_ = 0;  ///< contexts * ways

  std::vector<std::string> ctx_names_;  ///< interned context names, by id
  std::vector<unsigned> ctx_kernels_;   ///< context_kernel() of each, by id
  std::unique_ptr<Shard[]> shards_;
  /// Undispatched jobs per context — the worker-exit test, as in JobQueue
  /// but per-context atomics instead of a map under the global lock.
  std::unique_ptr<std::atomic<std::uint64_t>[]> jobs_left_;

  std::vector<StageProgress> progress_;  ///< indexed by stream id
  /// Per-stream progress lock: in stage mode one stream's ME and DCT/quant
  /// jobs complete on different fabrics concurrently, and both advance
  /// the stream's StageProgress / next_frame. The data handoff between
  /// stages still rides the shard mutexes (write happens before the
  /// successor's enqueue, read after its dequeue, same shard lock).
  std::unique_ptr<std::mutex[]> progress_m_;

  std::atomic<std::uint64_t> dispatch_seq_{0};
  std::atomic<std::uint64_t> completions_{0};
  std::atomic<std::uint64_t> event_tick_{0};

  /// One slot per fabric, created on first use under slots_m_; a worker
  /// resolves its slot pointer once and then writes it lock-free.
  mutable std::mutex slots_m_;
  std::deque<FabricSlot> slots_;   ///< deque: growth never moves elements
  std::vector<FabricSlot*> slot_by_fabric_;

  /// Sleep/wake for cross-shard blocking: pushers bump the epoch and
  /// notify only when sleepers_ is nonzero, sleepers re-check the shard
  /// hints *after* registering (seq_cst on both sides closes the
  /// missed-wake window) and time-box the wait as a belt-and-braces
  /// against livelock.
  std::mutex sleep_m_;
  std::condition_variable sleep_cv_;
  std::atomic<int> sleepers_{0};
  std::uint64_t wake_epoch_ = 0;  ///< guarded by sleep_m_
};

}  // namespace dsra::runtime
