// Lock-guarded stage-task queue with configuration-affinity batching.
//
// The queue hands one stage job of one stream to one fabric at a time.
// Two dispatch modes:
//
//  * kMonolithicFrames — the legacy frame-granularity server: one job per
//    frame, ME runs inline on the worker, only the DCT kernel is needed.
//    A stream re-enters the ready set when its in-flight frame completes.
//  * kStagePipeline — each frame is split into ME -> DCT/quant ->
//    reconstruct stage jobs with the data dependencies made explicit, so
//    frame k+1's ME overlaps frame k's DCT/quant on a different fabric.
//
// Which jobs a frame has, what each waits on and which context it runs
// under is the frame-stage DAG of stage_dag.hpp; the queue seeds and
// releases jobs through it and only decides which ready job to serve.
//
// Within either mode, two scheduling policies:
//
//  * kRoundRobin — serve the longest-waiting eligible job, ignoring which
//    bitstream the fabric currently runs. Maximal interleave, maximal
//    configuration-port thrash; the naive baseline.
//  * kAffinityBatched — prefer jobs whose required bitstream (the
//    stream's DCT context, or the shared ME context for ME jobs) matches
//    the fabric's active configuration, so consecutive jobs amortize one
//    switch. Two fairness valves bound the batching: a run cap
//    (max_affinity_run consecutive same-config dispatches per fabric) and
//    ageing — checked on *every* dispatch, not just at batch boundaries,
//    so a starving low-affinity stream is served mid-batch the moment its
//    wait reaches aging_threshold. When a fabric must switch anyway, it
//    switches to the configuration with the most eligible ready jobs,
//    setting up the largest next batch.
//
// Fabrics advertise kernel capabilities AND a placement-feasibility
// filter: a job is only eligible on a fabric whose capability mask
// covers its stage's kernel and whose array geometry can actually host
// the job's required context (the library's fits() matrix, threaded in
// as the acquire_batch() host filter). The affinity key is therefore
// effectively (geometry, context): a stream whose context only places on
// the large fabric can never be batched onto a small one, and a worker
// exits once no job its fabric could ever run — by capability or by
// placement — remains. Dispatch decisions that had to pass over a
// capability-eligible job on placement grounds are counted per fabric
// (placement_skips) so the per-geometry report shows how often
// feasibility steered routing.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runtime/health/snapshot.hpp"
#include "runtime/job.hpp"
#include "runtime/stage_dag.hpp"

namespace dsra::runtime {

namespace health {
class FlightRecorder;
}

enum class SchedulingPolicy { kRoundRobin, kAffinityBatched };

[[nodiscard]] std::string to_string(SchedulingPolicy policy);

struct JobQueueConfig {
  SchedulingPolicy policy = SchedulingPolicy::kAffinityBatched;
  DispatchMode mode = DispatchMode::kMonolithicFrames;
  int max_affinity_run = 16;  ///< consecutive same-config dispatches per fabric
  std::uint64_t aging_threshold = 64;  ///< dispatches a job may wait
  /// Hard ceiling on any job's wait. The soft threshold above admits the
  /// *oldest* aged job, which at high queue depth sweeps a same-age
  /// cohort in stream order — a low-affinity job in the middle of the
  /// cohort still waits ~queue-depth dispatches while affinity serves
  /// fresh matched arrivals between valve firings. Past this bound the
  /// valve switches to worst-first among the aged jobs, preferring jobs
  /// whose context does NOT match the fabric's active configuration (the
  /// genuinely starving ones). 0 derives 2x aging_threshold.
  std::uint64_t hard_age_bound = 0;
  int pipeline_lookahead = 1;  ///< frames ME may run ahead of reconstruction
  /// Ready-set sharding (ShardedJobQueue): sub-shards per context. 1 (the
  /// default) selects the single lock-guarded JobQueue — the historical
  /// scheduling order, bit-exact with every prior release; > 1 selects
  /// the sharded queue with per-fabric work-stealing.
  int shards = 1;
  /// Jobs a fabric may pop per shard-lock acquisition (sharded queue
  /// only; the single queue decides one dispatch at a time). Clamped to
  /// >= 1; large values amortize locking at scale, a batch never takes
  /// more than half a shard so siblings keep stealing material.
  int max_batch = 8;
  /// Optional flight recorder the queue appends steal events to (sharded
  /// queue only; the single queue has no steal path). Null = off. The
  /// recorder must outlive the queue; workers record on their own
  /// fabric's ring, so the writes stay single-writer.
  health::FlightRecorder* flight = nullptr;
};

/// A finished task plus what its fabric paid to prepare the context —
/// the unit of the batched completion APIs both queue frontends share.
struct CompletedTask {
  FrameTask task;
  std::uint64_t reconfig_cycles = 0;
};

class JobQueue {
 public:
  /// @p streams is shared with the workers; the queue reads impl_name /
  /// frame counts, advances each stream through the stage DAG on
  /// completion and (in stage mode) sizes each stream's pipeline state.
  JobQueue(std::vector<StreamJob>& streams, JobQueueConfig config = {});

  /// Placement-feasibility predicate of one fabric: true iff the named
  /// context places and routes on the fabric's array geometry. A null
  /// filter hosts everything (the homogeneous-pool world).
  using HostFilter = std::function<bool(const std::string& context)>;

  /// Block until a job is available that @p capabilities can run AND
  /// whose required context @p can_host accepts (the fabric's active
  /// bitstream is @p fabric_impl), or no such job can ever appear again;
  /// an empty batch means the worker should exit. The single-queue policy
  /// picks exactly one job per lock acquisition (its dispatch decisions
  /// are stateful per dispatch), so the batch holds zero or one task and
  /// @p max_batch is ignored; the batched signature lets the scheduler's
  /// worker loop be written once for both queues.
  [[nodiscard]] std::vector<FrameTask> acquire_batch(
      int fabric_id, const std::optional<std::string>& fabric_impl,
      unsigned capabilities = kCapAllKernels, const HostFilter& can_host = nullptr,
      int max_batch = 1);

  /// Dispatch decisions in which @p fabric_id passed over at least one
  /// capability-eligible ready job because its context does not place on
  /// the fabric's geometry (indexed by fabric id; missing = 0).
  [[nodiscard]] std::vector<std::uint64_t> placement_skips() const;

  /// Mark every task of @p batch done on @p fabric_id and release the
  /// jobs the completions unblock (next stage, next frame, or the ME
  /// window advancing); one timestamp and one lock acquisition cover the
  /// whole batch. Each task's reconfig_cycles — what the fabric paid to
  /// prepare its context (fetch + switch) — is stamped on the completion
  /// event so the simulated-time replay charges it into the modeled
  /// makespan.
  void complete_batch(const std::vector<CompletedTask>& batch, int fabric_id);

  /// Bitstream a task must have active before running. For a dynamic
  /// stream this is the *per-frame* resolution: when a stream's condition
  /// trajectory selects a new implementation at frame k, every entry of
  /// the stream from frame k on carries the new affinity key, so the
  /// stream re-buckets onto the new configuration in both dispatch modes.
  [[nodiscard]] std::string required_context(const FrameTask& task) const;

  [[nodiscard]] std::uint64_t dispatches() const;
  [[nodiscard]] std::uint64_t max_wait_dispatches() const;

  /// Live queue state for the health sampler: depth, age of the oldest
  /// ready job (in dispatches) and cumulative dispatch/completion
  /// counts. Takes the queue mutex briefly — called once per health
  /// epoch, never from a dispatch path.
  [[nodiscard]] health::QueueHealthSample health_sample() const;

  /// Dispatch/completion event log (call after the run has drained).
  [[nodiscard]] std::vector<StageEvent> timeline() const;

 private:
  struct Ready {
    int stream_id = 0;
    StageKind stage = StageKind::kWholeFrame;
    int frame_index = 0;
    std::uint64_t ready_seq = 0;  ///< dispatch count when it became ready
    std::chrono::steady_clock::time_point ready_time;
  };
  struct FabricRun {
    std::string impl;
    int length = 0;
  };
  /// Context a ready job runs under (stage_dag.hpp's context_of).
  [[nodiscard]] const std::string& context_of(const Ready& entry) const;
  [[nodiscard]] bool eligible(const Ready& entry, unsigned capabilities,
                              const HostFilter& can_host) const;

  /// Index into ready_ of the job to serve among those @p capabilities
  /// can run and @p can_host accepts; nullopt when none is eligible.
  /// Requires mutex_ held.
  [[nodiscard]] std::optional<std::size_t> pick_locked(
      const std::optional<std::string>& fabric_impl, const FabricRun& run,
      unsigned capabilities, const HostFilter& can_host) const;

  void complete_locked(const FrameTask& task, int fabric_id, std::uint64_t reconfig_cycles,
                       std::chrono::steady_clock::time_point now);
  /// @p now is sampled once per enqueue batch by the caller, outside the
  /// lock — steady_clock::now() is a syscall-class cost that has no
  /// business inside the hot mutex (every completion enqueues successors
  /// while holding it).
  void enqueue_locked(int stream_id, const StageJobList& jobs,
                      std::chrono::steady_clock::time_point now);

  std::vector<StreamJob>& streams_;
  JobQueueConfig config_;
  StageDag dag_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Ready> ready_;
  std::vector<FabricRun> runs_;  ///< indexed by fabric id (grown on demand)
  std::vector<StageProgress> progress_;  ///< indexed by stream id
  /// Undispatched jobs per required context (counting jobs not yet
  /// enqueued). The worker-exit test consults this *per fabric*: a
  /// worker may leave once every context with work left is one its
  /// fabric cannot run, by capability or by placement.
  std::map<std::string, std::uint64_t> jobs_left_by_context_;
  std::vector<std::uint64_t> placement_skips_;  ///< indexed by fabric id
  std::uint64_t dispatch_seq_ = 0;
  std::uint64_t completions_ = 0;
  std::uint64_t max_wait_ = 0;
  std::uint64_t event_tick_ = 0;
  std::vector<StageEvent> events_;
};

}  // namespace dsra::runtime
