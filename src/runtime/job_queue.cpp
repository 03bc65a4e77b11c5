#include "runtime/job_queue.hpp"

#include <algorithm>
#include <limits>
#include <map>

namespace dsra::runtime {

std::string to_string(SchedulingPolicy policy) {
  return policy == SchedulingPolicy::kRoundRobin ? "round-robin" : "affinity-batched";
}

JobQueue::JobQueue(std::vector<StreamJob>& streams, JobQueueConfig config)
    : streams_(streams), config_(config), dag_(config.mode, config.pipeline_lookahead) {
  progress_.resize(streams_.size());
  const auto now = std::chrono::steady_clock::now();  // one stamp for the whole seed batch
  std::size_t total_jobs = 0;
  for (std::size_t k = 0; k < streams_.size(); ++k) {
    StreamJob& s = streams_[k];
    // Safety net for hand-built jobs: a stream carrying a trajectory must
    // have its per-frame contexts resolved before dispatch starts, or the
    // affinity keys would fall back to the frozen impl_name.
    if (s.config.trajectory && s.frame_impls.size() != s.frames.size())
      resolve_stream_conditions(s);
    if (s.finished()) continue;
    // Jobs are counted per required context so a worker can tell whether
    // any remaining work is runnable on *its* fabric (capability and
    // placement), not just on some fabric.
    dag_.count_jobs(s, [&](const std::string& context, std::uint64_t jobs) {
      jobs_left_by_context_[context] += jobs;
      total_jobs += jobs;
    });
    enqueue_locked(static_cast<int>(k), dag_.seed(s, progress_[k], now), now);
  }
  events_.reserve(2 * total_jobs);
}

const std::string& JobQueue::context_of(const Ready& entry) const {
  return runtime::context_of(streams_[static_cast<std::size_t>(entry.stream_id)],
                             {entry.stage, entry.frame_index});
}

bool JobQueue::eligible(const Ready& entry, unsigned capabilities,
                        const HostFilter& can_host) const {
  if ((stage_kernel(entry.stage) & capabilities) == 0) return false;
  return !can_host || can_host(context_of(entry));
}

std::optional<std::size_t> JobQueue::pick_locked(
    const std::optional<std::string>& fabric_impl, const FabricRun& run,
    unsigned capabilities, const HostFilter& can_host) const {
  // Priority by slack: among equally-old jobs, the stream with the
  // tighter SLA deadline wins (EDF inside each FIFO cohort). Streams
  // without a deadline sort last; with no SLAs anywhere this reduces to
  // the plain first-index tie-break.
  const auto deadline_of = [&](const Ready& r) -> std::uint64_t {
    const std::uint64_t d =
        streams_[static_cast<std::size_t>(r.stream_id)].config.sla.deadline_cycles;
    return d == 0 ? std::numeric_limits<std::uint64_t>::max() : d;
  };
  const auto older = [&](const Ready& a, const Ready& b) {
    if (a.ready_seq != b.ready_seq) return a.ready_seq < b.ready_seq;
    return deadline_of(a) < deadline_of(b);
  };

  std::optional<std::size_t> oldest;
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    if (!eligible(ready_[i], capabilities, can_host)) continue;
    if (!oldest || older(ready_[i], ready_[*oldest])) oldest = i;
  }
  if (!oldest) return std::nullopt;
  if (config_.policy == SchedulingPolicy::kRoundRobin) return oldest;

  const auto key_of = [&](const Ready& r) -> const std::string& { return context_of(r); };

  // Ageing valve, checked on every dispatch so it fires mid-batch: a job
  // that has already waited through aging_threshold dispatches is served
  // now, affinity or not.
  if (dispatch_seq_ - 1 - ready_[*oldest].ready_seq >= config_.aging_threshold) {
    // Hard age bound. Serving the *oldest* aged job is not enough: a
    // same-ready_seq cohort (every stream's first frame, enqueued before
    // dispatch 1) drains in tie-break order, one per valve firing, so a
    // low-affinity job in the middle of the cohort still waits
    // ~queue-depth dispatches — the affinity path keeps feeding matched
    // jobs between firings and never reaches it on its own. Once a
    // mismatched job has aged past the hard bound it jumps the cohort
    // sweep: worst age first, tightest deadline breaking ties.
    const std::uint64_t hard = config_.hard_age_bound > 0
                                   ? config_.hard_age_bound
                                   : 2 * config_.aging_threshold;
    std::optional<std::size_t> starving;
    for (std::size_t i = 0; i < ready_.size(); ++i) {
      if (!eligible(ready_[i], capabilities, can_host)) continue;
      if (dispatch_seq_ - 1 - ready_[i].ready_seq < hard) continue;
      if (fabric_impl && key_of(ready_[i]) == *fabric_impl)
        continue;  // matched jobs are the affinity path's problem
      if (!starving || older(ready_[i], ready_[*starving])) starving = i;
    }
    return starving ? starving : oldest;
  }

  // Stay on the fabric's active configuration while the run cap allows.
  if (fabric_impl && run.impl == *fabric_impl && run.length < config_.max_affinity_run) {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < ready_.size(); ++i)
      if (eligible(ready_[i], capabilities, can_host) && key_of(ready_[i]) == *fabric_impl &&
          (!best || older(ready_[i], ready_[*best])))
        best = i;
    if (best) return *best;
  }

  // Forced switch: pick the configuration with the most eligible ready
  // jobs so the switch is amortized over the largest batch; oldest job
  // within. A fabric whose run cap is exhausted must actually rotate away
  // from its active configuration (unless nothing else is eligible),
  // otherwise the cap bounds nothing when the active config also has the
  // largest group.
  const bool must_rotate =
      fabric_impl && run.impl == *fabric_impl && run.length >= config_.max_affinity_run &&
      std::any_of(ready_.begin(), ready_.end(), [&](const Ready& r) {
        return eligible(r, capabilities, can_host) && key_of(r) != *fabric_impl;
      });
  // Group sizes only count jobs this fabric can host, so a small fabric
  // forced to switch picks the largest batch *it can run* — the
  // (geometry, context) affinity the heterogeneous pool batches by.
  std::map<std::string, int> group_size;
  for (std::size_t i = 0; i < ready_.size(); ++i)
    if (eligible(ready_[i], capabilities, can_host)) ++group_size[key_of(ready_[i])];
  std::optional<std::size_t> chosen;
  int chosen_size = -1;
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    if (!eligible(ready_[i], capabilities, can_host)) continue;
    if (must_rotate && key_of(ready_[i]) == *fabric_impl) continue;
    const int size = group_size[key_of(ready_[i])];
    if (size > chosen_size ||
        (size == chosen_size && older(ready_[i], ready_[*chosen]))) {
      chosen = i;
      chosen_size = size;
    }
  }
  return chosen;
}

void JobQueue::enqueue_locked(int stream_id, const StageJobList& jobs,
                              std::chrono::steady_clock::time_point now) {
  for (const StageJob& job : jobs)
    ready_.push_back({stream_id, job.stage, job.frame, dispatch_seq_, now});
}

std::vector<FrameTask> JobQueue::acquire_batch(int fabric_id,
                                               const std::optional<std::string>& fabric_impl,
                                               unsigned capabilities,
                                               const HostFilter& can_host, int max_batch) {
  (void)max_batch;  // the single-queue policy dispatches one job at a time
  std::unique_lock lock(mutex_);
  const auto has_eligible = [&] {
    return std::any_of(ready_.begin(), ready_.end(),
                       [&](const Ready& r) { return eligible(r, capabilities, can_host); });
  };
  const auto work_possible = [&] {
    for (const auto& [context, left] : jobs_left_by_context_)
      if (left > 0 && (context_kernel(context) & capabilities) != 0 &&
          (!can_host || can_host(context)))
        return true;
    return false;
  };
  cv_.wait(lock, [&] { return has_eligible() || !work_possible(); });
  if (!has_eligible()) return {};

  ++dispatch_seq_;
  if (fabric_id >= static_cast<int>(runs_.size()))
    runs_.resize(static_cast<std::size_t>(fabric_id) + 1);
  FabricRun& run = runs_[static_cast<std::size_t>(fabric_id)];

  // Placement-rejection accounting: this dispatch had to route around at
  // least one job its kernel capability covers but its geometry cannot
  // place.
  if (can_host &&
      std::any_of(ready_.begin(), ready_.end(), [&](const Ready& r) {
        return (stage_kernel(r.stage) & capabilities) != 0 && !can_host(context_of(r));
      })) {
    if (fabric_id >= static_cast<int>(placement_skips_.size()))
      placement_skips_.resize(static_cast<std::size_t>(fabric_id) + 1, 0);
    ++placement_skips_[static_cast<std::size_t>(fabric_id)];
  }

  const std::optional<std::size_t> chosen =
      pick_locked(fabric_impl, run, capabilities, can_host);
  const Ready entry = ready_[*chosen];
  ready_[*chosen] = ready_.back();
  ready_.pop_back();

  const std::string key = context_of(entry);
  if (run.impl == key) {
    ++run.length;
  } else {
    run = {key, 1};
  }

  const std::uint64_t wait = dispatch_seq_ - 1 - entry.ready_seq;
  max_wait_ = std::max(max_wait_, wait);

  auto& jobs_left = jobs_left_by_context_[key];
  --jobs_left;
  if (jobs_left == 0) cv_.notify_all();  // starved workers may now exit

  events_.push_back(
      {++event_tick_, true, entry.stream_id, entry.frame_index, fabric_id, entry.stage});

  FrameTask task;
  task.stream_id = entry.stream_id;
  task.frame_index = entry.frame_index;
  task.stage = entry.stage;
  task.wait_dispatches = wait;
  task.ready_time = entry.ready_time;
  return {task};
}

void JobQueue::complete_batch(const std::vector<CompletedTask>& batch, int fabric_id) {
  if (batch.empty()) return;
  // One timestamp covers every successor this batch enqueues, taken
  // before the lock — now() under the hot mutex serialized the workers.
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard lock(mutex_);
  for (const CompletedTask& done : batch)
    complete_locked(done.task, fabric_id, done.reconfig_cycles, now);
  cv_.notify_all();
}

void JobQueue::complete_locked(const FrameTask& task, int fabric_id,
                               std::uint64_t reconfig_cycles,
                               std::chrono::steady_clock::time_point now) {
  events_.push_back({++event_tick_, false, task.stream_id, task.frame_index, fabric_id,
                     task.stage, reconfig_cycles});
  ++completions_;
  const auto stream_id = static_cast<std::size_t>(task.stream_id);
  enqueue_locked(task.stream_id,
                 dag_.complete(streams_[stream_id], progress_[stream_id],
                               {task.stage, task.frame_index}, now),
                 now);
}

std::string JobQueue::required_context(const FrameTask& task) const {
  return runtime::context_of(streams_[static_cast<std::size_t>(task.stream_id)],
                             {task.stage, task.frame_index});
}

std::uint64_t JobQueue::dispatches() const {
  std::lock_guard lock(mutex_);
  return dispatch_seq_;
}

std::vector<std::uint64_t> JobQueue::placement_skips() const {
  std::lock_guard lock(mutex_);
  return placement_skips_;
}

std::uint64_t JobQueue::max_wait_dispatches() const {
  std::lock_guard lock(mutex_);
  return max_wait_;
}

health::QueueHealthSample JobQueue::health_sample() const {
  std::lock_guard lock(mutex_);
  health::QueueHealthSample sample;
  sample.depth = ready_.size();
  sample.dispatches = dispatch_seq_;
  sample.completions = completions_;
  // One logical shard: the whole ready set. Oldest age in dispatches,
  // the same unit the ageing valve thresholds on.
  health::ShardHealth shard;
  for (const Ready& entry : ready_) {
    const std::uint64_t age =
        entry.ready_seq <= dispatch_seq_ ? dispatch_seq_ - entry.ready_seq : 0;
    shard.oldest_age = std::max(shard.oldest_age, age);
  }
  shard.depth = sample.depth;
  sample.oldest_age = shard.oldest_age;
  sample.shards.push_back(shard);
  return sample;
}

std::vector<StageEvent> JobQueue::timeline() const {
  std::lock_guard lock(mutex_);
  return events_;
}

}  // namespace dsra::runtime
