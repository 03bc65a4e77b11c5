#include "runtime/sharded_queue.hpp"

#include <algorithm>
#include <chrono>
#include <map>

#include "runtime/health/flight_recorder.hpp"

namespace dsra::runtime {

ShardedJobQueue::ShardedJobQueue(std::vector<StreamJob>& streams, JobQueueConfig config)
    : streams_(streams), config_(config), dag_(config.mode, config.pipeline_lookahead) {
  ways_ = static_cast<std::size_t>(std::max(1, config_.shards));
  progress_.resize(streams_.size());
  progress_m_ = std::make_unique<std::mutex[]>(std::max<std::size_t>(1, streams_.size()));

  // Intern every context the run can dispatch under, in the order the
  // stage DAG first visits them. The set is the library's live subset — a
  // handful of names — so ids are dense and the per-context structures
  // are plain arrays.
  std::map<std::string, int> intern;
  std::vector<std::uint64_t> jobs_left;
  for (StreamJob& s : streams_) {
    if (s.config.trajectory && s.frame_impls.size() != s.frames.size())
      resolve_stream_conditions(s);
    if (s.finished()) continue;
    dag_.count_jobs(s, [&](const std::string& context, std::uint64_t jobs) {
      const auto [it, inserted] =
          intern.try_emplace(context, static_cast<int>(ctx_names_.size()));
      if (inserted) {
        ctx_names_.push_back(context);
        ctx_kernels_.push_back(context_kernel(context));
        jobs_left.push_back(0);
      }
      jobs_left[static_cast<std::size_t>(it->second)] += jobs;
    });
  }

  shard_total_ = ctx_names_.size() * ways_;
  shards_ = std::make_unique<Shard[]>(std::max<std::size_t>(1, shard_total_));
  jobs_left_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      std::max<std::size_t>(1, ctx_names_.size()));
  for (std::size_t c = 0; c < ctx_names_.size(); ++c) jobs_left_[c].store(jobs_left[c]);

  const auto now = std::chrono::steady_clock::now();  // one stamp for the seed batch
  std::vector<Ready> seed;
  for (std::size_t k = 0; k < streams_.size(); ++k) {
    StreamJob& s = streams_[k];
    if (s.finished()) continue;
    for (const StageJob& job : dag_.seed(s, progress_[k], now))
      seed.push_back(ready_of(static_cast<int>(k), job, now));
  }
  push_group(seed);
}

int ShardedJobQueue::ctx_id(const std::string& context) const {
  for (std::size_t c = 0; c < ctx_names_.size(); ++c)
    if (ctx_names_[c] == context) return static_cast<int>(c);
  return 0;  // unreachable for streams the constructor scanned
}

ShardedJobQueue::Ready ShardedJobQueue::ready_of(
    int stream_id, StageJob job, std::chrono::steady_clock::time_point now) const {
  const StreamJob& stream = streams_[static_cast<std::size_t>(stream_id)];
  return {stream_id, job.stage, job.frame, ctx_id(context_of(stream, job)), 0, now};
}

ShardedJobQueue::FabricSlot& ShardedJobQueue::slot_of(int fabric_id) {
  std::lock_guard lock(slots_m_);
  if (fabric_id >= static_cast<int>(slot_by_fabric_.size()))
    slot_by_fabric_.resize(static_cast<std::size_t>(fabric_id) + 1, nullptr);
  FabricSlot*& slot = slot_by_fabric_[static_cast<std::size_t>(fabric_id)];
  if (slot == nullptr) slot = &slots_.emplace_back();
  return *slot;
}

void ShardedJobQueue::push_group(std::vector<Ready>& batch) {
  if (batch.empty()) return;
  const std::uint64_t seq = dispatch_seq_.load(std::memory_order_seq_cst);
  // Group by target shard so a completion batch pays one lock
  // acquisition per shard, not per successor.
  std::sort(batch.begin(), batch.end(), [&](const Ready& a, const Ready& b) {
    return shard_index(a.ctx, a.stream_id) < shard_index(b.ctx, b.stream_id);
  });
  std::size_t i = 0;
  while (i < batch.size()) {
    const std::size_t target = shard_index(batch[i].ctx, batch[i].stream_id);
    std::size_t j = i;
    while (j < batch.size() && shard_index(batch[j].ctx, batch[j].stream_id) == target) ++j;
    Shard& shard = shards_[target];
    {
      std::lock_guard lock(shard.m);
      for (std::size_t p = i; p < j; ++p) {
        Ready entry = batch[p];
        entry.ready_seq = seq;
        shard.jobs.push_back(entry);
      }
      shard.head_seq.store(shard.jobs.front().ready_seq, std::memory_order_seq_cst);
      shard.count.store(static_cast<std::uint32_t>(shard.jobs.size()),
                        std::memory_order_seq_cst);
    }
    i = j;
  }
  wake_sleepers();
}

void ShardedJobQueue::wake_sleepers() {
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  {
    std::lock_guard lock(sleep_m_);
    ++wake_epoch_;
  }
  sleep_cv_.notify_all();
}

std::vector<FrameTask> ShardedJobQueue::acquire_batch(
    int fabric_id, const std::optional<std::string>& fabric_impl, unsigned capabilities,
    const HostFilter& can_host, int max_batch) {
  FabricSlot& slot = slot_of(fabric_id);
  if (max_batch <= 0) max_batch = std::max(1, config_.max_batch);

  // Context eligibility is fixed per fabric: capability mask + placement
  // filter over the interned context set, resolved once per call.
  const std::size_t nctx = ctx_names_.size();
  std::vector<bool> ctx_ok(nctx, false);
  int active_ctx = -1;
  for (std::size_t c = 0; c < nctx; ++c) {
    if ((ctx_kernels_[c] & capabilities) == 0) continue;
    if (can_host && !can_host(ctx_names_[c])) continue;
    ctx_ok[c] = true;
  }
  if (fabric_impl)
    for (std::size_t c = 0; c < nctx; ++c)
      if (ctx_names_[c] == *fabric_impl) active_ctx = static_cast<int>(c);

  const auto work_possible = [&] {
    for (std::size_t c = 0; c < nctx; ++c)
      if (ctx_ok[c] && jobs_left_[c].load(std::memory_order_seq_cst) > 0) return true;
    return false;
  };

  for (;;) {
    // Candidate shards in service-priority order. All reads here are the
    // racy atomic hints; the pop below re-checks under the shard lock.
    std::vector<std::size_t> candidates;
    candidates.reserve(shard_total_);
    const std::uint64_t seq_now = dispatch_seq_.load(std::memory_order_seq_cst);

    // 1. Ageing valve: any hostable shard whose head waited past the
    //    threshold is served first, oldest head first — the sharded
    //    equivalent of the single queue's per-dispatch ageing check.
    std::size_t aged = shard_total_;
    std::uint64_t aged_head = kEmptyHead;
    bool saw_placement_skip = false;
    for (std::size_t c = 0; c < nctx; ++c) {
      for (std::size_t w = 0; w < ways_; ++w) {
        const std::size_t idx = c * ways_ + w;
        const std::uint64_t head = shards_[idx].head_seq.load(std::memory_order_seq_cst);
        if (head == kEmptyHead) continue;
        if (!ctx_ok[c]) {
          // A capability-eligible job this fabric cannot place: the
          // placement-rejection accounting the geometry report shows.
          if ((ctx_kernels_[c] & capabilities) != 0) saw_placement_skip = true;
          continue;
        }
        if (seq_now - head >= config_.aging_threshold && head < aged_head) {
          aged_head = head;
          aged = idx;
        }
      }
    }
    if (aged != shard_total_) candidates.push_back(aged);

    // 2. Affinity: the home sub-shard of the active context, then its
    //    siblings (no reconfiguration either way), while the run cap
    //    allows.
    const bool run_capped = active_ctx >= 0 && slot.run_impl == *fabric_impl &&
                            slot.run_length >= config_.max_affinity_run;
    const std::size_t home_way = static_cast<std::size_t>(fabric_id) % ways_;
    if (active_ctx >= 0 && ctx_ok[static_cast<std::size_t>(active_ctx)] && !run_capped &&
        config_.policy == SchedulingPolicy::kAffinityBatched) {
      for (std::size_t w = 0; w < ways_; ++w) {
        const std::size_t idx =
            static_cast<std::size_t>(active_ctx) * ways_ + (home_way + w) % ways_;
        if (shards_[idx].count.load(std::memory_order_seq_cst) > 0)
          candidates.push_back(idx);
      }
    }

    // 3. Switch steal: contexts by visible backlog, largest first, so the
    //    reconfiguration is amortized over the biggest batch — skipping
    //    the active context when the run cap forces a rotation.
    std::vector<std::pair<std::uint64_t, std::size_t>> backlog;  // (count, ctx)
    for (std::size_t c = 0; c < nctx; ++c) {
      if (!ctx_ok[c]) continue;
      if (run_capped && static_cast<int>(c) == active_ctx) continue;
      std::uint64_t total = 0;
      for (std::size_t w = 0; w < ways_; ++w)
        total += shards_[c * ways_ + w].count.load(std::memory_order_seq_cst);
      if (total > 0) backlog.emplace_back(total, c);
    }
    std::sort(backlog.begin(), backlog.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [total, c] : backlog)
      for (std::size_t w = 0; w < ways_; ++w) {
        const std::size_t idx = c * ways_ + (home_way + w) % ways_;
        if (shards_[idx].count.load(std::memory_order_seq_cst) > 0)
          candidates.push_back(idx);
      }
    // A run-capped fabric with nowhere to rotate keeps its own context
    // (the cap bounds batching, not liveness).
    if (run_capped && candidates.empty() && ctx_ok[static_cast<std::size_t>(active_ctx)])
      for (std::size_t w = 0; w < ways_; ++w) {
        const std::size_t idx =
            static_cast<std::size_t>(active_ctx) * ways_ + (home_way + w) % ways_;
        if (shards_[idx].count.load(std::memory_order_seq_cst) > 0)
          candidates.push_back(idx);
      }

    for (const std::size_t idx : candidates) {
      Shard& shard = shards_[idx];
      std::vector<Ready> popped;
      {
        std::lock_guard lock(shard.m);
        if (shard.jobs.empty()) continue;  // drained since the scan
        // Take up to half the shard (at least one), capped by max_batch:
        // the rest stays visible to sibling stealers.
        const std::size_t take = std::min<std::size_t>(
            static_cast<std::size_t>(max_batch), (shard.jobs.size() + 1) / 2);
        for (std::size_t t = 0; t < take; ++t) {
          popped.push_back(shard.jobs.front());
          shard.jobs.pop_front();
        }
        shard.head_seq.store(shard.jobs.empty() ? kEmptyHead : shard.jobs.front().ready_seq,
                             std::memory_order_seq_cst);
        shard.count.store(static_cast<std::uint32_t>(shard.jobs.size()),
                          std::memory_order_seq_cst);
      }

      const int ctx = popped.front().ctx;
      const std::string& ctx_name = context_name(ctx);
      if (slot.run_impl == ctx_name) {
        slot.run_length += static_cast<int>(popped.size());
      } else {
        slot.run_impl = ctx_name;
        slot.run_length = static_cast<int>(popped.size());
      }
      const std::size_t home_shard = static_cast<std::size_t>(ctx) * ways_ + home_way;
      if (idx != home_shard || (active_ctx >= 0 && ctx != active_ctx)) {
        slot.steals.fetch_add(1, std::memory_order_relaxed);
        if (config_.flight != nullptr) {
          config_.flight->record(fabric_id, health::EventKind::kSteal,
                                 popped.front().stream_id,
                                 popped.front().frame_index,
                                 static_cast<std::uint64_t>(ctx));
        }
      }
      slot.batches.fetch_add(1, std::memory_order_relaxed);
      if (saw_placement_skip) slot.placement_skips.fetch_add(1, std::memory_order_relaxed);

      bool exit_candidates_changed = false;
      std::vector<FrameTask> batch;
      batch.reserve(popped.size());
      for (const Ready& entry : popped) {
        const std::uint64_t seq = dispatch_seq_.fetch_add(1, std::memory_order_seq_cst) + 1;
        const std::uint64_t wait = seq - 1 - entry.ready_seq;
        // Single-writer max: a plain load/compare/store is race-free here
        // (only this worker writes its slot).
        if (wait > slot.max_wait.load(std::memory_order_relaxed))
          slot.max_wait.store(wait, std::memory_order_relaxed);
        if (jobs_left_[static_cast<std::size_t>(entry.ctx)].fetch_sub(
                1, std::memory_order_seq_cst) == 1)
          exit_candidates_changed = true;  // starved workers may now exit
        slot.events.push_back({event_tick_.fetch_add(1, std::memory_order_seq_cst) + 1,
                               true, entry.stream_id, entry.frame_index, fabric_id,
                               entry.stage});
        FrameTask task;
        task.stream_id = entry.stream_id;
        task.frame_index = entry.frame_index;
        task.stage = entry.stage;
        task.wait_dispatches = wait;
        task.ready_time = entry.ready_time;
        batch.push_back(task);
      }
      if (exit_candidates_changed) wake_sleepers();
      return batch;
    }

    if (!work_possible()) return {};

    // Nothing visible but jobs are still in flight: sleep until a push
    // (or a context draining) bumps the epoch. Registering as a sleeper
    // BEFORE the re-check pairs with the pushers' post-push sleepers_
    // load — one side always sees the other. The timeout is the
    // belt-and-braces liveness floor.
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock sl(sleep_m_);
      const std::uint64_t epoch = wake_epoch_;
      // Re-check after registering: a push or a context draining to zero
      // since the scan above means skip the wait and loop again.
      bool state_changed = !work_possible();
      for (std::size_t idx = 0; idx < shard_total_ && !state_changed; ++idx)
        state_changed = ctx_ok[idx / ways_] &&
                        shards_[idx].count.load(std::memory_order_seq_cst) > 0;
      if (!state_changed)
        sleep_cv_.wait_for(sl, std::chrono::milliseconds(1),
                           [&] { return wake_epoch_ != epoch; });
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void ShardedJobQueue::complete_batch(const std::vector<CompletedTask>& batch,
                                     int fabric_id) {
  if (batch.empty()) return;
  FabricSlot& slot = slot_of(fabric_id);
  completions_.fetch_add(batch.size(), std::memory_order_relaxed);
  const auto now = std::chrono::steady_clock::now();  // one stamp per batch
  std::vector<Ready> successors;
  successors.reserve(batch.size() + 1);
  for (const CompletedTask& done : batch) {
    const FrameTask& task = done.task;
    slot.events.push_back({event_tick_.fetch_add(1, std::memory_order_seq_cst) + 1, false,
                           task.stream_id, task.frame_index, fabric_id, task.stage,
                           done.reconfig_cycles});
    const auto stream_id = static_cast<std::size_t>(task.stream_id);
    std::lock_guard progress_lock(progress_m_[stream_id]);
    for (const StageJob& job : dag_.complete(streams_[stream_id], progress_[stream_id],
                                             {task.stage, task.frame_index}, now))
      successors.push_back(ready_of(task.stream_id, job, now));
  }
  push_group(successors);
}

std::string ShardedJobQueue::required_context(const FrameTask& task) const {
  return context_of(streams_[static_cast<std::size_t>(task.stream_id)],
                    {task.stage, task.frame_index});
}

std::uint64_t ShardedJobQueue::dispatches() const {
  return dispatch_seq_.load(std::memory_order_seq_cst);
}

std::uint64_t ShardedJobQueue::max_wait_dispatches() const {
  std::lock_guard lock(slots_m_);
  std::uint64_t max_wait = 0;
  for (const FabricSlot& slot : slots_)
    max_wait = std::max(max_wait, slot.max_wait.load(std::memory_order_relaxed));
  return max_wait;
}

std::vector<std::uint64_t> ShardedJobQueue::placement_skips() const {
  std::lock_guard lock(slots_m_);
  std::vector<std::uint64_t> skips(slot_by_fabric_.size(), 0);
  for (std::size_t f = 0; f < slot_by_fabric_.size(); ++f)
    if (slot_by_fabric_[f] != nullptr)
      skips[f] = slot_by_fabric_[f]->placement_skips.load(std::memory_order_relaxed);
  return skips;
}

std::vector<StageEvent> ShardedJobQueue::timeline() const {
  std::lock_guard lock(slots_m_);
  // Each slot's buffer is already tick-ordered — its owner draws ticks
  // from the shared counter and appends in draw order — so the global
  // log is a k-way merge over the fabrics, not a full sort.
  std::size_t total = 0;
  for (const FabricSlot& slot : slots_) total += slot.events.size();
  std::vector<StageEvent> merged;
  merged.reserve(total);
  std::vector<std::size_t> cursor(slots_.size(), 0);
  while (merged.size() < total) {
    std::size_t best = slots_.size();
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (cursor[s] >= slots_[s].events.size()) continue;
      if (best == slots_.size() ||
          slots_[s].events[cursor[s]].tick < slots_[best].events[cursor[best]].tick)
        best = s;
    }
    merged.push_back(slots_[best].events[cursor[best]]);
    ++cursor[best];
  }
  return merged;
}

std::uint64_t ShardedJobQueue::steals() const {
  std::lock_guard lock(slots_m_);
  std::uint64_t total = 0;
  for (const FabricSlot& slot : slots_)
    total += slot.steals.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t ShardedJobQueue::dispatch_batches() const {
  std::lock_guard lock(slots_m_);
  std::uint64_t total = 0;
  for (const FabricSlot& slot : slots_)
    total += slot.batches.load(std::memory_order_relaxed);
  return total;
}

health::QueueHealthSample ShardedJobQueue::health_sample() const {
  health::QueueHealthSample sample;
  const std::uint64_t seq_now = dispatch_seq_.load(std::memory_order_seq_cst);
  sample.dispatches = seq_now;
  sample.completions = completions_.load(std::memory_order_relaxed);
  sample.shards.reserve(shard_total_);
  for (std::size_t idx = 0; idx < shard_total_; ++idx) {
    health::ShardHealth sh;
    sh.shard = static_cast<int>(idx);
    sh.depth = shards_[idx].count.load(std::memory_order_seq_cst);
    const std::uint64_t head = shards_[idx].head_seq.load(std::memory_order_seq_cst);
    if (head != kEmptyHead && head <= seq_now) sh.oldest_age = seq_now - head;
    sample.depth += sh.depth;
    sample.oldest_age = std::max(sample.oldest_age, sh.oldest_age);
    sample.shards.push_back(sh);
  }
  sample.steals = steals();
  sample.batches = dispatch_batches();
  return sample;
}

}  // namespace dsra::runtime
