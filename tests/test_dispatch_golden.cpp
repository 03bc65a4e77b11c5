// Golden pins for dispatch decisions: both ready queues, the simulated-
// time replay and the admission ladder. Each queue is drained from one
// thread over all-kernel fabric ids, every batch completed before the next
// acquire, so no call blocks and the decision sequence is a pure function
// of the workload and the queue configuration. FNV-1a digests of every
// dispatch, timeline, counter set and sim job table are compared against
// pinned values; a refactor that reorders one dispatch, one successor
// release or one modeled cycle fails here.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/report.hpp"
#include "runtime/admission.hpp"
#include "runtime/sharded_queue.hpp"
#include "runtime/sim_schedule.hpp"

namespace dsra::runtime {
namespace {

constexpr int kFabrics = 3;
/// Slots 0 and 1 share one physical configuration port.
const std::vector<int> kSlotPhysical{0, 0, 1};

void put(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
  out += ',';
}

/// Seven streams covering the dispatch edge cases: a single-frame stream
/// first (the sharded queue interns contexts in stream order), two
/// equally-ready streams told apart only by their SLA deadlines, a
/// hysteresis trajectory that re-buckets mid-stream, a resumed stream
/// (next_frame > 0) and a stream that is already finished.
std::vector<StreamJob> golden_streams() {
  const soc::RuntimeCondition conditions[] = {
      {1.0, 1.0}, {0.5, 0.9}, {0.9, 0.3}, {0.1, 0.9}};
  const int budgets[] = {1, 6, 5, 7, 6, 5, 4};
  std::vector<StreamJob> jobs;
  for (int k = 0; k < 7; ++k) {
    StreamConfig cfg;
    cfg.name = "g" + std::to_string(k);
    cfg.width = 16;
    cfg.height = 16;
    cfg.frame_budget = budgets[k];
    cfg.condition = conditions[k % 4];
    cfg.seed = 4100 + static_cast<std::uint64_t>(k);
    if (k == 1) cfg.sla.deadline_cycles = 90000;
    if (k == 5) cfg.sla.deadline_cycles = 40000;
    if (k == 4) {
      cfg.trajectory = soc::sinusoidal_channel_fade(0.6, 0.5, 0.45, 4.0);
      cfg.condition_policy = soc::ConditionPolicy::kHysteresis;
    }
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  jobs[3].next_frame = 2;  // resumed: frames 0-1 were encoded by an earlier run
  jobs[6].next_frame = static_cast<int>(jobs[6].frames.size());  // nothing left
  return jobs;
}

/// Synthetic per-frame kernel cycles, distinct per stream and frame so the
/// replay's dependency edges all show in the makespan.
void record_frame(StreamJob& stream, const FrameTask& task, int fabric_id) {
  FrameRecord record;
  record.frame_index = task.frame_index;
  record.fabric_id = fabric_id;
  record.impl = stream.impl_for(task.frame_index);
  record.stats.dct_array_cycles = 900 + 37 * static_cast<std::uint64_t>(stream.id) +
                                  11 * static_cast<std::uint64_t>(task.frame_index);
  record.stats.me_array_cycles =
      task.frame_index > 0 ? 1300 + 53 * static_cast<std::uint64_t>(stream.id) : 0;
  stream.records.push_back(record);
}

struct Digests {
  std::string dispatches;
  std::string timeline;
  std::string counters;
  std::string sim;
  std::string sim_physical;
};

std::string sim_bytes(const SimSchedule& sim) {
  std::string out;
  for (const SimStageJob& j : sim.jobs) {
    put(out, static_cast<std::uint64_t>(j.stream_id));
    put(out, static_cast<std::uint64_t>(j.frame_index));
    put(out, static_cast<std::uint64_t>(j.fabric_id));
    put(out, static_cast<std::uint64_t>(j.stage));
    put(out, j.ready_cycles);
    put(out, j.start_cycles);
    put(out, j.end_cycles);
    put(out, j.reconfig_cycles);
    put(out, j.port_wait_cycles);
    out += ';';
  }
  put(out, sim.makespan_cycles);
  put(out, sim.contention_cycles);
  for (const std::uint64_t busy : sim.fabric_busy_cycles) put(out, busy);
  return out;
}

/// Drain one queue over kFabrics all-kernel fabric ids served round-robin.
/// Each fabric tracks its active context; a task whose context differs
/// pays a reconfiguration charge, so the replay sees switch costs.
template <typename Queue>
void drive(const JobQueueConfig& cfg, Digests& out) {
  std::vector<StreamJob> streams = golden_streams();
  Queue queue(streams, cfg);
  const bool staged = cfg.mode == DispatchMode::kStagePipeline;
  // Release time of each frame's first stage job, to check first_ready.
  std::map<std::pair<int, int>, std::chrono::steady_clock::time_point> opened;

  std::vector<std::optional<std::string>> active(kFabrics);
  std::vector<CompletedTask> done;
  bool any = true;
  while (any) {
    any = false;
    for (int f = 0; f < kFabrics; ++f) {
      const std::vector<FrameTask> batch = queue.acquire_batch(
          f, active[static_cast<std::size_t>(f)], kCapAllKernels, nullptr, cfg.max_batch);
      if (batch.empty()) continue;
      any = true;
      done.clear();
      for (const FrameTask& task : batch) {
        put(out.dispatches, static_cast<std::uint64_t>(task.stream_id));
        put(out.dispatches, static_cast<std::uint64_t>(task.stage));
        put(out.dispatches, static_cast<std::uint64_t>(task.frame_index));
        put(out.dispatches, static_cast<std::uint64_t>(f));
        put(out.dispatches, task.wait_dispatches);
        out.dispatches += ';';
        const bool first_stage =
            task.stage == StageKind::kMotionEstimation ||
            (task.stage == StageKind::kTransformQuant && task.frame_index == 0);
        if (staged && first_stage) opened[{task.stream_id, task.frame_index}] = task.ready_time;

        StreamJob& stream = streams[static_cast<std::size_t>(task.stream_id)];
        const std::string context = queue.required_context(task);
        const std::uint64_t reconfig =
            active[static_cast<std::size_t>(f)] == context ? 0 : 400 + 10 * context.size();
        active[static_cast<std::size_t>(f)] = context;
        if (task.stage == StageKind::kWholeFrame ||
            task.stage == StageKind::kReconstructEntropy)
          record_frame(stream, task, f);
        done.push_back(CompletedTask{task, reconfig});
      }
      queue.complete_batch(done, f);
    }
  }

  for (const StreamJob& s : streams) EXPECT_TRUE(s.finished()) << s.config.name;
  if (staged) {
    for (const auto& [key, ready_time] : opened)
      EXPECT_EQ(streams[static_cast<std::size_t>(key.first)]
                    .pipeline[static_cast<std::size_t>(key.second)]
                    .first_ready,
                ready_time)
          << "stream " << key.first << " frame " << key.second;
  }

  const std::vector<StageEvent> timeline = queue.timeline();
  for (const StageEvent& e : timeline) {
    put(out.timeline, e.tick);
    put(out.timeline, e.start ? 1 : 0);
    put(out.timeline, static_cast<std::uint64_t>(e.stream_id));
    put(out.timeline, static_cast<std::uint64_t>(e.frame_index));
    put(out.timeline, static_cast<std::uint64_t>(e.fabric_id));
    put(out.timeline, static_cast<std::uint64_t>(e.stage));
    put(out.timeline, e.reconfig_cycles);
    out.timeline += ';';
  }

  put(out.counters, queue.dispatches());
  put(out.counters, queue.max_wait_dispatches());
  if constexpr (std::is_same_v<Queue, ShardedJobQueue>) {
    put(out.counters, static_cast<std::uint64_t>(queue.shard_count()));
    put(out.counters, queue.steals());
    put(out.counters, queue.dispatch_batches());
  }
  out.counters += ';';

  out.sim += sim_bytes(simulate_timeline(streams, timeline, cfg.pipeline_lookahead));
  out.sim_physical +=
      sim_bytes(simulate_timeline(streams, timeline, cfg.pipeline_lookahead, &kSlotPhysical));
}

/// Fairness valves: the defaults, and small values that make the run cap,
/// the ageing valve and the hard age bound all fire on this workload.
std::vector<JobQueueConfig> valve_sets() {
  JobQueueConfig defaults;
  JobQueueConfig tight;
  tight.max_affinity_run = 2;
  tight.aging_threshold = 3;
  tight.hard_age_bound = 5;
  JobQueueConfig derived;
  derived.max_affinity_run = 3;
  derived.aging_threshold = 2;  // hard bound derives to 4
  return {defaults, tight, derived};
}

/// Every case of one (mode, policy) group, folded in a fixed order.
template <typename Queue>
Digests group_digests(DispatchMode mode, SchedulingPolicy policy) {
  Digests digests;
  const std::vector<int> lookaheads =
      mode == DispatchMode::kStagePipeline ? std::vector<int>{0, 1, 2} : std::vector<int>{1};
  for (const JobQueueConfig& valves : valve_sets()) {
    for (const int lookahead : lookaheads) {
      JobQueueConfig cfg = valves;
      cfg.mode = mode;
      cfg.policy = policy;
      cfg.pipeline_lookahead = lookahead;
      if constexpr (std::is_same_v<Queue, ShardedJobQueue>) {
        for (int shards = 1; shards <= 4; ++shards) {
          for (const int max_batch : {1, 8, 32}) {
            cfg.shards = shards;
            cfg.max_batch = max_batch;
            drive<Queue>(cfg, digests);
          }
        }
      } else {
        drive<Queue>(cfg, digests);
      }
    }
  }
  return digests;
}

struct GroupPin {
  DispatchMode mode;
  SchedulingPolicy policy;
  const char* dispatches;
  const char* timeline;
  const char* counters;
  const char* sim;
  const char* sim_physical;
};

template <typename Queue>
void expect_pins(const std::vector<GroupPin>& pins) {
  for (const GroupPin& pin : pins) {
    const Digests d = group_digests<Queue>(pin.mode, pin.policy);
    const std::string label = to_string(pin.mode) + " / " + to_string(pin.policy);
    EXPECT_EQ(fnv1a_hex(d.dispatches), pin.dispatches) << label;
    EXPECT_EQ(fnv1a_hex(d.timeline), pin.timeline) << label;
    EXPECT_EQ(fnv1a_hex(d.counters), pin.counters) << label;
    EXPECT_EQ(fnv1a_hex(d.sim), pin.sim) << label;
    EXPECT_EQ(fnv1a_hex(d.sim_physical), pin.sim_physical) << label;
  }
}

TEST(DispatchGolden, JobQueueDecisionsAndReplayArePinned) {
  expect_pins<JobQueue>({
      {DispatchMode::kMonolithicFrames, SchedulingPolicy::kRoundRobin,
       "86c39a36d8aba878", "9431e27ff6588bb7", "6993238625fbe401",
       "2ab08ef84defaff8", "e2bee6ecad722312"},
      {DispatchMode::kMonolithicFrames, SchedulingPolicy::kAffinityBatched,
       "1a7756d6382a7c1d", "af1d1ebe0589a8f1", "40f971d33ae01f74",
       "2333919a0a0ef12d", "4a159211d3947134"},
      {DispatchMode::kStagePipeline, SchedulingPolicy::kRoundRobin,
       "44317c7554ee3b85", "ffa4b94d0a5ac8e0", "1b7cd5c20bfde243",
       "a2e6e37375bf00fd", "b8a8d05f754c0bd6"},
      {DispatchMode::kStagePipeline, SchedulingPolicy::kAffinityBatched,
       "6375444c4b476084", "2f68f7fa8422cf6b", "6017ed3885e18262",
       "89731a9f500564f8", "6197c4bb906c4cce"},
  });
}

TEST(DispatchGolden, ShardedQueueDecisionsAndReplayArePinned) {
  expect_pins<ShardedJobQueue>({
      {DispatchMode::kMonolithicFrames, SchedulingPolicy::kRoundRobin,
       "81dc2ae259e16cc4", "d6299c575270b830", "62a6eb7454a6f6a8",
       "14f31147c739c390", "37b33f951d913c85"},
      {DispatchMode::kMonolithicFrames, SchedulingPolicy::kAffinityBatched,
       "088efc0d9a76c20d", "f50576bb1f54cf39", "4be85d2b7bca8161",
       "5be207856a18442a", "c5e7efe6a64916f9"},
      {DispatchMode::kStagePipeline, SchedulingPolicy::kRoundRobin,
       "f45e79dd3810eae4", "b407dd626b365e82", "89860ba60740d107",
       "01866bdeb5057f5c", "9ad23a458beb7bdd"},
      {DispatchMode::kStagePipeline, SchedulingPolicy::kAffinityBatched,
       "bd7c0b67cd0bc0bd", "4c63e2cc349fe2a5", "32eef61d487495d9",
       "f34e9b6034293f3c", "6f74bbeaa7df3fe9"},
  });
}

/// An overload set for a two-fabric pool: generous, tight, impossible and
/// p99-bound SLAs, best-effort callers, a hysteresis trajectory and mixed
/// frame sizes. The ladder admits clean, drops resolution, swaps the
/// context and sheds on this set.
std::vector<StreamJob> overload_streams() {
  struct Spec {
    int width, height, frames, me_range;
    soc::RuntimeCondition condition;
    std::uint64_t deadline, p99;
  };
  const Spec specs[] = {
      {48, 48, 4, 4, {1.0, 1.0}, 0, 0},
      {96, 96, 4, 4, {1.0, 1.0}, 140000, 0},
      {64, 64, 5, 4, {0.5, 0.9}, 2500000, 0},
      {64, 48, 4, 8, {0.9, 0.3}, 190000, 0},
      {32, 32, 6, 4, {0.1, 0.9}, 0, 120000},
      {64, 64, 4, 4, {1.0, 1.0}, 1, 0},
      {48, 32, 5, 4, {0.5, 0.9}, 250000, 300000},
      {64, 64, 6, 4, {0.9, 0.3}, 0, 0},
      {40, 40, 4, 4, {0.1, 0.9}, 1500000, 0},
  };
  std::vector<StreamJob> jobs;
  int k = 0;
  for (const Spec& s : specs) {
    StreamConfig cfg;
    cfg.name = "o" + std::to_string(k);
    cfg.width = s.width;
    cfg.height = s.height;
    cfg.frame_budget = s.frames;
    cfg.codec.me_range = s.me_range;
    cfg.condition = s.condition;
    cfg.sla.deadline_cycles = s.deadline;
    cfg.sla.p99_budget_cycles = s.p99;
    cfg.seed = 5200 + static_cast<std::uint64_t>(k);
    if (k == 6) {
      cfg.trajectory = soc::sinusoidal_channel_fade(0.6, 0.5, 0.45, 3.0);
      cfg.condition_policy = soc::ConditionPolicy::kHysteresis;
    }
    jobs.push_back(make_synthetic_job(k, cfg));
    ++k;
  }
  return jobs;
}

TEST(DispatchGolden, AdmissionRungsAndPredictionsArePinned) {
  const KernelLibrary library;
  FabricPool pool(2, library);
  AdmissionConfig acfg;
  acfg.enabled = true;
  AdmissionController controller(library, pool, me::SystolicParams{}, acfg);
  std::vector<StreamJob> streams = overload_streams();
  const AdmissionReport report = controller.admit_all(streams);

  std::string bytes;
  for (const AdmissionDecision& d : report.decisions) {
    bytes += d.name + ":" + to_string(d.rung) + ":" + d.note + ":";
    put(bytes, d.admitted ? 1 : 0);
    put(bytes, d.predicted_completion_cycles);
    put(bytes, d.predicted_p99_cycles);
    bytes += ';';
  }
  for (const StreamJob& s : streams) {
    put(bytes, s.predicted_completion_cycles);
    put(bytes, s.predicted_p99_cycles);
    for (int f = 0; f < static_cast<int>(s.frames.size()); ++f)
      put(bytes, controller.frame_cycles(s, f));
    bytes += ';';
  }
  put(bytes, report.admitted_clean);
  put(bytes, report.qp_bumps);
  put(bytes, report.resolution_drops);
  put(bytes, report.impl_swaps);
  put(bytes, report.rejected);
  char pressure[32];
  std::snprintf(pressure, sizeof pressure, "%.17g", report.pool_pressure);
  bytes += pressure;

  // The walk reaches the deep rungs, so the pin covers the whole ladder.
  EXPECT_GT(report.admitted_clean, 0u);
  EXPECT_GT(report.resolution_drops, 0u);
  EXPECT_GT(report.impl_swaps, 0u);
  EXPECT_GT(report.rejected, 0u);
  EXPECT_EQ(fnv1a_hex(bytes), "48412ed1f6513432");
}

}  // namespace
}  // namespace dsra::runtime
