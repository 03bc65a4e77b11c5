// Simulated-time reconstruction of a scheduler run.
//
// The fabrics are simulated hardware, so throughput claims are made in
// modeled array cycles, not host wall time (the host may serialize the
// worker threads on a single core; the modeled arrays do not). This
// module replays a run's dispatch timeline as a discrete-event schedule:
// jobs keep the fabric assignment and per-fabric order the scheduler
// chose, every job costs its modeled array cycles, and a job starts no
// earlier than its data dependencies completed. Dependencies and stage
// costs are the frame-stage DAG's (stage_dag.hpp), the same rules the
// queues release jobs by. The resulting makespan and per-fabric busy
// cycles are deterministic for a given timeline, which makes
// pipeline-overlap assertions and bench speedups independent of host
// load and core count.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/job.hpp"

namespace dsra::runtime {

struct SimStageJob {
  int stream_id = 0;
  int frame_index = 0;
  int fabric_id = -1;
  StageKind stage = StageKind::kWholeFrame;
  /// Cycle at which the job's data dependencies were satisfied; the gap
  /// up to start_cycles is time spent waiting for the assigned fabric.
  std::uint64_t ready_cycles = 0;
  std::uint64_t start_cycles = 0;
  std::uint64_t end_cycles = 0;
  std::uint64_t reconfig_cycles = 0;  ///< context-fetch + switch share of the duration
  /// Cycles this job waited for the *physical* configuration port while a
  /// co-tenant slot on the same fabric was loading a context. Always 0
  /// for exclusive slots and for jobs with no reconfiguration charge.
  std::uint64_t port_wait_cycles = 0;
};

struct SimSchedule {
  std::vector<SimStageJob> jobs;
  std::uint64_t makespan_cycles = 0;
  std::vector<std::uint64_t> fabric_busy_cycles;  ///< indexed by fabric id
  /// Per-slot cycles spent waiting for the shared configuration port
  /// (slot-indexed, like fabric_busy_cycles). Nonzero only when co-tenant
  /// slots contend for one physical port.
  std::vector<std::uint64_t> port_wait_cycles;
  /// Total configuration-port contention across the pool: the sum of
  /// port_wait_cycles.
  std::uint64_t contention_cycles = 0;
  /// Mean busy fraction over [0, makespan] across the fabrics that ran
  /// at least one job.
  double mean_utilization = 0.0;
};

/// Replay @p timeline (a RunReport's event log) against the completed
/// @p streams. Job costs come from the per-frame stats through
/// stage_cycles(): the ME stage costs the frame's ME-array cycles, the
/// DCT/quant and reconstruct stages each cost the frame's DCT-array
/// cycles (forward and inverse pass), and a whole-frame job costs their
/// sum. On top of that, every
/// job is charged the context-fetch + configuration-port cycles its
/// completion event recorded, so switching bitstreams mid-stream (the
/// dynamic-condition workload) costs modeled time, not just a counter.
/// @p pipeline_lookahead must match the queue configuration the run used.
///
/// @p slot_physical maps each slot (fabric id in the timeline) to the
/// physical fabric it lives on (FabricPool::physical_of()). Co-tenant
/// slots share one configuration port: their reconfiguration charges
/// serialize, and a job whose context load finds the port busy waits
/// (charged as port_wait_cycles) before its reconfiguration begins.
/// Null (the default) means every slot owns its port — the exclusive
/// topology, which reproduces the historical schedule bit-exactly.
[[nodiscard]] SimSchedule simulate_timeline(const std::vector<StreamJob>& streams,
                                            const std::vector<StageEvent>& timeline,
                                            int pipeline_lookahead = 1,
                                            const std::vector<int>* slot_physical = nullptr);

}  // namespace dsra::runtime
