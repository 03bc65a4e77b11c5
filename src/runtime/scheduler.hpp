// Reconfiguration-aware multi-stream encode scheduler.
//
// Accepts N concurrent encode jobs and drives them over a pool of K
// simulated fabrics, one worker thread per fabric. Two dispatch modes:
//
//  * kMonolithicFrames — frame-at-a-time batch serving (the PR-1 runtime):
//    one job encodes a whole frame, motion estimation runs inline on the
//    worker, and only DCT-capable fabrics participate.
//  * kStagePipeline — each frame is split into the paper's kernel stages
//    (ME on the systolic array fabric, DCT/quant and reconstruction on
//    the DA/CORDIC fabric) with frame-level pipelining: frame k+1's ME
//    overlaps frame k's DCT/quant, and independent streams overlap across
//    fabrics of different kernel capabilities.
//
// Every dispatch goes through a ready queue's policy (config-affinity
// batching with fairness valves, or naive round-robin as the baseline):
// the single lock-guarded JobQueue when JobQueueConfig::shards is 1, the
// ShardedJobQueue when it is larger. Both release stage jobs through the
// frame-stage DAG (stage_dag.hpp). Every fabric switch pays the measured
// configuration-port cycles — charged per kernel, so the ME context loads
// are visible separately — and every context-cache miss pays bus fetch
// cycles. The returned
// RunReport carries per-stream latency percentiles, the stage dispatch
// timeline, per-fabric busy time and the aggregate throughput and
// reconfiguration accounting the acceptance benches compare across
// policies and modes.
#pragma once

#include <vector>

#include "me/systolic.hpp"
#include "runtime/admission.hpp"
#include "runtime/fabric_pool.hpp"
#include "runtime/job_queue.hpp"
#include "runtime/stats.hpp"

namespace dsra::runtime {

namespace telemetry {
class TraceRecorder;   // telemetry/trace.hpp
class MetricsRegistry;  // telemetry/metrics.hpp
}  // namespace telemetry

namespace health {
class HealthMonitor;  // health/monitor.hpp
}  // namespace health

struct SchedulerConfig {
  int fabrics = 2;  ///< homogeneous pool size (ignored when fabric_configs set)
  std::vector<FabricConfig> fabric_configs;  ///< heterogeneous pool, one per fabric
  JobQueueConfig queue;
  FabricConfig fabric;    ///< template for the homogeneous pool
  me::SystolicParams me;  ///< ME array model the workers search with

  /// Admission control. Disabled (the default) keeps the historical
  /// admit-everything behaviour bit-exactly. Enabled, run() walks the
  /// degradation ladder per stream — in arrival order, against the pilot
  /// schedule of everything admitted so far — before building the queue;
  /// shed streams dispatch nothing and their contexts are released from
  /// every fabric cache.
  AdmissionConfig admission;

  /// Span tracing. Null (the default) is the zero-cost-off state: every
  /// recording site in the worker loop is guarded by this one pointer
  /// test, and modeled-cycle results are bit-exact either way — the
  /// recorder only observes. When set, the run's RunReport carries the
  /// typed span stream and per-stream stall attribution.
  telemetry::TraceRecorder* trace = nullptr;
  /// Metrics sink. When set, the scheduler fills it after the run with
  /// counters, gauges, latency histograms and per-epoch timelines (an
  /// internal recorder supplies the spans if `trace` is null).
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Epochs the post-run timelines are sampled at. The registry's own
  /// timeline cap still applies (it records epochs_dropped past it), so
  /// long serve_streams runs can raise both instead of silently losing
  /// the tail.
  int timeline_epochs = 32;

  /// Live health monitor. Null (the default) is zero-cost-off, same
  /// idiom as `trace`: every worker hook is guarded by this one pointer
  /// test and the monitor only observes, so modeled cycles and encoded
  /// output are bit-exact either way. When set, run() computes analytic
  /// per-stream SLA budgets (the admission cost model), starts the
  /// monitor's epoch sampler over the live queue, feeds the flight
  /// recorder from the worker loop and the sharded queue's steal path,
  /// and exports `health_anomalies_total` into `metrics`.
  health::HealthMonitor* health = nullptr;

  /// The one normalization point of the two construction paths: the
  /// explicit per-fabric list when set, otherwise `fabrics` copies of
  /// the homogeneous `fabric` template. Everything downstream (the
  /// scheduler, the pool, validation, reports) consumes this resolved
  /// vector only. Throws std::invalid_argument on an empty resolution.
  [[nodiscard]] std::vector<FabricConfig> resolved_fabrics() const;
};

class MultiStreamScheduler {
 public:
  /// @p library outlives the scheduler; it is shared read-only. The
  /// config's fabric list is resolved and validated here (every fabric
  /// geometry must be compiled into the library) — the single
  /// validation site for both pool construction paths.
  explicit MultiStreamScheduler(const KernelLibrary& library, SchedulerConfig config = {});

  /// Encode every stream to completion (blocking); @p streams is mutated
  /// in place (reconstructions, per-frame records). Returns the aggregate
  /// report. Rejected up front with std::invalid_argument: streams whose
  /// impl_name the library does not know, pools whose combined kernel
  /// capabilities cannot run the workload, and — the placement-
  /// feasibility fail-fast — streams whose condition trajectory can
  /// select an implementation no fabric geometry in the pool places
  /// (the diagnostic names the implementation, the frame it is first
  /// selected at, and the pool's geometries).
  RunReport run(std::vector<StreamJob>& streams);

 private:
  const KernelLibrary& library_;
  SchedulerConfig config_;
};

}  // namespace dsra::runtime
