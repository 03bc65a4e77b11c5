// Admission control: per-stream SLAs, a deadline-feasibility test
// against the sim schedule, and a graceful-degradation ladder.
//
// The pool saturating is the normal case, not the exception: a fleet
// serving every arriving stream at 3x capacity misses every deadline,
// while one that admits what fits — degrading what almost fits — keeps
// the admitted tail bounded and delivers more SLA-compliant frames in
// total. The controller decides per arriving stream, in arrival order:
//
//  1. Build a *pilot schedule* of the already-admitted set plus the
//     candidate: per-frame stage costs from the analytic cost model
//     (content-independent — DCT cycles are blocks x cycles_for_block,
//     ME cycles are macroblocks x systolic_cycles_per_block, exactly
//     what the encoder charges), placed onto the fabrics the
//     feasibility matrix allows (FabricPool capacity probes), in the
//     same earliest-ready / tightest-deadline service order the
//     JobQueue uses. The pilot's timing authority is simulate_timeline
//     itself: the controller only fixes assignment and order, the sim
//     replay produces the predicted completion and per-frame latencies.
//  2. Test every SLA in the set (admitted streams must not be pushed
//     over their own deadlines by the newcomer) with a configurable
//     headroom for costs the pilot does not model (reconfiguration,
//     affinity-batching deviations from the service order).
//  3. On failure, walk the degradation ladder — bump QP, drop
//     resolution (4x fewer blocks), swap to the cheapest context that
//     still places on some capable fabric — re-testing each rung; the
//     rungs are cumulative quality concessions. Only when no rung fits
//     is the stream rejected.
//
// Under pool pressure (predicted demand near capacity over the deadline
// horizon) even feasible newcomers pay the QP bump: the fleet-wide
// bits-for-bandwidth concession of an overloaded serving tier.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "me/systolic.hpp"
#include "runtime/fabric_pool.hpp"
#include "runtime/job.hpp"
#include "runtime/stage_dag.hpp"

namespace dsra::runtime {

struct AdmissionConfig {
  bool enabled = false;  ///< off = the historical admit-everything world
  /// Safety margin the feasibility test applies to pilot predictions:
  /// admit only if predicted * headroom meets the SLA. Covers what the
  /// pilot does not model (reconfiguration cycles, affinity batching).
  double headroom = 1.25;
  /// Pool pressure (predicted demand / capacity over the deadline
  /// horizon) above which even feasible newcomers are admitted at the
  /// QP-bump rung.
  double qp_pressure = 0.70;
  double qp_bump_factor = 2.0;  ///< quantiser_scale multiplier per bump
  int min_dimension = 16;       ///< resolution-drop floor, pixels per axis
};

/// Outcome of one stream's ladder walk.
struct AdmissionDecision {
  int stream_id = 0;
  std::string name;
  bool admitted = false;
  DegradationRung rung = DegradationRung::kNone;  ///< kReject when !admitted
  std::uint64_t predicted_completion_cycles = 0;  ///< pilot, at the final rung
  std::uint64_t predicted_p99_cycles = 0;         ///< pilot per-frame p99
  std::uint64_t deadline_cycles = 0;              ///< the stream's SLA (0 = none)
  std::uint64_t p99_budget_cycles = 0;
  std::string note;  ///< human-readable why ("pool pressure 0.84", ...)
};

/// Aggregate admission outcome of one run — the per-rung counters the
/// RunReport and the metrics registry surface.
struct AdmissionReport {
  bool enabled = false;
  std::uint64_t arrived = 0;
  std::uint64_t admitted = 0;       ///< any rung except kReject
  std::uint64_t admitted_clean = 0; ///< kNone
  std::uint64_t qp_bumps = 0;
  std::uint64_t resolution_drops = 0;
  std::uint64_t impl_swaps = 0;
  std::uint64_t rejected = 0;
  /// Predicted demand / capacity of the final admitted set over the
  /// deadline horizon (what the QP-pressure rung triggers on).
  double pool_pressure = 0.0;
  std::vector<AdmissionDecision> decisions;  ///< arrival order
};

class AdmissionController {
 public:
  /// @p library and @p pool must outlive the controller. @p me_params is
  /// the scheduler's ME array model (the cost the workers will charge).
  AdmissionController(const KernelLibrary& library, const FabricPool& pool,
                      me::SystolicParams me_params, AdmissionConfig config = {});

  /// Walk the ladder for every stream in arrival (vector) order.
  /// Admitted-degraded streams are mutated in place (codec, frames,
  /// contexts); rejected streams are marked kReject with next_frame
  /// advanced past the end so the queue never dispatches them.
  AdmissionReport admit_all(std::vector<StreamJob>& streams);

  /// Single-stream ladder walk against the set admitted so far (state
  /// accumulates across calls — the arrival process). Mutates the
  /// candidate exactly like admit_all.
  AdmissionDecision admit(StreamJob& candidate);

  /// Analytic kernel cycles of @p job's frame @p frame: one ME search and
  /// one DCT pass, exactly what the encoder charges. Content-independent,
  /// hence exact before the frame is ever touched. Every cost the
  /// controller uses derives from this one function.
  [[nodiscard]] FrameCycles kernel_cycles(const StreamJob& job, int frame) const;

  /// Analytic whole-frame cost of @p job's frame @p frame in modeled
  /// cycles: stage_cycles(kWholeFrame, kernel_cycles()), what
  /// sim_schedule charges a kWholeFrame job of this frame once encoded.
  [[nodiscard]] std::uint64_t frame_cycles(const StreamJob& job, int frame) const;

  /// Cheapest DCT context (by cycles_for_block) that places on at least
  /// one DCT-capable fabric of the pool; empty when none does.
  [[nodiscard]] std::string cheapest_fitting_impl() const;

  /// Ladder rungs, exposed for the property tests. Each returns whether
  /// it changed the job (a no-op rung cannot help feasibility).
  static bool apply_qp_bump(StreamJob& job, double factor);
  static bool apply_resolution_drop(StreamJob& job, int min_dimension);
  /// Swaps every frame onto cheapest_fitting_impl(); counts the forced
  /// context change as a condition switch when it differs from what the
  /// stream's conditions had selected.
  [[nodiscard]] bool apply_impl_swap(StreamJob& job) const;

 private:
  struct PilotStream {
    int stream_id = 0;
    StreamSla sla;
    std::vector<FrameCycles> cycles;      ///< per frame
    std::vector<std::vector<int>> hosts;  ///< eligible fabric ids per frame
  };
  struct PilotOutcome {
    bool placeable = true;  ///< false: some frame had no eligible fabric
    std::vector<std::uint64_t> completion_cycles;  ///< per pilot stream
    std::vector<std::uint64_t> p99_cycles;         ///< per pilot stream
    std::uint64_t makespan_cycles = 0;
    double pressure = 0.0;  ///< busy / (fabrics x deadline horizon)
  };

  [[nodiscard]] PilotStream pilot_of(const StreamJob& job) const;
  /// List-schedule @p set in the queue's service order and replay it
  /// through simulate_timeline for the predicted timing.
  [[nodiscard]] PilotOutcome pilot(const std::vector<PilotStream>& set) const;
  /// Every SLA in @p set holds under @p outcome with headroom applied.
  [[nodiscard]] bool feasible(const PilotOutcome& outcome,
                              const std::vector<PilotStream>& set) const;

  const KernelLibrary& library_;
  const FabricPool& pool_;
  me::SystolicParams me_params_;
  AdmissionConfig config_;
  std::vector<PilotStream> admitted_;
  double last_pressure_ = 0.0;
  AdmissionReport report_;
};

}  // namespace dsra::runtime
