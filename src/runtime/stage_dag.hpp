// The frame-stage DAG (directed acyclic graph of stage jobs), written once.
//
// The paper's SoC splits each frame into kernels on separate arrays:
// motion estimation on the systolic ME array (Fig 2), DCT/quant and
// reconstruction on the DA/CORDIC array (Fig 3). This module owns the
// three rules of that split:
//
//  * which stage jobs a frame has and which jobs each one waits on,
//  * which configuration context and kernel a job needs,
//  * what a stage costs given the frame's ME and DCT cycles.
//
// Both ready queues (JobQueue, ShardedJobQueue) seed jobs, release
// successors, count jobs left per context and stamp each frame's
// first_ready through StageDag; simulate_timeline takes its dependency
// edges and durations from dependencies() and stage_cycles(); the
// admission controller prices frames with stage_cycles().
//
// Dispatch modes and their jobs (frame k of one stream):
//
//   whole frame k : whole frame k-1                (kMonolithicFrames)
//   ME k          : ME k-1 and reconstruct k-1-lookahead
//   DCT/quant k   : ME k and reconstruct k-1       (it predicts from it)
//   reconstruct k : DCT/quant k                    (kStagePipeline)
//
// The intra frame 0 has no ME job. Motion estimation searches the
// previous *original* frame (open-loop), so frame k+1's ME needs only
// frame k to exist and overlaps frame k's DCT/quant on another fabric;
// pipeline_lookahead bounds how many frames ME runs ahead of
// reconstruction. A monolithic whole-frame job runs ME inline on the
// transform fabric, so it needs only the DCT kernel.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "runtime/job.hpp"

namespace dsra::runtime {

enum class DispatchMode { kMonolithicFrames, kStagePipeline };

[[nodiscard]] std::string to_string(DispatchMode mode);

inline constexpr std::size_t kStageKindCount = 4;  ///< values of StageKind

/// One node of the DAG: stage @p stage of frame @p frame of one stream.
struct StageJob {
  StageKind stage = StageKind::kWholeFrame;
  int frame = 0;
};

/// A short ordered list of jobs: a job's dependencies, or the jobs one
/// seed or completion releases (at most one per stage kind).
struct StageJobList {
  std::array<StageJob, kStageKindCount> jobs{};
  std::size_t size = 0;

  constexpr void push(StageJob job) { jobs[size++] = job; }
  [[nodiscard]] constexpr const StageJob* begin() const { return jobs.data(); }
  [[nodiscard]] constexpr const StageJob* end() const { return jobs.data() + size; }
};

/// First frame at or after @p frame that has a @p stage job: the intra
/// frame 0 has no motion estimation.
[[nodiscard]] constexpr int first_frame(StageKind stage, int frame) {
  return stage == StageKind::kMotionEstimation ? std::max(1, frame) : frame;
}

/// Jobs @p job waits on, in the same stream. Only jobs that exist are
/// listed: no negative frames, no ME job for the intra frame 0.
[[nodiscard]] constexpr StageJobList dependencies(StageJob job, int pipeline_lookahead) {
  const int k = job.frame;
  StageJobList deps;
  const auto add = [&deps](StageKind stage, int frame) {
    if (frame >= first_frame(stage, 0)) deps.push({stage, frame});
  };
  switch (job.stage) {
    case StageKind::kWholeFrame:
      add(StageKind::kWholeFrame, k - 1);
      break;
    case StageKind::kMotionEstimation:
      add(StageKind::kMotionEstimation, k - 1);
      add(StageKind::kReconstructEntropy, k - 1 - std::max(0, pipeline_lookahead));
      break;
    case StageKind::kTransformQuant:
      add(StageKind::kMotionEstimation, k);
      add(StageKind::kReconstructEntropy, k - 1);
      break;
    case StageKind::kReconstructEntropy:
      add(StageKind::kTransformQuant, k);
      break;
  }
  return deps;
}

/// Modeled array cycles of one frame's kernel passes.
struct FrameCycles {
  std::uint64_t me = 0;   ///< one ME search over the frame (0 for the intra frame)
  std::uint64_t dct = 0;  ///< one DCT-array pass, forward or inverse
};

/// Cycles @p stage costs: ME runs the search, DCT/quant and reconstruct
/// one DCT-array pass each, and a whole-frame job all three back to back.
[[nodiscard]] constexpr std::uint64_t stage_cycles(StageKind stage, FrameCycles cycles) {
  switch (stage) {
    case StageKind::kWholeFrame:
      return cycles.me + 2 * cycles.dct;
    case StageKind::kMotionEstimation:
      return cycles.me;
    case StageKind::kTransformQuant:
    case StageKind::kReconstructEntropy:
      return cycles.dct;
  }
  return 0;
}

/// Configuration context @p job of @p stream runs under — the affinity
/// key and the context the worker prepares. ME jobs share the systolic
/// array's context; every other stage runs the frame's DCT bitstream,
/// resolved per frame for a stream with a condition trajectory.
[[nodiscard]] const std::string& context_of(const StreamJob& stream, StageJob job);

/// Kernel capability @p context configures: the shared ME context runs on
/// the systolic array, every DCT bitstream on the transform array.
[[nodiscard]] unsigned context_kernel(const std::string& context);

/// Kernel capability a @p stage job needs (that of its context).
[[nodiscard]] constexpr unsigned stage_kernel(StageKind stage) {
  return stage == StageKind::kMotionEstimation ? kCapMotionEstimation : kCapDctTransform;
}

/// True for the stage that completes a frame's encode (whole frame or
/// reconstruct): its completion advances the stream's next_frame.
[[nodiscard]] constexpr bool ends_frame(StageKind stage) {
  return stage == StageKind::kWholeFrame || stage == StageKind::kReconstructEntropy;
}

/// Release progress of one stream through the DAG. Every stage kind runs
/// its frames in order, so per kind the next frame to release and the
/// count of frames completed are the whole state.
struct StageProgress {
  std::array<int, kStageKindCount> next{};
  std::array<int, kStageKindCount> done{};
};

/// The DAG of one dispatch mode and lookahead, with the release
/// bookkeeping both queues share. Stateless: the per-stream state lives
/// in the caller's StageProgress, under whatever lock guards the stream.
class StageDag {
 public:
  /// A negative @p pipeline_lookahead is clamped to 0.
  StageDag(DispatchMode mode, int pipeline_lookahead);

  /// Start @p stream at its next_frame: reset @p progress, size the
  /// per-frame pipeline state (stage mode) and release the jobs that wait
  /// on nothing.
  StageJobList seed(StreamJob& stream, StageProgress& progress,
                    std::chrono::steady_clock::time_point now) const;

  /// Mark @p finished complete — advancing stream.next_frame when it was
  /// the frame's last stage — and release the jobs it unblocks.
  StageJobList complete(StreamJob& stream, StageProgress& progress, StageJob finished,
                        std::chrono::steady_clock::time_point now) const;

  /// Call @p visit(context, jobs) for the jobs @p stream has left from
  /// next_frame on, stage by stage in frame order (ME first). The shared
  /// ME context is visited once, even with no ME job left, so the order
  /// in which contexts first appear depends only on the streams' contexts.
  void count_jobs(const StreamJob& stream,
                  const std::function<void(const std::string& context,
                                           std::uint64_t jobs)>& visit) const;

 private:
  /// Release every job whose dependencies are done, downstream stage
  /// first (reconstruct, DCT/quant, then ME). Both queues break ties by
  /// enqueue order, so this order is part of every dispatch decision.
  StageJobList release(StreamJob& stream, StageProgress& progress,
                       std::chrono::steady_clock::time_point now) const;

  DispatchMode mode_;
  int lookahead_;
};

}  // namespace dsra::runtime
