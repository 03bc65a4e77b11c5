#include "runtime/stage_dag.hpp"

#include <algorithm>
#include <span>

namespace dsra::runtime {

namespace {

constexpr std::array<StageKind, 1> kMonolithicStages{StageKind::kWholeFrame};
constexpr std::array<StageKind, 3> kPipelineStages{
    StageKind::kMotionEstimation, StageKind::kTransformQuant, StageKind::kReconstructEntropy};

/// Stage kinds of @p mode's frames, in frame order.
std::span<const StageKind> stages_of(DispatchMode mode) {
  if (mode == DispatchMode::kMonolithicFrames) return kMonolithicStages;
  return kPipelineStages;
}

std::size_t slot(StageKind stage) { return static_cast<std::size_t>(stage); }

}  // namespace

std::string to_string(DispatchMode mode) {
  return mode == DispatchMode::kMonolithicFrames ? "monolithic-frames" : "stage-pipeline";
}

const std::string& context_of(const StreamJob& stream, StageJob job) {
  static const std::string me_context{kMeContextName};
  if (job.stage == StageKind::kMotionEstimation) return me_context;
  return stream.impl_for(job.frame);
}

unsigned context_kernel(const std::string& context) {
  return context == kMeContextName ? kCapMotionEstimation : kCapDctTransform;
}

StageDag::StageDag(DispatchMode mode, int pipeline_lookahead)
    : mode_(mode), lookahead_(std::max(0, pipeline_lookahead)) {}

StageJobList StageDag::seed(StreamJob& stream, StageProgress& progress,
                            std::chrono::steady_clock::time_point now) const {
  if (mode_ == DispatchMode::kStagePipeline)
    stream.pipeline.assign(stream.frames.size(), FramePipelineState{});
  // A stream may arrive partially encoded (e.g. a second scheduler run
  // over the same jobs): every job before next_frame is done.
  progress.done.fill(stream.next_frame);
  for (const StageKind stage : stages_of(mode_))
    progress.next[slot(stage)] = first_frame(stage, stream.next_frame);
  return release(stream, progress, now);
}

StageJobList StageDag::complete(StreamJob& stream, StageProgress& progress,
                                StageJob finished,
                                std::chrono::steady_clock::time_point now) const {
  progress.done[slot(finished.stage)] = finished.frame + 1;
  if (ends_frame(finished.stage)) ++stream.next_frame;
  return release(stream, progress, now);
}

StageJobList StageDag::release(StreamJob& stream, StageProgress& progress,
                               std::chrono::steady_clock::time_point now) const {
  const std::span<const StageKind> stages = stages_of(mode_);
  const int frames = static_cast<int>(stream.frames.size());
  StageJobList released;
  for (auto stage = stages.rbegin(); stage != stages.rend(); ++stage) {
    const StageJob job{*stage, progress.next[slot(*stage)]};
    if (job.frame >= frames) continue;
    bool ready = true;
    bool opens_frame = true;  // no dependency inside its own frame
    for (const StageJob& dep : dependencies(job, lookahead_)) {
      ready = ready && dep.frame < progress.done[slot(dep.stage)];
      opens_frame = opens_frame && dep.frame != job.frame;
    }
    if (!ready) continue;
    ++progress.next[slot(job.stage)];
    released.push(job);
    // The frame's first stage job starts its latency clock.
    if (mode_ == DispatchMode::kStagePipeline && opens_frame)
      stream.pipeline[static_cast<std::size_t>(job.frame)].first_ready = now;
  }
  return released;
}

void StageDag::count_jobs(
    const StreamJob& stream,
    const std::function<void(const std::string& context, std::uint64_t jobs)>& visit) const {
  const int frames = static_cast<int>(stream.frames.size());
  for (const StageKind stage : stages_of(mode_)) {
    const int first = first_frame(stage, stream.next_frame);
    if (stage == StageKind::kMotionEstimation) {
      visit(context_of(stream, {stage, first}),
            static_cast<std::uint64_t>(std::max(0, frames - first)));
      continue;
    }
    for (int f = first; f < frames; ++f) visit(context_of(stream, {stage, f}), 1);
  }
}

}  // namespace dsra::runtime
