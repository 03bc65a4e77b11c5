// Correctness oracle: a sequential re-encode of every admitted stream,
// driven straight through the codec's stage functions, against which each
// scheduler pass is checked frame by frame.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "me/systolic.hpp"
#include "runtime/fabric_pool.hpp"
#include "runtime/job.hpp"
#include "runtime/stats.hpp"
#include "video/frame.hpp"

namespace perfbench {

struct ReferenceFrame {
  double bits = 0.0;
  double psnr_db = 0.0;
  std::string impl;
  std::uint64_t dct_array_cycles = 0;
  std::uint64_t me_array_cycles = 0;
};

/// The sequential encode of one stream, plus the admission outcome it was
/// encoded under (a pass that admitted the stream differently needs its
/// own reference).
struct ReferenceStream {
  std::string admission_key;
  std::vector<ReferenceFrame> frames;
  dsra::video::Frame final_recon;
};

/// Host time the sequential encode spent in each codec stage, timed
/// around the stage calls from outside the program.
struct StageTimes {
  double me_ns = 0.0;
  double tq_ns = 0.0;
  double recon_ns = 0.0;
  double wall_ns = 0.0;  ///< whole sequential encode
  double cpu_ns = 0.0;   ///< thread CPU time of the whole sequential encode
  std::uint64_t macroblocks = 0;  ///< ME searches (inter frames only)
  std::uint64_t blocks = 0;       ///< 8x8 blocks transformed / reconstructed
  std::uint64_t frames = 0;
};

/// What the admission ladder did to @p job, rendered as a comparable key.
[[nodiscard]] std::string admission_key(const dsra::runtime::StreamJob& job);

/// Re-encode every admitted stream of @p jobs (the post-admission copies a
/// scheduler pass leaves behind) one frame and one stage at a time:
/// ToyEncoder::run_motion_stage / run_transform_stage /
/// run_reconstruct_stage under library.impl(impl_for(f)) and
/// me::systolic_search_fn(@p me). Fills @p times when non-null.
[[nodiscard]] std::vector<ReferenceStream> sequential_reference(
    const dsra::runtime::KernelLibrary& library, const dsra::me::SystolicParams& me,
    const std::vector<dsra::runtime::StreamJob>& jobs, StageTimes* times = nullptr);

/// True when @p reference was encoded under the same admission outcome as
/// @p jobs, stream by stream.
[[nodiscard]] bool same_admission(const std::vector<ReferenceStream>& reference,
                                  const std::vector<dsra::runtime::StreamJob>& jobs);

struct Verdict {
  std::uint64_t admitted_frames = 0;  ///< frames of admitted streams
  std::uint64_t failed_frames = 0;    ///< missing, duplicated, out of order or not bit-exact
  std::vector<std::string> problems;  ///< first few, for the log
};

/// Check one scheduler pass: every admitted stream delivered each frame
/// exactly once and in order, bit-exact with @p reference (bits, PSNR,
/// context, array cycles, final reconstruction), shed streams delivered
/// nothing, and an outside simulate_timeline replay of the report's
/// timeline with the pool's slot -> physical topology reproduces
/// RunReport::sim_makespan_cycles (a mismatch fails every admitted frame:
/// no modeled number of the pass can be trusted).
[[nodiscard]] Verdict check_pass(const std::vector<ReferenceStream>& reference,
                                 const std::vector<dsra::runtime::StreamJob>& jobs,
                                 const dsra::runtime::RunReport& report,
                                 const std::vector<int>& slot_physical, int pipeline_lookahead);

}  // namespace perfbench
