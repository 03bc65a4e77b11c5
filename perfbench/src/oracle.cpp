#include "oracle.hpp"

#include <chrono>
#include <ctime>
#include <sstream>
#include <stdexcept>

#include "runtime/sim_schedule.hpp"
#include "video/codec.hpp"

namespace perfbench {

using namespace dsra;
using namespace dsra::runtime;

namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

bool admitted(const StreamJob& job) { return job.admission_rung != DegradationRung::kReject; }

void note(Verdict& v, const std::string& problem) {
  if (v.problems.size() < 8) v.problems.push_back(problem);
}

}  // namespace

std::string admission_key(const StreamJob& job) {
  std::ostringstream os;
  os << to_string(job.admission_rung) << ' ' << job.frames.size() << ' '
     << (job.frames.empty() ? 0 : job.frames.front().width()) << 'x'
     << (job.frames.empty() ? 0 : job.frames.front().height()) << " qp="
     << job.config.codec.quantiser_scale << " range=" << job.config.codec.me_range;
  for (int f = 0; f < static_cast<int>(job.frames.size()); ++f) os << ' ' << job.impl_for(f);
  return os.str();
}

std::vector<ReferenceStream> sequential_reference(const KernelLibrary& library,
                                                  const me::SystolicParams& me,
                                                  const std::vector<StreamJob>& jobs,
                                                  StageTimes* times) {
  std::vector<ReferenceStream> out;
  out.reserve(jobs.size());
  const video::MotionSearchFn me_fn = me::systolic_search_fn(me);
  const auto wall_start = Clock::now();
  const double cpu_start = thread_cpu_ns();
  for (const StreamJob& job : jobs) {
    ReferenceStream ref;
    ref.admission_key = admission_key(job);
    if (!admitted(job)) {
      out.push_back(std::move(ref));
      continue;
    }
    video::Frame recon_prev;
    for (int f = 0; f < static_cast<int>(job.frames.size()); ++f) {
      const video::Frame& frame = job.frames[static_cast<std::size_t>(f)];
      const std::string& impl = job.impl_for(f);
      const video::ToyEncoder encoder(library.impl(impl), me_fn, job.config.codec);
      // Frame 0 is intra: the pipeline dispatches no ME stage for it.
      video::MotionStageResult motion;
      const auto t0 = Clock::now();
      if (f > 0) motion = encoder.run_motion_stage(frame, &job.frames[static_cast<std::size_t>(f - 1)]);
      const auto t1 = Clock::now();
      const video::TransformStageResult transform =
          encoder.run_transform_stage(frame, f > 0 ? &recon_prev : nullptr, motion);
      const auto t2 = Clock::now();
      video::Frame recon;
      const video::FrameStats stats =
          encoder.run_reconstruct_stage(frame, motion, transform, recon);
      const auto t3 = Clock::now();
      recon_prev = std::move(recon);
      ref.frames.push_back(ReferenceFrame{stats.bits, stats.psnr_db, impl,
                                          stats.dct_array_cycles, stats.me_array_cycles});
      if (times != nullptr) {
        times->me_ns += ns_between(t0, t1);
        times->tq_ns += ns_between(t1, t2);
        times->recon_ns += ns_between(t2, t3);
        if (f > 0) times->macroblocks += motion.mvs.size();
        times->blocks += static_cast<std::uint64_t>(frame.width() / 8) *
                         static_cast<std::uint64_t>(frame.height() / 8);
        ++times->frames;
      }
    }
    ref.final_recon = std::move(recon_prev);
    out.push_back(std::move(ref));
  }
  if (times != nullptr) {
    times->wall_ns += ns_between(wall_start, Clock::now());
    times->cpu_ns += thread_cpu_ns() - cpu_start;
  }
  return out;
}

bool same_admission(const std::vector<ReferenceStream>& reference,
                    const std::vector<StreamJob>& jobs) {
  if (reference.size() != jobs.size()) return false;
  for (std::size_t k = 0; k < jobs.size(); ++k)
    if (reference[k].admission_key != admission_key(jobs[k])) return false;
  return true;
}

Verdict check_pass(const std::vector<ReferenceStream>& reference,
                   const std::vector<StreamJob>& jobs, const RunReport& report,
                   const std::vector<int>& slot_physical, int pipeline_lookahead) {
  Verdict v;
  if (reference.size() != jobs.size()) {
    note(v, "reference covers " + std::to_string(reference.size()) + " streams, run has " +
                std::to_string(jobs.size()));
    for (const StreamJob& job : jobs)
      if (admitted(job)) v.admitted_frames += job.frames.size();
    v.failed_frames = v.admitted_frames;
    return v;
  }
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const StreamJob& job = jobs[k];
    const ReferenceStream& ref = reference[k];
    const std::string who = "stream " + std::to_string(k);
    if (!admitted(job)) {
      // A shed stream must deliver nothing; anything it did deliver is
      // a broken frame contract.
      if (!job.records.empty()) {
        note(v, who + ": shed but delivered " + std::to_string(job.records.size()) + " frames");
        v.failed_frames += job.records.size();
      }
      continue;
    }
    const std::size_t n = job.frames.size();
    v.admitted_frames += n;
    std::vector<bool> bad(n, false);
    std::vector<int> seen(n, 0);
    if (ref.frames.size() != n || ref.admission_key != admission_key(job)) {
      note(v, who + ": admitted differently from its reference");
      v.failed_frames += n;
      continue;
    }
    for (std::size_t pos = 0; pos < job.records.size(); ++pos) {
      const FrameRecord& r = job.records[pos];
      if (r.frame_index < 0 || static_cast<std::size_t>(r.frame_index) >= n) {
        note(v, who + ": record " + std::to_string(pos) + " names frame " +
                    std::to_string(r.frame_index));
        if (pos < n) bad[pos] = true;
        continue;
      }
      const auto idx = static_cast<std::size_t>(r.frame_index);
      ++seen[idx];
      if (idx != pos) {
        note(v, who + ": frame " + std::to_string(idx) + " delivered at position " +
                    std::to_string(pos));
        bad[idx] = true;
      }
      const ReferenceFrame& want = ref.frames[idx];
      if (r.stats.bits != want.bits || r.stats.psnr_db != want.psnr_db || r.impl != want.impl ||
          r.stats.dct_array_cycles != want.dct_array_cycles ||
          r.stats.me_array_cycles != want.me_array_cycles) {
        note(v, who + ": frame " + std::to_string(idx) + " differs from the sequential encode");
        bad[idx] = true;
      }
    }
    for (std::size_t idx = 0; idx < n; ++idx)
      if (seen[idx] != 1) {
        note(v, who + ": frame " + std::to_string(idx) + " delivered " +
                    std::to_string(seen[idx]) + " times");
        bad[idx] = true;
      }
    if (n > 0 && (job.recon_state.width() != ref.final_recon.width() ||
                  job.recon_state.height() != ref.final_recon.height() ||
                  job.recon_state.data() != ref.final_recon.data())) {
      note(v, who + ": final reconstruction differs from the sequential encode");
      bad[n - 1] = true;
    }
    for (std::size_t idx = 0; idx < n; ++idx) v.failed_frames += bad[idx] ? 1 : 0;
  }

  try {
    const SimSchedule replay =
        simulate_timeline(jobs, report.timeline, pipeline_lookahead, &slot_physical);
    if (replay.makespan_cycles != report.sim_makespan_cycles) {
      note(v, "outside replay makespan " + std::to_string(replay.makespan_cycles) +
                  " != reported " + std::to_string(report.sim_makespan_cycles));
      v.failed_frames = v.admitted_frames;
    }
  } catch (const std::invalid_argument& e) {
    // The replay refuses a timeline that does not match the delivered
    // records (a dropped frame, say).
    note(v, std::string("outside replay failed: ") + e.what());
    v.failed_frames = v.admitted_frames;
  }
  return v;
}

}  // namespace perfbench
