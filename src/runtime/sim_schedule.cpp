#include "runtime/sim_schedule.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/stage_dag.hpp"

namespace dsra::runtime {

namespace {

/// Flat per-(stream, frame) addressing for the replay's lookups. Frames
/// need not start at 0 (a resumed stream only carries records of the
/// frames this run encoded), so each stream's span covers the larger of
/// its frame vector, its records and anything the timeline references;
/// slot (k, f) lives at offsets[k] + f. Replaces the std::map lookups
/// that dominated the replay at fleet scale with O(1) indexing — same
/// arithmetic, so makespans stay bit-exact.
struct FlatIndex {
  std::vector<std::size_t> offsets;  ///< per stream, into the flat arrays
  std::vector<int> frame_count;      ///< per stream
  std::size_t total = 0;

  [[nodiscard]] bool in_range(int stream, int frame) const {
    return stream >= 0 && stream < static_cast<int>(frame_count.size()) && frame >= 0 &&
           frame < frame_count[static_cast<std::size_t>(stream)];
  }
  [[nodiscard]] std::size_t at(int stream, int frame) const {
    return offsets[static_cast<std::size_t>(stream)] + static_cast<std::size_t>(frame);
  }
  [[nodiscard]] std::size_t stage_at(int stream, int frame, StageKind stage) const {
    return at(stream, frame) * kStageKindCount + static_cast<std::size_t>(stage);
  }
};

FlatIndex build_index(const std::vector<StreamJob>& streams,
                      const std::vector<StageEvent>& timeline) {
  FlatIndex index;
  index.frame_count.assign(streams.size(), 0);
  for (std::size_t k = 0; k < streams.size(); ++k) {
    int count = static_cast<int>(streams[k].frames.size());
    for (const FrameRecord& r : streams[k].records)
      count = std::max(count, r.frame_index + 1);
    index.frame_count[k] = count;
  }
  for (const StageEvent& e : timeline)
    if (e.stream_id >= 0 && e.stream_id < static_cast<int>(streams.size()))
      index.frame_count[static_cast<std::size_t>(e.stream_id)] =
          std::max(index.frame_count[static_cast<std::size_t>(e.stream_id)],
                   e.frame_index + 1);
  index.offsets.assign(streams.size(), 0);
  for (std::size_t k = 0; k < streams.size(); ++k) {
    index.offsets[k] = index.total;
    index.total += static_cast<std::size_t>(std::max(index.frame_count[k], 0));
  }
  return index;
}

}  // namespace

SimSchedule simulate_timeline(const std::vector<StreamJob>& streams,
                              const std::vector<StageEvent>& timeline,
                              int pipeline_lookahead,
                              const std::vector<int>* slot_physical) {
  SimSchedule schedule;
  const FlatIndex index = build_index(streams, timeline);

  std::vector<const video::FrameStats*> stats_of(index.total, nullptr);
  for (std::size_t k = 0; k < streams.size(); ++k)
    for (const FrameRecord& r : streams[k].records)
      if (index.in_range(static_cast<int>(k), r.frame_index))
        stats_of[index.at(static_cast<int>(k), r.frame_index)] = &r.stats;

  // Reconfiguration charges ride on the completion events; index them so
  // each dispatched job's modeled duration includes what its fabric paid
  // to fetch and switch the context.
  std::vector<std::uint64_t> reconfig_of(index.total * kStageKindCount, 0);
  for (const StageEvent& e : timeline)
    if (!e.start && index.in_range(e.stream_id, e.frame_index))
      reconfig_of[index.stage_at(e.stream_id, e.frame_index, e.stage)] = e.reconfig_cycles;

  std::vector<std::uint64_t> end_of(index.total * kStageKindCount, 0);
  const auto dep_end = [&](int stream, int frame, StageKind stage) -> std::uint64_t {
    if (!index.in_range(stream, frame)) return 0;
    return end_of[index.stage_at(stream, frame, stage)];
  };

  // One forward sweep over the dispatch events in tick order is exact: a
  // job's dependencies completed before the queue released it, so their
  // dispatch events — and therefore their simulated end times — precede
  // this job's dispatch event.
  std::vector<std::uint64_t> fabric_clock;
  // The physical configuration port's clock: co-tenant slots of one
  // fabric serialize their context loads on it. Under the identity
  // topology (no slot_physical) each slot has its own port, so the port
  // clock can never exceed the slot clock and the schedule is bit-exact
  // with the pre-tenancy model.
  std::vector<std::uint64_t> port_clock;
  schedule.jobs.reserve(timeline.size() / 2);
  for (const StageEvent& e : timeline) {
    if (!e.start) continue;
    if (e.fabric_id >= static_cast<int>(fabric_clock.size())) {
      fabric_clock.resize(static_cast<std::size_t>(e.fabric_id) + 1, 0);
      schedule.fabric_busy_cycles.resize(fabric_clock.size(), 0);
      schedule.port_wait_cycles.resize(fabric_clock.size(), 0);
    }

    std::uint64_t ready = 0;
    for (const StageJob& dep : dependencies({e.stage, e.frame_index}, pipeline_lookahead))
      ready = std::max(ready, dep_end(e.stream_id, dep.frame, dep.stage));

    const video::FrameStats* stats =
        index.in_range(e.stream_id, e.frame_index)
            ? stats_of[index.at(e.stream_id, e.frame_index)]
            : nullptr;
    if (stats == nullptr)
      throw std::invalid_argument("timeline references a frame with no record");
    const std::uint64_t reconfig =
        reconfig_of[index.stage_at(e.stream_id, e.frame_index, e.stage)];
    const std::uint64_t duration =
        stage_cycles(e.stage, {stats->me_array_cycles, stats->dct_array_cycles}) + reconfig;
    auto& clock = fabric_clock[static_cast<std::size_t>(e.fabric_id)];

    SimStageJob job;
    job.stream_id = e.stream_id;
    job.frame_index = e.frame_index;
    job.fabric_id = e.fabric_id;
    job.stage = e.stage;
    job.reconfig_cycles = reconfig;
    job.ready_cycles = ready;
    job.start_cycles = std::max(ready, clock);
    if (reconfig > 0) {
      // The job opens with its context load; the load needs the physical
      // port, which a co-tenant may be holding. Waiting pushes the whole
      // job back (start + reconfig + compute stays contiguous, so span
      // building and stall attribution see a single late-started job).
      const std::size_t slot = static_cast<std::size_t>(e.fabric_id);
      const int phys = slot_physical != nullptr && slot < slot_physical->size()
                           ? (*slot_physical)[slot]
                           : e.fabric_id;
      if (phys >= static_cast<int>(port_clock.size()))
        port_clock.resize(static_cast<std::size_t>(phys) + 1, 0);
      auto& port = port_clock[static_cast<std::size_t>(phys)];
      const std::uint64_t port_start = std::max(job.start_cycles, port);
      job.port_wait_cycles = port_start - job.start_cycles;
      job.start_cycles = port_start;
      port = port_start + reconfig;
      schedule.port_wait_cycles[slot] += job.port_wait_cycles;
      schedule.contention_cycles += job.port_wait_cycles;
    }
    job.end_cycles = job.start_cycles + duration;
    clock = job.end_cycles;
    end_of[index.stage_at(e.stream_id, e.frame_index, e.stage)] = job.end_cycles;
    schedule.fabric_busy_cycles[static_cast<std::size_t>(e.fabric_id)] += duration;
    schedule.makespan_cycles = std::max(schedule.makespan_cycles, job.end_cycles);
    schedule.jobs.push_back(job);
  }

  int active_fabrics = 0;
  std::uint64_t busy_total = 0;
  for (const std::uint64_t busy : schedule.fabric_busy_cycles) {
    if (busy == 0) continue;
    ++active_fabrics;
    busy_total += busy;
  }
  if (active_fabrics > 0 && schedule.makespan_cycles > 0)
    schedule.mean_utilization =
        static_cast<double>(busy_total) /
        (static_cast<double>(active_fabrics) * static_cast<double>(schedule.makespan_cycles));
  return schedule;
}

}  // namespace dsra::runtime
