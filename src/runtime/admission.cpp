#include "runtime/admission.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <sstream>
#include <utility>

#include "dct/dct2d.hpp"
#include "me/systolic.hpp"
#include "runtime/event_core.hpp"
#include "runtime/sim_schedule.hpp"
#include "runtime/stats.hpp"

namespace dsra::runtime {

namespace {

constexpr std::uint64_t kNoDeadline = std::numeric_limits<std::uint64_t>::max();

std::uint64_t deadline_or_max(const StreamSla& sla) {
  return sla.deadline_cycles == 0 ? kNoDeadline : sla.deadline_cycles;
}

/// ceil(a / b) for positive ints.
int ceil_div(int a, int b) { return (a + b - 1) / b; }

/// 2x2-average downscale of @p src to @p width x @p height. Edge clamping
/// matches the encoder's own border handling, so odd source sizes behave.
video::Frame downscale(const video::Frame& src, int width, int height) {
  video::Frame out(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const int sum = src.clamped_at(2 * x, 2 * y) + src.clamped_at(2 * x + 1, 2 * y) +
                      src.clamped_at(2 * x, 2 * y + 1) +
                      src.clamped_at(2 * x + 1, 2 * y + 1);
      out.set(x, y, static_cast<std::uint8_t>((sum + 2) / 4));
    }
  }
  return out;
}

}  // namespace

AdmissionController::AdmissionController(const KernelLibrary& library,
                                         const FabricPool& pool,
                                         me::SystolicParams me_params,
                                         AdmissionConfig config)
    : library_(library), pool_(pool), me_params_(me_params), config_(config) {
  report_.enabled = config_.enabled;
}

FrameCycles AdmissionController::kernel_cycles(const StreamJob& job, int frame) const {
  // Mirrors the encoder's charging exactly (content-independent, so the
  // prediction is exact before any pixel is touched):
  //   intra (frame 0): ceil(w/8) * ceil(h/8) blocks, no ME;
  //   inter: ceil(w/mb) * ceil(h/mb) macroblocks, each paying one ME
  //     search plus ceil(mb/8)^2 residual blocks (the codec's sub-block
  //     loop runs the full macroblock extent even at the frame border).
  const int w = job.config.width;
  const int h = job.config.height;
  const int mb = job.config.codec.me_block;
  const dct::DctImplementation* impl = library_.impl(job.impl_for(frame));
  if (impl == nullptr || w <= 0 || h <= 0 || mb <= 0) return {};
  const auto block_cycles = static_cast<std::uint64_t>(dct::cycles_for_block(*impl));
  FrameCycles cycles;
  std::uint64_t dct_blocks = 0;
  if (frame == 0) {
    dct_blocks = static_cast<std::uint64_t>(ceil_div(w, 8)) *
                 static_cast<std::uint64_t>(ceil_div(h, 8));
  } else {
    const std::uint64_t macroblocks = static_cast<std::uint64_t>(ceil_div(w, mb)) *
                                      static_cast<std::uint64_t>(ceil_div(h, mb));
    const auto sub = static_cast<std::uint64_t>(ceil_div(mb, 8));
    dct_blocks = macroblocks * sub * sub;
    cycles.me = macroblocks *
                me::systolic_cycles_per_block(job.config.codec.me_range, me_params_);
  }
  cycles.dct = dct_blocks * block_cycles;
  return cycles;
}

std::uint64_t AdmissionController::frame_cycles(const StreamJob& job, int frame) const {
  return stage_cycles(StageKind::kWholeFrame, kernel_cycles(job, frame));
}

std::string AdmissionController::cheapest_fitting_impl() const {
  std::string best;
  std::uint64_t best_cycles = kNoDeadline;
  for (const std::string& name : library_.names()) {
    if (pool_.fabrics_hosting(name, kCapDctTransform) == 0) continue;
    const dct::DctImplementation* impl = library_.impl(name);
    if (impl == nullptr) continue;
    const auto cycles = static_cast<std::uint64_t>(dct::cycles_for_block(*impl));
    if (cycles < best_cycles || (cycles == best_cycles && name < best)) {
      best = name;
      best_cycles = cycles;
    }
  }
  return best;
}

bool AdmissionController::apply_qp_bump(StreamJob& job, double factor) {
  if (!(factor > 1.0)) return false;
  job.config.codec.quantiser_scale *= factor;
  return true;
}

bool AdmissionController::apply_resolution_drop(StreamJob& job, int min_dimension) {
  const int w = job.config.width;
  const int h = job.config.height;
  // Halve each axis, keep 8-pixel block alignment, never below the floor.
  const auto halved = [&](int dim) {
    const int aligned = ceil_div(dim / 2, 8) * 8;
    return std::max(min_dimension, aligned);
  };
  const int nw = halved(w);
  const int nh = halved(h);
  if (nw >= w && nh >= h) return false;  // already at (or below) the floor
  for (video::Frame& frame : job.frames) frame = downscale(frame, nw, nh);
  job.config.width = nw;
  job.config.height = nh;
  return true;
}

bool AdmissionController::apply_impl_swap(StreamJob& job) const {
  const std::string cheapest = cheapest_fitting_impl();
  if (cheapest.empty()) return false;
  bool changed = job.impl_name != cheapest;
  for (const std::string& impl : job.frame_impls)
    if (impl != cheapest) changed = true;
  if (!changed) return false;
  job.impl_name = cheapest;
  // The stream's condition-resolved per-frame contexts are overridden by
  // one admission-forced context; the forced change is itself a context
  // transition the run's switch accounting must see.
  for (std::string& impl : job.frame_impls) impl = cheapest;
  ++job.condition_switches;
  return true;
}

AdmissionController::PilotStream AdmissionController::pilot_of(const StreamJob& job) const {
  PilotStream pilot;
  pilot.stream_id = job.id;
  pilot.sla = job.config.sla;
  const int frames = static_cast<int>(job.frames.size());
  pilot.cycles.reserve(static_cast<std::size_t>(frames));
  pilot.hosts.reserve(static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    pilot.cycles.push_back(kernel_cycles(job, f));
    pilot.hosts.push_back(pool_.hosting_fabric_ids(job.impl_for(f), kCapDctTransform));
  }
  return pilot;
}

AdmissionController::PilotOutcome AdmissionController::pilot(
    const std::vector<PilotStream>& set) const {
  PilotOutcome outcome;
  outcome.completion_cycles.assign(set.size(), 0);
  outcome.p99_cycles.assign(set.size(), 0);

  // List-schedule the set in the queue's service order: earliest-ready
  // frame first (the FIFO the dispatch sequence produces — streams
  // re-ready their next frame as the previous one completes, so the pool
  // interleaves them), tightest deadline breaking ties (the queue's slack
  // tie-break), onto the least-loaded eligible fabric. The resulting
  // dispatch order and fabric assignment are handed to simulate_timeline,
  // which is the timing authority — the greedy clocks below only order
  // the events.
  //
  // The pending-lane set lives in the calendar-queue event core keyed
  // (ready, deadline, lane index) — the exact comparison the old O(n)
  // min-scan per step applied, so the pick order (and therefore every
  // admission decision) is unchanged while each step drops to amortized
  // O(1). Fabric choice uses one lazy min-heap per distinct host set,
  // keyed (free cycles, position in host order): fabric free times only
  // grow, so a popped entry matching the authoritative free time is the
  // true minimum and a stale one is re-pushed with its current value.
  struct Lane {
    std::size_t next = 0;
    std::uint64_t ready = 0;
  };
  std::vector<Lane> lanes(set.size());
  std::vector<std::uint64_t> fabric_free;
  const auto free_of = [&](int fabric) -> std::uint64_t& {
    if (static_cast<std::size_t>(fabric) >= fabric_free.size())
      fabric_free.resize(static_cast<std::size_t>(fabric) + 1, 0);
    return fabric_free[static_cast<std::size_t>(fabric)];
  };
  // Heap entry: (free cycles at push, position in the host vector); the
  // position doubles as the fabric lookup and the first-host-wins
  // tie-break among equally free fabrics.
  using FabricEntry = std::pair<std::uint64_t, std::size_t>;
  using FabricHeap =
      std::priority_queue<FabricEntry, std::vector<FabricEntry>, std::greater<>>;
  std::map<std::vector<int>, FabricHeap> heaps;
  const auto pick_fabric = [&](const std::vector<int>& hosts) -> int {
    auto [it, inserted] = heaps.try_emplace(hosts);
    FabricHeap& heap = it->second;
    if (inserted)
      for (std::size_t p = 0; p < hosts.size(); ++p) heap.push({free_of(hosts[p]), p});
    for (;;) {
      const auto [free, pos] = heap.top();
      const int fabric = hosts[pos];
      if (free == free_of(fabric)) return fabric;
      heap.pop();
      heap.push({free_of(fabric), pos});  // stale: another host set ran it
    }
  };

  CalendarQueue pending;
  for (std::size_t i = 0; i < set.size(); ++i)
    if (!set[i].cycles.empty()) pending.push(0, deadline_or_max(set[i].sla), i);

  std::vector<StageEvent> events;
  std::uint64_t tick = 0;
  while (!pending.empty()) {
    const std::size_t pick = static_cast<std::size_t>(pending.pop().payload);
    Lane& lane = lanes[pick];
    const PilotStream& stream = set[pick];
    const std::vector<int>& hosts = stream.hosts[lane.next];
    if (hosts.empty()) {
      outcome.placeable = false;
      outcome.completion_cycles[pick] = kNoDeadline;
      outcome.p99_cycles[pick] = kNoDeadline;
      lane.next = stream.cycles.size();  // nothing downstream can run
      continue;
    }
    const int fabric = pick_fabric(hosts);
    const std::uint64_t duration =
        stage_cycles(StageKind::kWholeFrame, stream.cycles[lane.next]);
    std::uint64_t& free = free_of(fabric);
    const std::uint64_t start = std::max(lane.ready, free);
    free = start + duration;
    lane.ready = free;

    StageEvent event;
    event.tick = tick++;
    event.start = true;
    event.stream_id = static_cast<int>(pick);
    event.frame_index = static_cast<int>(lane.next);
    event.fabric_id = fabric;
    event.stage = StageKind::kWholeFrame;
    events.push_back(event);
    ++lane.next;
    if (lane.next < stream.cycles.size())
      pending.push(lane.ready, deadline_or_max(stream.sla), pick);
  }

  // Pilot jobs carry only what simulate_timeline reads: per-frame stage
  // cycles, addressed by (vector index, frame).
  std::vector<StreamJob> pilot_jobs(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    pilot_jobs[i].id = static_cast<int>(i);
    for (std::size_t f = 0; f < set[i].cycles.size(); ++f) {
      FrameRecord record;
      record.frame_index = static_cast<int>(f);
      record.stats.me_array_cycles = set[i].cycles[f].me;
      record.stats.dct_array_cycles = set[i].cycles[f].dct;
      pilot_jobs[i].records.push_back(record);
    }
  }
  const SimSchedule sim = simulate_timeline(pilot_jobs, events, 0);
  outcome.makespan_cycles = sim.makespan_cycles;

  std::vector<std::vector<double>> latencies(set.size());
  for (const SimStageJob& job : sim.jobs) {
    const auto i = static_cast<std::size_t>(job.stream_id);
    outcome.completion_cycles[i] = std::max(outcome.completion_cycles[i], job.end_cycles);
    latencies[i].push_back(static_cast<double>(job.end_cycles - job.ready_cycles));
  }
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (outcome.p99_cycles[i] == kNoDeadline) continue;  // unplaceable lane
    outcome.p99_cycles[i] =
        static_cast<std::uint64_t>(std::llround(percentile(latencies[i], 99.0)));
  }

  // Pool pressure: predicted busy cycles against what the eligible
  // fabrics can serve over the deadline horizon. Over 1.0 = the admitted
  // demand cannot fit even with perfect packing.
  std::uint64_t busy = 0;
  for (const std::uint64_t b : sim.fabric_busy_cycles) busy += b;
  std::vector<bool> eligible;
  for (const PilotStream& stream : set)
    for (const std::vector<int>& hosts : stream.hosts)
      for (const int f : hosts) {
        if (static_cast<std::size_t>(f) >= eligible.size())
          eligible.resize(static_cast<std::size_t>(f) + 1, false);
        eligible[static_cast<std::size_t>(f)] = true;
      }
  const auto fabrics = static_cast<std::uint64_t>(
      std::count(eligible.begin(), eligible.end(), true));
  std::uint64_t horizon = 0;
  for (const PilotStream& stream : set)
    if (stream.sla.deadline_cycles > 0)
      horizon = std::max(horizon, stream.sla.deadline_cycles);
  if (horizon == 0) horizon = sim.makespan_cycles;
  if (fabrics > 0 && horizon > 0)
    outcome.pressure = static_cast<double>(busy) /
                       (static_cast<double>(fabrics) * static_cast<double>(horizon));
  return outcome;
}

bool AdmissionController::feasible(const PilotOutcome& outcome,
                                   const std::vector<PilotStream>& set) const {
  if (!outcome.placeable) return false;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const StreamSla& sla = set[i].sla;
    if (sla.deadline_cycles > 0) {
      const double predicted =
          static_cast<double>(outcome.completion_cycles[i]) * config_.headroom;
      if (predicted > static_cast<double>(sla.deadline_cycles)) return false;
    }
    if (sla.p99_budget_cycles > 0) {
      const double predicted =
          static_cast<double>(outcome.p99_cycles[i]) * config_.headroom;
      if (predicted > static_cast<double>(sla.p99_budget_cycles)) return false;
    }
  }
  return true;
}

AdmissionDecision AdmissionController::admit(StreamJob& candidate) {
  ++report_.arrived;
  AdmissionDecision decision;
  decision.stream_id = candidate.id;
  decision.name = candidate.config.name;
  decision.deadline_cycles = candidate.config.sla.deadline_cycles;
  decision.p99_budget_cycles = candidate.config.sla.p99_budget_cycles;

  // The ladder mutates a trial copy; the candidate only takes the
  // mutations of the rung that actually admitted it.
  StreamJob trial = candidate;
  const auto outcome_with = [&](const StreamJob& job) {
    std::vector<PilotStream> set = admitted_;
    set.push_back(pilot_of(job));
    PilotOutcome outcome = pilot(set);
    return std::make_pair(std::move(outcome), std::move(set));
  };
  const auto commit = [&](StreamJob&& job, const PilotOutcome& outcome,
                          std::vector<PilotStream>&& set, DegradationRung rung,
                          const std::string& note) {
    const std::size_t self = set.size() - 1;
    job.admission_rung = rung;
    job.predicted_completion_cycles = outcome.completion_cycles[self];
    job.predicted_p99_cycles = outcome.p99_cycles[self];
    candidate = std::move(job);
    admitted_ = std::move(set);
    last_pressure_ = outcome.pressure;
    decision.admitted = true;
    decision.rung = rung;
    decision.predicted_completion_cycles = candidate.predicted_completion_cycles;
    decision.predicted_p99_cycles = candidate.predicted_p99_cycles;
    decision.note = note;
    ++report_.admitted;
    switch (rung) {
      case DegradationRung::kNone: ++report_.admitted_clean; break;
      case DegradationRung::kQpBump: ++report_.qp_bumps; break;
      case DegradationRung::kResolutionDrop: ++report_.resolution_drops; break;
      case DegradationRung::kImplSwap: ++report_.impl_swaps; break;
      case DegradationRung::kReject: break;
    }
    report_.pool_pressure = last_pressure_;
    report_.decisions.push_back(decision);
  };

  // Rung 0: as requested. Feasible newcomers still pay the QP bump when
  // the pool is already running hot — quality for admission headroom.
  auto [base, base_set] = outcome_with(trial);
  if (feasible(base, base_set)) {
    if (base.pressure >= config_.qp_pressure &&
        apply_qp_bump(trial, config_.qp_bump_factor)) {
      std::ostringstream note;
      note << "pool pressure " << base.pressure << ": admitted with qp bump";
      commit(std::move(trial), base, std::move(base_set), DegradationRung::kQpBump,
             note.str());
    } else {
      commit(std::move(trial), base, std::move(base_set), DegradationRung::kNone,
             "fits as requested");
    }
    return decision;
  }

  // The QP bump alone cannot rescue feasibility — quantisation changes
  // bits, not array cycles, in this cost model — so the deadline-driven
  // walk goes straight to the resolution rung, which carries the QP bump
  // with it (rungs are cumulative concessions).
  apply_qp_bump(trial, config_.qp_bump_factor);
  if (apply_resolution_drop(trial, config_.min_dimension)) {
    auto [dropped, dropped_set] = outcome_with(trial);
    if (feasible(dropped, dropped_set)) {
      commit(std::move(trial), dropped, std::move(dropped_set),
             DegradationRung::kResolutionDrop, "admitted at half resolution");
      return decision;
    }
  }

  if (apply_impl_swap(trial)) {
    auto [swapped, swapped_set] = outcome_with(trial);
    if (feasible(swapped, swapped_set)) {
      commit(std::move(trial), swapped, std::move(swapped_set),
             DegradationRung::kImplSwap,
             "admitted on " + trial.impl_name + " at half resolution");
      return decision;
    }
  }

  // No rung fits: shed. The candidate keeps its original configuration
  // (the trial's concessions are discarded) but is marked rejected and
  // never dispatched.
  candidate.admission_rung = DegradationRung::kReject;
  candidate.next_frame = static_cast<int>(candidate.frames.size());
  candidate.predicted_completion_cycles = base.completion_cycles.back();
  candidate.predicted_p99_cycles = base.p99_cycles.back();
  decision.rung = DegradationRung::kReject;
  decision.predicted_completion_cycles = candidate.predicted_completion_cycles;
  decision.predicted_p99_cycles = candidate.predicted_p99_cycles;
  decision.note = "no rung fits the deadline";
  ++report_.rejected;
  report_.decisions.push_back(decision);
  return decision;
}

AdmissionReport AdmissionController::admit_all(std::vector<StreamJob>& streams) {
  for (StreamJob& stream : streams) admit(stream);
  report_.pool_pressure = last_pressure_;
  return report_;
}

}  // namespace dsra::runtime
