#include "workloads.hpp"

#include <sstream>
#include <stdexcept>

#include "common/report.hpp"
#include "common/rng.hpp"
#include "runtime/admission.hpp"
#include "runtime/partition.hpp"
#include "soc/trajectory.hpp"

namespace perfbench {

using namespace dsra;
using namespace dsra::runtime;

namespace {

// qcif_pipeline: compute-bound QCIF encode, full search at range 8. Its
// modeled schedule follows the host race, so a pass is many short streams:
// more passes per run and more frames per pass steady the medians.
constexpr int kQcifStreams = 16;  ///< four per selectable DCT context
constexpr int kQcifFrames = 2;
constexpr int kQcifMeRange = 8;

// churn_tenancy: many tiny streams whose conditions drift mid-flight.
constexpr int kChurnStreams = 64;
constexpr int kChurnFrames = 8;
constexpr int kChurnSize = 32;
constexpr int kChurnMeRange = 2;
constexpr double kChurnBand = 0.06;

// overload_sla: three waves of six callers, ~3x the pool's capacity
// inside the deadline horizon.
constexpr int kOverloadWaves = 3;
constexpr int kOverloadSize = 64;
constexpr int kOverloadFrames = 6;
constexpr int kOverloadMeRange = 4;
constexpr int kDeadlineMultiple = 6;  ///< deadline = 6 x one stream's demand
constexpr int kP99Multiple = 4;       ///< per-frame p99 budget = 4 x demand

/// The four static conditions the SoC policy maps onto its four
/// selectable DCT contexts (cordic1, cordic2, mixed_rom, scc_full).
const soc::RuntimeCondition kStaticConditions[] = {
    {1.00, 0.95}, {0.50, 0.95}, {0.90, 0.30}, {0.12, 0.80}};

/// Six callers of the serving demo: the four contexts plus two that sit
/// on policy boundaries.
const soc::RuntimeCondition kCallerConditions[] = {
    {1.00, 0.95}, {0.50, 0.95}, {0.90, 0.30}, {0.12, 0.80}, {0.60, 0.92}, {0.85, 0.20}};

SchedulerConfig stage_pipeline_config() {
  SchedulerConfig cfg;
  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  cfg.queue.mode = DispatchMode::kStagePipeline;
  return cfg;
}

/// The paper's floorplan: one systolic ME fabric plus two DA/CORDIC
/// transform fabrics with bounded context stores; with @p tenancy the
/// second transform fabric is split into two co-tenant 8x4 slots.
std::vector<FabricConfig> floorplan(const KernelLibrary& library, bool partial, bool tenancy) {
  FabricConfig me_fabric;
  me_fabric.capabilities = kCapMotionEstimation;
  me_fabric.partial_reconfig = partial;
  me_fabric.delta_fetch = partial;
  FabricConfig dct_fabric;
  dct_fabric.capabilities = kCapDctTransform;
  dct_fabric.context_capacity_bytes = library.total_bytes(kDefaultGeometry) / 2;
  dct_fabric.partial_reconfig = partial;
  dct_fabric.delta_fetch = partial;
  FabricConfig second = dct_fabric;
  if (tenancy) second.partitions = static_partition_plan(second.geometry);
  return {me_fabric, dct_fabric, second};
}

std::string describe(const SchedulerConfig& cfg) {
  std::ostringstream os;
  os << "queue: policy=" << to_string(cfg.queue.policy) << " mode=" << to_string(cfg.queue.mode)
     << " max_affinity_run=" << cfg.queue.max_affinity_run
     << " aging=" << cfg.queue.aging_threshold << " lookahead=" << cfg.queue.pipeline_lookahead
     << " shards=" << cfg.queue.shards << "\n";
  for (const FabricConfig& f : cfg.fabric_configs) {
    os << "fabric: caps=" << f.capabilities << " geometry=" << to_string(f.geometry)
       << " capacity=" << f.context_capacity_bytes << " partial=" << f.partial_reconfig
       << " delta_fetch=" << f.delta_fetch << " partitions=";
    for (const PartitionSpec& p : f.partitions) os << to_string(p) << ",";
    os << "\n";
  }
  os << "admission: enabled=" << cfg.admission.enabled << " headroom=" << cfg.admission.headroom
     << " qp_pressure=" << cfg.admission.qp_pressure << "\n";
  os << "me: block=" << cfg.me.block << " modules=" << cfg.me.modules << "\n";
  return os.str();
}

Workload qcif_pipeline(std::uint64_t seed, const KernelLibrary& library) {
  Workload w;
  w.name = "qcif_pipeline";
  w.config = stage_pipeline_config();
  w.config.fabric_configs = floorplan(library, /*partial=*/false, /*tenancy=*/false);
  Rng rng(seed);
  std::ostringstream os;
  for (int i = 0; i < kQcifStreams; ++i) {
    StreamConfig cfg;
    cfg.name = "qcif-" + std::to_string(i);
    cfg.width = 176;
    cfg.height = 144;
    cfg.frame_budget = kQcifFrames;
    cfg.condition = kStaticConditions[i % 4];
    cfg.codec.me_range = kQcifMeRange;
    cfg.seed = rng.next_u64();
    w.jobs.push_back(make_synthetic_job(i, cfg));
    os << "stream " << i << ": 176x144x" << kQcifFrames << " range=" << kQcifMeRange
       << " condition=" << cfg.condition.battery_level << "/" << cfg.condition.channel_quality
       << "\n";
  }
  w.config_text = os.str();
  return w;
}

/// Stream @p i's condition trajectory: six drift shapes in rotation, with
/// per-index start points so the streams cross the policy boundaries at
/// different frames. The trajectories, sensor jitter included, are part
/// of the workload's structure: a seed that moved them would move the
/// switch count, and with it every runtime number, between seeds.
soc::TrajectoryPtr churn_trajectory(int i, std::string& text) {
  const double shift = 0.04 * static_cast<double>((i / 6) % 5);
  switch (i % 6) {
    case 0:
      text = "drain(" + std::to_string(0.95 - shift) + ",0.09,0.90)";
      return soc::linear_battery_drain(0.95 - shift, 0.09, 0.90);
    case 1:
      text = "sine(0.85,0.50,0.30,4," + std::to_string(i % 4) + ")";
      return soc::sinusoidal_channel_fade(0.85, 0.50, 0.30, 4.0, static_cast<double>(i % 4));
    case 2:
      text = "steps(0.80,[0.90,0.30,0.85],2)";
      return soc::stepped_channel_fade(0.80, {0.90, 0.30, 0.85}, 2);
    case 3:
      text = "drain(" + std::to_string(0.45 - shift / 2) + ",0.04,0.80)";
      return soc::linear_battery_drain(0.45 - shift / 2, 0.04, 0.80);
    case 4:
      text = "jitter(const(0.60,0.92)," + std::to_string(1000 + i) + ",0.08)";
      return soc::jittered_trajectory(soc::constant_trajectory({0.60, 0.92}),
                                      static_cast<std::uint64_t>(1000 + i), 0.08);
    default:
      text = "compose(drain(0.75,0.06),sine(0.9,0.55,0.25,5))";
      return soc::compose_trajectories(soc::linear_battery_drain(0.75, 0.06),
                                       soc::sinusoidal_channel_fade(0.9, 0.55, 0.25, 5.0));
  }
}

Workload churn_tenancy(std::uint64_t seed, const KernelLibrary& library) {
  Workload w;
  w.name = "churn_tenancy";
  w.config = stage_pipeline_config();
  w.config.fabric_configs = floorplan(library, /*partial=*/true, /*tenancy=*/true);
  Rng rng(seed);
  std::ostringstream os;
  for (int i = 0; i < kChurnStreams; ++i) {
    StreamConfig cfg;
    cfg.name = "churn-" + std::to_string(i);
    cfg.width = kChurnSize;
    cfg.height = kChurnSize;
    cfg.frame_budget = kChurnFrames;
    cfg.codec.me_range = kChurnMeRange;
    std::string trajectory;
    cfg.trajectory = churn_trajectory(i, trajectory);
    cfg.condition = cfg.trajectory->at(0);
    cfg.condition_policy = soc::ConditionPolicy::kHysteresis;
    cfg.hysteresis_band = kChurnBand;
    cfg.seed = rng.next_u64();
    w.jobs.push_back(make_synthetic_job(i, cfg));
    os << "stream " << i << ": " << kChurnSize << "x" << kChurnSize << "x" << kChurnFrames
       << " range=" << kChurnMeRange << " hysteresis=" << kChurnBand << " " << trajectory
       << "\n";
  }
  w.config_text = os.str();
  return w;
}

Workload overload_sla(std::uint64_t seed, const KernelLibrary& library) {
  Workload w;
  w.name = "overload_sla";
  w.config = stage_pipeline_config();
  w.config.fabric_configs = floorplan(library, /*partial=*/false, /*tenancy=*/false);
  w.config.admission.enabled = true;

  // One caller's whole-stream demand in modeled cycles. The admission
  // cost model is exact and content-independent, so the SLAs below are
  // exact multiples of real demand.
  StreamConfig probe_cfg;
  probe_cfg.width = kOverloadSize;
  probe_cfg.height = kOverloadSize;
  probe_cfg.frame_budget = kOverloadFrames;
  probe_cfg.condition = kCallerConditions[0];
  probe_cfg.codec.me_range = kOverloadMeRange;
  const StreamJob probe_job = make_synthetic_job(0, probe_cfg);
  const FabricPool probe_pool(1, library);
  const AdmissionController probe(library, probe_pool, w.config.me);
  std::uint64_t stream_cost = 0;
  for (int f = 0; f < kOverloadFrames; ++f) stream_cost += probe.frame_cycles(probe_job, f);

  Rng rng(seed);
  std::ostringstream os;
  os << "stream_cost=" << stream_cost << " deadline=" << kDeadlineMultiple
     << "x p99=" << kP99Multiple << "x\n";
  int id = 0;
  for (int wave = 0; wave < kOverloadWaves; ++wave) {
    for (const soc::RuntimeCondition& condition : kCallerConditions) {
      StreamConfig cfg;
      cfg.name = "caller-" + std::to_string(id);
      cfg.width = kOverloadSize;
      cfg.height = kOverloadSize;
      cfg.frame_budget = kOverloadFrames;
      cfg.condition = condition;
      cfg.codec.me_range = kOverloadMeRange;
      cfg.seed = rng.next_u64();
      cfg.sla.deadline_cycles = kDeadlineMultiple * stream_cost;
      cfg.sla.p99_budget_cycles = kP99Multiple * stream_cost;
      w.jobs.push_back(make_synthetic_job(id, cfg));
      os << "stream " << id << ": " << kOverloadSize << "x" << kOverloadSize << "x"
         << kOverloadFrames << " range=" << kOverloadMeRange
         << " condition=" << condition.battery_level << "/" << condition.channel_quality
         << "\n";
      ++id;
    }
  }
  w.config_text = os.str();
  return w;
}

}  // namespace

std::string Workload::digest() const { return fnv1a_hex(name + "\n" + config_text); }

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"qcif_pipeline", "churn_tenancy",
                                                 "overload_sla"};
  return names;
}

KernelLibraryConfig library_config() {
  KernelLibraryConfig cfg;
  cfg.geometries = {kDefaultGeometry, kSmallSccGeometry};
  return cfg;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const KernelLibrary& library) {
  Workload w;
  if (name == "qcif_pipeline")
    w = qcif_pipeline(seed, library);
  else if (name == "churn_tenancy")
    w = churn_tenancy(seed, library);
  else if (name == "overload_sla")
    w = overload_sla(seed, library);
  else
    throw std::invalid_argument("unknown workload '" + name + "'");
  w.config_text += describe(w.config);
  return w;
}

}  // namespace perfbench
