// The benchmark's three serving workloads.
//
// Each is a closed batch: every stream is submitted at run start, in a
// fixed arrival order, onto the paper's SoC floorplan (one systolic ME
// fabric beside DA/CORDIC transform fabrics, stage-pipelined and
// affinity-batched). The workload seed drives only the generated frame
// content, never the structure (stream shapes, condition trajectories,
// SLAs, floorplan), which the config digest fingerprints. The program
// under test receives nothing but the generated StreamJobs and the
// scheduler configuration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/fabric_pool.hpp"
#include "runtime/job.hpp"
#include "runtime/scheduler.hpp"

namespace perfbench {

/// Seed no tuning run used; later performance claims are re-checked on it.
inline constexpr std::uint64_t kHeldOutSeed = 90001;

struct Workload {
  std::string name;
  std::vector<dsra::runtime::StreamJob> jobs;  ///< arrival order
  dsra::runtime::SchedulerConfig config;
  /// Canonical rendering of every structural parameter (not the seed) —
  /// what the config digest hashes.
  std::string config_text;

  [[nodiscard]] std::string digest() const;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// The library every workload serves from: both array geometries the
/// floorplans use (12x8 full arrays and the 8x4 co-tenant partitions).
[[nodiscard]] dsra::runtime::KernelLibraryConfig library_config();

/// Generate workload @p name from @p seed against @p library. Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     const dsra::runtime::KernelLibrary& library);

}  // namespace perfbench
