// Self-test of the benchmark's own machinery: the correctness oracle must
// accept a clean scheduler pass and reject an injected one-bit mismatch,
// a dropped, a duplicated or a reordered frame and a wrong makespan; the
// workload generator must be a pure function of the seed.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "metric_table.hpp"
#include "oracle.hpp"
#include "runtime/scheduler.hpp"
#include "workloads.hpp"

using namespace dsra;
using namespace dsra::runtime;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

double flip_low_bit(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= 1u;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

struct Scenario {
  std::vector<StreamJob> jobs;
  RunReport report;
};

}  // namespace

int main() {
  const KernelLibrary library(perfbench::library_config());

  // A small stage-pipelined run on the paper's floorplan.
  SchedulerConfig cfg;
  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  cfg.queue.mode = DispatchMode::kStagePipeline;
  FabricConfig me_fabric;
  me_fabric.capabilities = kCapMotionEstimation;
  FabricConfig dct_fabric;
  dct_fabric.capabilities = kCapDctTransform;
  cfg.fabric_configs = {me_fabric, dct_fabric, dct_fabric};
  std::vector<StreamJob> jobs;
  const soc::RuntimeCondition conditions[] = {{1.0, 0.95}, {0.12, 0.8}, {0.9, 0.3}};
  for (int i = 0; i < 3; ++i) {
    StreamConfig sc;
    sc.width = 32;
    sc.height = 32;
    sc.frame_budget = 4;
    sc.condition = conditions[i];
    sc.codec.me_range = 2;
    sc.seed = 100 + static_cast<std::uint64_t>(i);
    jobs.push_back(make_synthetic_job(i, sc));
  }
  Scenario clean{jobs, {}};
  clean.report = MultiStreamScheduler(library, cfg).run(clean.jobs);
  const std::vector<int> topology = FabricPool(cfg.resolved_fabrics(), library).physical_of();
  const auto reference = perfbench::sequential_reference(library, cfg.me, clean.jobs);

  const auto failed_with = [&](const std::function<void(Scenario&)>& inject) {
    Scenario s = clean;
    inject(s);
    return perfbench::check_pass(reference, s.jobs, s.report, topology,
                                 cfg.queue.pipeline_lookahead)
        .failed_frames;
  };

  expect(failed_with([](Scenario&) {}) == 0, "clean pass is accepted");
  expect(failed_with([](Scenario& s) {
           s.jobs[1].records[2].stats.bits = flip_low_bit(s.jobs[1].records[2].stats.bits);
         }) == 1,
         "one-bit mismatch in a frame's bits fails that frame");
  expect(failed_with([](Scenario& s) {
           s.jobs[0].records[1].stats.psnr_db = flip_low_bit(s.jobs[0].records[1].stats.psnr_db);
         }) == 1,
         "one-bit mismatch in a frame's PSNR fails that frame");
  expect(failed_with([](Scenario& s) { s.jobs[2].recon_state.data()[5] ^= 1u; }) == 1,
         "one-bit mismatch in the final reconstruction fails the last frame");
  expect(failed_with([](Scenario& s) { s.jobs[1].records.erase(s.jobs[1].records.begin() + 2); }) >= 1,
         "dropped frame fails");
  expect(failed_with([](Scenario& s) { s.jobs[0].records.push_back(s.jobs[0].records[1]); }) >= 1,
         "duplicated frame fails");
  expect(failed_with([](Scenario& s) {
           std::swap(s.jobs[2].records[1], s.jobs[2].records[2]);
         }) >= 2,
         "out-of-order frames fail");
  expect(failed_with([](Scenario& s) { s.jobs[0].records[3].impl = "cordic2"; }) == 1,
         "frame under the wrong context fails");
  expect(failed_with([](Scenario& s) { s.report.sim_makespan_cycles += 1; }) == 12,
         "makespan that the outside replay does not reproduce fails every frame");

  // Workload generation: the seed drives inputs, never the structure.
  for (const std::string& name : perfbench::workload_names()) {
    const auto a = perfbench::make_workload(name, 7, library);
    const auto b = perfbench::make_workload(name, 7, library);
    const auto c = perfbench::make_workload(name, 8, library);
    expect(a.digest() == b.digest() && a.digest() == c.digest(),
           name + ": config digest is seed-independent");
    bool same = a.jobs.size() == b.jobs.size();
    for (std::size_t k = 0; same && k < a.jobs.size(); ++k)
      same = a.jobs[k].frames[1].data() == b.jobs[k].frames[1].data() &&
             a.jobs[k].frame_impls == b.jobs[k].frame_impls;
    expect(same, name + ": same seed, same inputs");
    expect(a.jobs[0].frames[1].data() != c.jobs[0].frames[1].data(),
           name + ": another seed, other frame content");
  }

  std::set<std::string> names;
  for (const auto& m : perfbench::metric_specs()) names.insert(m.name);
  expect(names.size() == perfbench::metric_specs().size(), "metric names are unique");

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
