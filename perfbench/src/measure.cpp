#include "measure.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "core/arch.hpp"
#include "core/config_codec.hpp"
#include "dct/impl.hpp"
#include "mapper/flow.hpp"
#include "metric_table.hpp"
#include "oracle.hpp"
#include "runtime/admission.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/sim_schedule.hpp"
#include "runtime/stats.hpp"
#include "runtime/telemetry/export.hpp"
#include "runtime/telemetry/metrics.hpp"
#include "runtime/telemetry/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dsra;
using namespace dsra::runtime;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSetupRepeats = 7;  ///< library compiles + generations per run
constexpr std::size_t kMinPasses = 5;     ///< timed passes per run, at least
constexpr double kTailBeyond = 10.0;      ///< samples beyond the reported tail
constexpr int kLayerRepeats = 5;          ///< repeats of the cheap per-layer timings

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quartiles as Python's statistics.quantiles(v, n=4) computes them
/// (the default "exclusive" method), so in-run spreads read like the
/// spreads taken across runs.
std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long>(v.size());
  if (ld == 0) return {0.0, 0.0, 0.0};
  if (ld == 1) return {v[0], v[0], v[0]};
  std::array<double, 3> q{};
  const long m = ld + 1;
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) / 4.0;
  }
  return q;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

struct Pass {
  std::vector<StreamJob> jobs;
  RunReport report;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// What one pass contributes to the run's medians.
struct PassStats {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double frames = 0.0;
  double makespan = 0.0;
  double frames_per_mcycle = 0.0;
  double goodput_frames = 0.0;
  double goodput_per_mcycle = 0.0;
  double psnr_db = 0.0;
  double kbits_per_frame = 0.0;
  double admitted_ratio = 0.0;
  std::vector<double> latencies;  ///< modeled cycles, one per delivered frame
  // runtime / soc / sim / admission counters
  double dispatches = 0.0;
  double dispatch_batches = 0.0;
  double switches = 0.0;
  double partial_ratio = 0.0;
  double cache_hit_ratio = 0.0;
  double evictions = 0.0;
  double fetch_kcycles = 0.0;
  double reconfig_kcycles = 0.0;
  double port_kcycles = 0.0;
  double placement_rejections = 0.0;
  double condition_switches = 0.0;
  double stale_frames = 0.0;
  double utilization = 0.0;
  double promise_kept = 0.0;
  double completion_error_pct = 0.0;
  // traced passes only
  double queue_wait_us_p50 = 0.0;
  double prepare_us_per_job = 0.0;
  telemetry::StreamAttribution attribution;  ///< summed over streams
};

PassStats stats_of(const Pass& pass, double requested_frames) {
  const RunReport& r = pass.report;
  PassStats s;
  s.wall_s = pass.wall_s;
  s.cpu_s = pass.cpu_s;
  s.frames = static_cast<double>(r.total_frames);
  s.makespan = static_cast<double>(r.sim_makespan_cycles);
  s.frames_per_mcycle = ratio(s.frames * 1e6, s.makespan);
  s.goodput_frames = static_cast<double>(r.goodput_frames);
  s.goodput_per_mcycle = ratio(s.goodput_frames * 1e6, s.makespan);

  double psnr_sum = 0.0;
  double bits_sum = 0.0;
  double admitted_frames = 0.0;
  for (const StreamJob& job : pass.jobs) {
    if (job.admission_rung != DegradationRung::kReject)
      admitted_frames += static_cast<double>(job.frames.size());
    for (const FrameRecord& rec : job.records) {
      s.latencies.push_back(static_cast<double>(rec.latency_cycles));
      psnr_sum += rec.stats.psnr_db;
      bits_sum += rec.stats.bits;
    }
  }
  const auto delivered = static_cast<double>(s.latencies.size());
  s.psnr_db = ratio(psnr_sum, delivered);
  s.kbits_per_frame = ratio(bits_sum / 1e3, delivered);
  s.admitted_ratio = ratio(admitted_frames, requested_frames);

  s.dispatches = static_cast<double>(r.dispatches);
  s.dispatch_batches = static_cast<double>(r.dispatch_batches);
  s.switches = r.total_switches;
  s.partial_ratio = ratio(static_cast<double>(r.partial_reloads),
                          static_cast<double>(r.partial_reloads + r.full_reloads));
  s.cache_hit_ratio = ratio(static_cast<double>(r.cache.hits),
                            static_cast<double>(r.cache.hits + r.cache.misses));
  s.evictions = static_cast<double>(r.cache.evictions);
  s.fetch_kcycles = static_cast<double>(r.total_fetch_cycles) / 1e3;
  s.reconfig_kcycles = static_cast<double>(r.total_reconfig_cycles) / 1e3;
  s.port_kcycles = static_cast<double>(r.port_contention_cycles) / 1e3;
  s.placement_rejections = static_cast<double>(r.placement_rejections);
  s.condition_switches = static_cast<double>(r.condition_switches);
  s.stale_frames = static_cast<double>(r.stale_frames);
  s.utilization = r.sim_utilization;

  // Admission's promise: admitted streams that carry an SLA and met it,
  // and how far the pilot's completion prediction was from the replay.
  double sla_streams = 0.0;
  double kept = 0.0;
  double error_sum = 0.0;
  double error_n = 0.0;
  for (const StreamSummary& st : r.streams) {
    if (st.admission_rung == DegradationRung::kReject) continue;
    if (st.deadline_cycles == 0 && st.p99_budget_cycles == 0) continue;
    sla_streams += 1.0;
    kept += st.sla_met ? 1.0 : 0.0;
    if (st.predicted_completion_cycles > 0 && st.completion_cycles > 0) {
      const double actual = static_cast<double>(st.completion_cycles);
      error_sum +=
          std::abs(static_cast<double>(st.predicted_completion_cycles) - actual) / actual;
      error_n += 1.0;
    }
  }
  s.promise_kept = ratio(kept, sla_streams);
  s.completion_error_pct = 100.0 * ratio(error_sum, error_n);
  return s;
}

/// Host queue wait and prepare time from the runtime's own TraceRecorder
/// timestamps, and the summed modeled stall attribution.
void add_trace_stats(PassStats& s, const std::vector<telemetry::JobTrace>& jobs,
                     const RunReport& report) {
  std::vector<double> waits;
  waits.reserve(jobs.size());
  double prepare_ns = 0.0;
  for (const telemetry::JobTrace& j : jobs) {
    waits.push_back(static_cast<double>(j.dispatch_ns - j.ready_ns) / 1e3);
    prepare_ns += static_cast<double>(j.prepared_ns - j.dispatch_ns);
  }
  s.queue_wait_us_p50 = median(waits);
  s.prepare_us_per_job = ratio(prepare_ns / 1e3, static_cast<double>(jobs.size()));
  for (const telemetry::StreamAttribution& a : report.attribution) {
    s.attribution.end_to_end_cycles += a.end_to_end_cycles;
    s.attribution.queue_cycles += a.queue_cycles;
    s.attribution.bus_cycles += a.bus_cycles;
    s.attribution.reconfig_cycles += a.reconfig_cycles;
    s.attribution.compute_cycles += a.compute_cycles;
  }
}

template <typename T, typename F>
double median_of(const std::vector<T>& items, F field) {
  std::vector<double> v;
  v.reserve(items.size());
  for (const T& item : items) v.push_back(field(item));
  return median(std::move(v));
}

/// Modeled frame latency over every frame of every pass of the run: the
/// median, and the tail at the highest percentile that keeps at least
/// kTailBeyond samples beyond it in the smallest pool a run can have
/// (kMinPasses passes), so every run reports the same percentile.
struct LatencySummary {
  double p50_kcycles = 0.0;
  double tail_kcycles = 0.0;
  double tail_percentile = 0.0;
  std::size_t samples = 0;
};

LatencySummary pooled_latency(const std::vector<PassStats>& passes) {
  LatencySummary out;
  std::vector<double> pooled;
  for (const PassStats& p : passes) pooled.insert(pooled.end(), p.latencies.begin(), p.latencies.end());
  if (passes.empty() || pooled.empty()) return out;
  const double guaranteed =
      static_cast<double>(kMinPasses) * static_cast<double>(passes.front().latencies.size());
  out.tail_percentile = std::max(50.0, 100.0 * (1.0 - kTailBeyond / guaranteed));
  out.samples = pooled.size();
  out.p50_kcycles = percentile(pooled, 50.0) / 1e3;
  out.tail_kcycles = percentile(std::move(pooled), out.tail_percentile) / 1e3;
  return out;
}

struct MapperTimes {
  double compile_ms = 0.0;
  double infeasible_ms = 0.0;
  int compiled = 0;
  int infeasible = 0;
};

/// The library's place/route work, repeated from outside through the
/// mapper's public entry: every (context, geometry) pair the library
/// compiles, with the same netlists, architectures and placement seeds.
MapperTimes time_mapper(const KernelLibraryConfig& config) {
  MapperTimes t;
  const auto impls = dct::all_implementations(config.precision);
  me::SystolicParams me_params;
  me_params.block = 4;
  me_params.modules = 2;
  const auto attempt = [&t](const Netlist& netlist, const ArrayArch& arch, std::uint64_t seed) {
    const auto t0 = Clock::now();
    bool ok = true;
    try {
      map::FlowParams params;
      params.place.seed = seed;
      const map::CompiledDesign design = map::compile(netlist, arch, params);
      std::vector<PlacedClusterConfig> placed;
      placed.reserve(netlist.nodes().size());
      for (std::size_t i = 0; i < netlist.nodes().size(); ++i)
        placed.push_back({design.placement.node_tile[i].x, design.placement.node_tile[i].y,
                          netlist.nodes()[i].config});
      const ConfigFrameImage image = build_frame_image(arch.width(), arch.height(), placed);
      (void)image;
    } catch (const std::runtime_error&) {
      ok = false;
    }
    const double ms = seconds_since(t0) * 1e3;
    t.compile_ms += ms;
    if (ok) {
      ++t.compiled;
    } else {
      ++t.infeasible;
      t.infeasible_ms += ms;
    }
  };
  for (const ArrayGeometry& g : config.geometries) {
    const ArrayArch dct_arch = ArrayArch::distributed_arithmetic(g.width, g.height);
    for (const auto& impl : impls) attempt(impl->build_netlist(), dct_arch, 17);
    const ArrayArch me_arch = ArrayArch::motion_estimation(
        std::max(1, g.width / 2), std::max(1, g.height / 2), ChannelSpec{6, 12});
    attempt(me::build_systolic_netlist(me_params), me_arch, 11);
  }
  return t;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

Result run_benchmark(const Options& opt) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end())
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");

  // Set-up: compile the kernel library for both geometries and generate
  // the workload. The untraced run repeats it at even intervals across the
  // timed passes, so its median sees the same machine conditions they do.
  std::vector<double> setup_times;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    auto lib = std::make_unique<KernelLibrary>(library_config());
    Workload w = make_workload(opt.workload, opt.seed, *lib);
    setup_times.push_back(seconds_since(t0));
    return std::pair{std::move(lib), std::move(w)};
  };
  const std::size_t setup_repeats = opt.trace ? 1 : kSetupRepeats;
  auto [library, workload] = set_up();
  const KernelLibrary& lib = *library;
  const FabricPool topology(workload.config.resolved_fabrics(), lib);
  const std::vector<int> slot_physical = topology.physical_of();
  const int lookahead = workload.config.queue.pipeline_lookahead;
  double requested_frames = 0.0;
  for (const StreamJob& job : workload.jobs)
    requested_frames += static_cast<double>(job.frames.size());

  Result result;
  std::vector<std::string> problems;
  std::vector<ReferenceStream> reference;
  const auto check = [&](const Pass& pass) {
    if (reference.empty()) reference = sequential_reference(lib, workload.config.me, pass.jobs);
    std::vector<ReferenceStream> own;
    const bool cached = same_admission(reference, pass.jobs);
    if (!cached) own = sequential_reference(lib, workload.config.me, pass.jobs);
    const Verdict v = check_pass(cached ? reference : own, pass.jobs, pass.report,
                                 slot_physical, lookahead);
    result.attempted += v.admitted_frames;
    result.failed += v.failed_frames;
    for (const std::string& p : v.problems)
      if (problems.size() < 8) problems.push_back(p);
  };
  const auto run_pass = [&](telemetry::TraceRecorder* rec, telemetry::MetricsRegistry* metrics) {
    Pass p;
    p.jobs = workload.jobs;
    SchedulerConfig cfg = workload.config;
    cfg.trace = rec;
    cfg.metrics = metrics;
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    p.report = MultiStreamScheduler(lib, cfg).run(p.jobs);
    p.wall_s = seconds_since(t0);
    p.cpu_s = process_cpu_s() - cpu0;
    return p;
  };

  // One unmeasured warm-up pass (checked like every other; its admitted
  // streams seed the sequential reference), then timed passes for the
  // requested time. With tracing, each round runs an untraced pass, a
  // traced pass and a timed sequential encode back to back, so the three
  // see the same machine conditions.
  Pass last_plain = run_pass(nullptr, nullptr);
  check(last_plain);
  std::vector<PassStats> plain;
  std::vector<PassStats> traced;
  std::vector<StageTimes> sequential;
  Pass last_traced;
  telemetry::MetricsRegistry last_metrics;
  const auto start = Clock::now();
  while (plain.size() < kMinPasses || seconds_since(start) < opt.seconds) {
    if (setup_times.size() < setup_repeats &&
        seconds_since(start) * static_cast<double>(setup_repeats) >=
            opt.seconds * static_cast<double>(setup_times.size()))
      (void)set_up();
    last_plain = run_pass(nullptr, nullptr);
    check(last_plain);
    plain.push_back(stats_of(last_plain, requested_frames));
    if (!opt.trace) continue;
    telemetry::TraceRecorder recorder;
    telemetry::MetricsRegistry metrics;
    last_traced = run_pass(&recorder, &metrics);
    check(last_traced);
    PassStats s = stats_of(last_traced, requested_frames);
    add_trace_stats(s, recorder.merged(), last_traced.report);
    traced.push_back(std::move(s));
    last_metrics = std::move(metrics);
    StageTimes times;
    (void)sequential_reference(lib, workload.config.me, last_plain.jobs, &times);
    sequential.push_back(times);
  }
  while (setup_times.size() < setup_repeats) (void)set_up();

  result.correct = result.failed == 0 && result.attempted > 0;
  const auto plain_median = [&plain](auto field) { return median_of(plain, field); };
  const LatencySummary latency = pooled_latency(plain);
  std::vector<std::pair<std::string, double>> values;
  if (!opt.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    values = {
        {"setup_s", median(setup_times)},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0},
        {"modeled_frames_per_mcycle", plain_median([](const PassStats& p) { return p.frames_per_mcycle; })},
        {"modeled_latency_p50_kcycles", latency.p50_kcycles},
        {"modeled_latency_tail_kcycles", latency.tail_kcycles},
        {"psnr_db", plain_median([](const PassStats& p) { return p.psnr_db; })},
        {"kbits_per_frame", plain_median([](const PassStats& p) { return p.kbits_per_frame; })},
        {"exact_frame_ratio",
         ratio(static_cast<double>(result.attempted - std::min(result.failed, result.attempted)),
               static_cast<double>(result.attempted))},
        {"admitted_frame_ratio", plain_median([](const PassStats& p) { return p.admitted_ratio; })},
    };
  } else {
    const MapperTimes mapper = time_mapper(library_config());

    // Admission, timed on a copy of the workload against a fresh pool.
    std::vector<double> admission_ms;
    if (workload.config.admission.enabled) {
      for (int i = 0; i < kLayerRepeats; ++i) {
        std::vector<StreamJob> copy = workload.jobs;
        const FabricPool pool(workload.config.resolved_fabrics(), lib);
        AdmissionController controller(lib, pool, workload.config.me, workload.config.admission);
        const auto t0 = Clock::now();
        const AdmissionReport admitted = controller.admit_all(copy);
        admission_ms.push_back(seconds_since(t0) * 1e3);
        (void)admitted;
      }
    }

    // The modeled-time replay of the last untraced pass, timed from outside.
    std::vector<double> replay_ms;
    for (int i = 0; i < kLayerRepeats; ++i) {
      const auto t0 = Clock::now();
      const SimSchedule sim = simulate_timeline(last_plain.jobs, last_plain.report.timeline,
                                                lookahead, &slot_physical);
      replay_ms.push_back(seconds_since(t0) * 1e3);
      (void)sim;
    }

    // Telemetry export of the last traced pass.
    std::filesystem::create_directories(opt.out_dir);
    const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed);
    const auto t_export = Clock::now();
    const bool exported =
        telemetry::write_chrome_trace(stem + "-trace.json", last_traced.report) &&
        telemetry::write_metrics_json(stem + "-metrics.json", last_metrics,
                                      last_traced.report.wall_seconds);
    const double export_ms = seconds_since(t_export) * 1e3;
    if (!exported) problems.push_back("telemetry export failed");

    // Stall attribution of the traced pass with the median end-to-end
    // latency: its four shares sum to one exactly.
    std::vector<const PassStats*> by_e2e;
    for (const PassStats& p : traced) by_e2e.push_back(&p);
    std::sort(by_e2e.begin(), by_e2e.end(), [](const PassStats* a, const PassStats* b) {
      return a->attribution.end_to_end_cycles < b->attribution.end_to_end_cycles;
    });
    const telemetry::StreamAttribution& attr = by_e2e[by_e2e.size() / 2]->attribution;
    const auto share = [&attr](std::uint64_t part) {
      return ratio(static_cast<double>(part), static_cast<double>(attr.end_to_end_cycles));
    };

    // Runtime overhead (scheduler CPU minus the CPU the same codec stages
    // take when called sequentially) and tracing overhead (traced minus
    // untraced wall), each paired within a round, so a change in machine
    // speed between rounds does not masquerade as overhead.
    std::vector<double> overhead_us;
    std::vector<double> trace_overhead_pct;
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      overhead_us.push_back(ratio(plain[i].cpu_s * 1e6 - sequential[i].cpu_ns / 1e3,
                                  plain[i].dispatches));
      trace_overhead_pct.push_back(100.0 *
                                   ratio(traced[i].wall_s - plain[i].wall_s, plain[i].wall_s));
    }
    const auto seq_median = [&sequential](auto field) { return median_of(sequential, field); };

    std::vector<double> makespans;
    for (const PassStats& p : plain) makespans.push_back(p.makespan);
    const auto q = quartiles(makespans);
    const AdmissionReport& adm = last_plain.report.admission;

    // Goodput over the whole run: SLA-met frames of every pass over the
    // modeled time of every pass. A pass-level median would hide the
    // misses while most passes keep every promise.
    double goodput_frames = 0.0;
    double makespan_total = 0.0;
    for (const PassStats& p : plain) {
      goodput_frames += p.goodput_frames;
      makespan_total += p.makespan;
    }

    values = {
        {"host.frames_per_s", plain_median([](const PassStats& p) { return ratio(p.frames, p.wall_s); })},
        {"host.cpu_ms_per_frame", plain_median([](const PassStats& p) { return ratio(p.cpu_s * 1e3, p.frames); })},
        {"mapper.compile_ms", mapper.compile_ms},
        {"mapper.contexts_compiled", mapper.compiled},
        {"mapper.infeasible_attempts", mapper.infeasible},
        {"mapper.infeasible_ms", mapper.infeasible_ms},
        {"me.ns_per_macroblock", seq_median([](const StageTimes& t) {
           return ratio(t.me_ns, static_cast<double>(t.macroblocks));
         })},
        {"me.stage_ms", seq_median([](const StageTimes& t) { return t.me_ns / 1e6; })},
        {"dct.tq_ns_per_block", seq_median([](const StageTimes& t) {
           return ratio(t.tq_ns, static_cast<double>(t.blocks));
         })},
        {"video.recon_ns_per_block", seq_median([](const StageTimes& t) {
           return ratio(t.recon_ns, static_cast<double>(t.blocks));
         })},
        {"codec.sequential_ms_per_frame", seq_median([](const StageTimes& t) {
           return ratio(t.wall_ns / 1e6, static_cast<double>(t.frames));
         })},
        {"runtime.overhead_us_per_job", median(overhead_us)},
        {"runtime.host_queue_wait_us_p50", median_of(traced, [](const PassStats& p) { return p.queue_wait_us_p50; })},
        {"runtime.prepare_us_per_job", median_of(traced, [](const PassStats& p) { return p.prepare_us_per_job; })},
        {"runtime.dispatches", plain_median([](const PassStats& p) { return p.dispatches; })},
        {"runtime.dispatch_batches", plain_median([](const PassStats& p) { return p.dispatch_batches; })},
        {"runtime.switches", plain_median([](const PassStats& p) { return p.switches; })},
        {"runtime.partial_reload_ratio", plain_median([](const PassStats& p) { return p.partial_ratio; })},
        {"runtime.cache_hit_ratio", plain_median([](const PassStats& p) { return p.cache_hit_ratio; })},
        {"runtime.cache_evictions", plain_median([](const PassStats& p) { return p.evictions; })},
        {"runtime.fetch_kcycles", plain_median([](const PassStats& p) { return p.fetch_kcycles; })},
        {"runtime.reconfig_kcycles", plain_median([](const PassStats& p) { return p.reconfig_kcycles; })},
        {"runtime.port_contention_kcycles", plain_median([](const PassStats& p) { return p.port_kcycles; })},
        {"runtime.placement_rejections", plain_median([](const PassStats& p) { return p.placement_rejections; })},
        {"soc.condition_switches", plain_median([](const PassStats& p) { return p.condition_switches; })},
        {"soc.stale_frames", plain_median([](const PassStats& p) { return p.stale_frames; })},
        {"attrib.queue_share", share(attr.queue_cycles)},
        {"attrib.fetch_share", share(attr.bus_cycles)},
        {"attrib.reconfig_share", share(attr.reconfig_cycles)},
        {"attrib.compute_share", share(attr.compute_cycles)},
        {"admission.ms", median(admission_ms)},
        {"admission.admitted", static_cast<double>(adm.admitted)},
        {"admission.degraded", static_cast<double>(adm.admitted - adm.admitted_clean)},
        {"admission.shed", static_cast<double>(adm.rejected)},
        {"admission.promise_kept_ratio", plain_median([](const PassStats& p) { return p.promise_kept; })},
        {"admission.completion_error_pct", plain_median([](const PassStats& p) { return p.completion_error_pct; })},
        {"admission.goodput_frames_per_mcycle", ratio(goodput_frames * 1e6, makespan_total)},
        {"sim.replay_ms", median(replay_ms)},
        {"sim.utilization", plain_median([](const PassStats& p) { return p.utilization; })},
        {"sim.makespan_spread_pct", 100.0 * ratio(q[2] - q[0], q[1])},
        {"telemetry.trace_overhead_pct", median(trace_overhead_pct)},
        {"telemetry.export_ms", export_ms},
    };
    if (mapper.compiled + mapper.infeasible == 0) problems.push_back("mapper compiled nothing");
  }

  // Emit in declaration order; a metric the table declares but this run
  // did not produce is a benchmark bug, not a zero.
  for (const MetricSpec& spec : metric_specs()) {
    if ((spec.section == Section::kPerLayer) != opt.trace) continue;
    const auto it = std::find_if(values.begin(), values.end(),
                                 [&spec](const auto& v) { return v.first == spec.name; });
    if (it == values.end()) throw std::logic_error("metric " + spec.name + " not measured");
    result.metrics.push_back(*it);
  }

  std::string info = "{\"workload\": " + json_string(opt.workload) +
                     ", \"seed\": " + std::to_string(opt.seed) +
                     ", \"held_out_seed\": " + std::to_string(kHeldOutSeed) +
                     ", \"config_digest\": " + json_string(workload.digest()) +
                     ", \"trace\": " + (opt.trace ? "1" : "0") +
                     ", \"streams\": " + std::to_string(workload.jobs.size()) +
                     ", \"requested_frames\": " + number(requested_frames) +
                     ", \"setup_repeats\": " + std::to_string(setup_times.size()) +
                     ", \"timed_passes\": " + std::to_string(plain.size()) +
                     ", \"traced_passes\": " + std::to_string(traced.size()) +
                     ", \"latency_samples\": " + std::to_string(latency.samples) +
                     ", \"tail_percentile\": " + number(latency.tail_percentile) +
                     ", \"hardware_threads\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"clocks\": {\"host\": \"steady_clock wall and process CPU of the timed "
                     "passes\", \"modeled\": \"the repository's own array cycle model, not "
                     "checked against silicon\"}, \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i)
    info += (i > 0 ? ", " : "") + json_string(problems[i]);
  result.info_json = info + "]}";

  // The run record: info, result and the per-pass series behind each
  // median, for reading the in-run distribution later.
  const auto series = [&plain](auto field) {
    std::string out = "[";
    for (std::size_t i = 0; i < plain.size(); ++i)
      out += (i > 0 ? ", " : "") + number(field(plain[i]));
    return out + "]";
  };
  std::filesystem::create_directories(opt.out_dir);
  std::ofstream record(opt.out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) +
                       "-trace" + (opt.trace ? "1" : "0") + ".json");
  record << "{\"info\": " << result.info_json << ", \"result\": " << result_json(result)
         << ", \"setup_s\": [";
  for (std::size_t i = 0; i < setup_times.size(); ++i)
    record << (i > 0 ? ", " : "") << number(setup_times[i]);
  record << "], \"passes\": {\"wall_s\": " << series([](const PassStats& p) { return p.wall_s; })
         << ", \"cpu_s\": " << series([](const PassStats& p) { return p.cpu_s; })
         << ", \"makespan_kcycles\": " << series([](const PassStats& p) { return p.makespan / 1e3; })
         << ", \"goodput_per_mcycle\": " << series([](const PassStats& p) { return p.goodput_per_mcycle; })
         << "}}\n";
  return result;
}

std::string result_json(const Result& result) {
  std::string out = std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(result.attempted) +
                    ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    const auto& specs = metric_specs();
    const auto spec = std::find_if(specs.begin(), specs.end(),
                                   [&name](const MetricSpec& s) { return s.name == name; });
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + number(value) +
           ", \"unit\": " + json_string(spec->unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
