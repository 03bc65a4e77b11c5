#include "metric_table.hpp"

namespace perfbench {

const std::vector<MetricSpec>& metric_specs() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s;
    const auto e2e = [&s](const char* name, const char* unit, const char* better) {
      s.push_back({name, unit, better, Section::kEndToEnd});
    };
    const auto layer = [&s](const char* name, const char* unit, const char* better) {
      s.push_back({name, unit, better, Section::kPerLayer});
    };

    // End to end, measured with tracing off. Modeled clocks: the
    // repository's own cycle model of the arrays (not checked against
    // silicon), over the passes of one run. Host throughput and goodput
    // are not here: host core speed on a shared machine swings 2x for tens
    // of seconds, and goodput follows it through the racing workers, so
    // neither can hold an end-to-end bound. The traced run reports both.
    e2e("setup_s", "s", "lower");
    e2e("peak_rss_mb", "MB", "lower");
    e2e("modeled_frames_per_mcycle", "frames/Mcycle", "higher");
    e2e("modeled_latency_p50_kcycles", "kcycles", "lower");
    e2e("modeled_latency_tail_kcycles", "kcycles", "lower");
    e2e("psnr_db", "dB", "higher");
    e2e("kbits_per_frame", "kbit", "lower");
    e2e("exact_frame_ratio", "ratio", "higher");
    e2e("admitted_frame_ratio", "ratio", "higher");

    // Per layer, from the separate traced run; host throughput comes from
    // its untraced passes.
    layer("host.frames_per_s", "frames/s", "higher");
    layer("host.cpu_ms_per_frame", "ms", "lower");
    layer("mapper.compile_ms", "ms", "lower");
    layer("mapper.contexts_compiled", "count", "higher");
    layer("mapper.infeasible_attempts", "count", "lower");
    layer("mapper.infeasible_ms", "ms", "lower");
    layer("me.ns_per_macroblock", "ns", "lower");
    layer("me.stage_ms", "ms", "lower");
    layer("dct.tq_ns_per_block", "ns", "lower");
    layer("video.recon_ns_per_block", "ns", "lower");
    layer("codec.sequential_ms_per_frame", "ms", "lower");
    layer("runtime.overhead_us_per_job", "us", "lower");
    layer("runtime.host_queue_wait_us_p50", "us", "lower");
    layer("runtime.prepare_us_per_job", "us", "lower");
    layer("runtime.dispatches", "count", "lower");
    layer("runtime.dispatch_batches", "count", "lower");
    layer("runtime.switches", "count", "lower");
    layer("runtime.partial_reload_ratio", "ratio", "higher");
    layer("runtime.cache_hit_ratio", "ratio", "higher");
    layer("runtime.cache_evictions", "count", "lower");
    layer("runtime.fetch_kcycles", "kcycles", "lower");
    layer("runtime.reconfig_kcycles", "kcycles", "lower");
    layer("runtime.port_contention_kcycles", "kcycles", "lower");
    layer("runtime.placement_rejections", "count", "lower");
    layer("soc.condition_switches", "count", "lower");
    layer("soc.stale_frames", "count", "lower");
    layer("attrib.queue_share", "ratio", "lower");
    layer("attrib.fetch_share", "ratio", "lower");
    layer("attrib.reconfig_share", "ratio", "lower");
    layer("attrib.compute_share", "ratio", "higher");
    layer("admission.ms", "ms", "lower");
    layer("admission.admitted", "count", "higher");
    layer("admission.degraded", "count", "lower");
    layer("admission.shed", "count", "lower");
    layer("admission.promise_kept_ratio", "ratio", "higher");
    layer("admission.completion_error_pct", "%", "lower");
    layer("admission.goodput_frames_per_mcycle", "frames/Mcycle", "higher");
    layer("sim.replay_ms", "ms", "lower");
    layer("sim.utilization", "ratio", "higher");
    layer("sim.makespan_spread_pct", "%", "lower");
    layer("telemetry.trace_overhead_pct", "%", "lower");
    layer("telemetry.export_ms", "ms", "lower");
    return s;
  }();
  return specs;
}

std::string metric_specs_json() {
  std::string out = "{";
  for (const Section section : {Section::kEndToEnd, Section::kPerLayer}) {
    out += section == Section::kEndToEnd ? "\"end_to_end\": [" : ", \"per_layer\": [";
    bool first = true;
    for (const MetricSpec& m : metric_specs()) {
      if (m.section != section) continue;
      if (!first) out += ", ";
      first = false;
      out += "{\"name\": \"" + m.name + "\", \"unit\": \"" + m.unit + "\", \"better\": \"" +
             m.better + "\"}";
    }
    out += "]";
  }
  return out + "}";
}

}  // namespace perfbench
