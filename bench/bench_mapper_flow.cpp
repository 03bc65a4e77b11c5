// Experiment A1 - mapper ablations. The paper relies on a "software flow"
// that maps implementations onto the arrays; this bench characterises our
// flow: annealing schedule vs wirelength, channel width vs routability,
// end-to-end compile timing per implementation, and the wall time of
// building the whole two-geometry kernel library (every context's
// place/route attempt, run concurrently, plus the delta table).
#include <benchmark/benchmark.h>

#include "common/report.hpp"
#include "dct/impl.hpp"
#include "mapper/flow.hpp"
#include "runtime/fabric_pool.hpp"

namespace {

using namespace dsra;

void ablation_report() {
  const Netlist nl = dct::make_cordic1()->build_netlist();
  const ArrayArch arch = ArrayArch::distributed_arithmetic(12, 8);

  ReportTable sa("placement: annealing effort vs wirelength (cordic1 netlist)");
  sa.set_header({"moves/node/temp", "cooling", "wirelength", "vs random"});
  for (const auto& [moves, cooling] : std::vector<std::pair<int, double>>{
           {0, 0.5}, {2, 0.8}, {8, 0.9}, {12, 0.92}, {24, 0.95}}) {
    map::PlaceParams p;
    p.moves_per_node_per_temp = moves;
    p.cooling = cooling;
    const map::PlaceResult r = map::place(nl, arch, p);
    sa.add_row({format_i64(moves), format_double(cooling, 2),
                format_double(r.final_wirelength, 1),
                "-" + format_percent(1.0 - r.final_wirelength /
                                               std::max(1.0, r.initial_wirelength))});
  }
  sa.print();

  ReportTable ch("routing: channel width vs convergence (cordic1 netlist)");
  ch.set_header({"bus tracks", "bit tracks", "routed", "iterations", "peak channel use",
                 "wirelength"});
  for (const auto& [bus, bit] : std::vector<std::pair<int, int>>{
           {2, 4}, {3, 6}, {4, 8}, {6, 12}, {8, 16}}) {
    const ArrayArch a = ArrayArch::distributed_arithmetic(12, 8, 4, ChannelSpec{bus, bit});
    const map::PlaceResult placed = map::place(nl, a, map::PlaceParams{});
    const map::RRGraph graph(a);
    const map::RouteResult routes = map::route(nl, placed.placement, graph);
    ch.add_row({format_i64(bus), format_i64(bit), routes.success ? "yes" : "NO",
                format_i64(routes.iterations), format_i64(routes.max_channel_usage),
                format_double(routes.wirelength, 0)});
  }
  ch.print();
  std::printf("\n");
}

void bm_compile(benchmark::State& state) {
  const auto impls = dct::all_implementations();
  const auto& impl = impls[static_cast<std::size_t>(state.range(0))];
  const Netlist nl = impl->build_netlist();
  const ArrayArch arch = ArrayArch::distributed_arithmetic(12, 8);
  for (auto _ : state) {
    map::FlowParams params;
    benchmark::DoNotOptimize(map::compile(nl, arch, params));
  }
  state.SetLabel(impl->name());
  state.counters["clusters"] = nl.census().total();
}

void bm_library_build(benchmark::State& state) {
  runtime::KernelLibraryConfig config;
  config.geometries = {runtime::kDefaultGeometry, runtime::kSmallSccGeometry};
  for (auto _ : state) {
    const runtime::KernelLibrary library(config);
    benchmark::DoNotOptimize(library.total_bytes());
  }
}

}  // namespace

BENCHMARK(bm_compile)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_library_build)->Unit(benchmark::kMillisecond)->UseRealTime();

int main(int argc, char** argv) {
  ablation_report();

  BenchJson json(BenchJson::name_from_argv0(argc > 0 ? argv[0] : nullptr));
  {
    const Netlist nl = dct::make_cordic1()->build_netlist();
    const ArrayArch arch = ArrayArch::distributed_arithmetic(12, 8);
    const map::PlaceResult r = map::place(nl, arch, map::PlaceParams{});
    json.metric("cordic1_wirelength", r.final_wirelength);
    const map::CompiledDesign design = map::compile(nl, arch, map::FlowParams{});
    json.metric("cordic1_bitstream_bits", static_cast<double>(design.bitstream_size_bits()));
    json.metric("cordic1_fmax_mhz", design.timing.fmax_mhz);
  }
  json.write();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
