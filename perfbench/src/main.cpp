// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//   perfbench --list-metrics
//
// Runs one workload through the public runtime API, checks every encoded
// frame against a sequential re-encode and prints, as the last line of
// standard output, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// The line before it carries the run's seed, config digest and the
// tail-percentile bookkeeping. Exits 1 when the oracle rejects any frame,
// 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "measure.hpp"
#include "metric_table.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] | --list-metrics\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--list-metrics") {
      std::printf("%s\n", perfbench::metric_specs_json().c_str());
      return 0;
    }
    if (a + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++a];
    try {
      if (arg == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (arg == "--out-dir") {
        opt.out_dir = value;
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  try {
    const perfbench::Result result = perfbench::run_benchmark(opt);
    std::printf("%s\n%s\n", result.info_json.c_str(), perfbench::result_json(result).c_str());
    std::fflush(stdout);
    if (!result.correct) {
      std::fprintf(stderr, "perfbench: the correctness oracle rejected %llu of %llu frames\n",
                   static_cast<unsigned long long>(result.failed),
                   static_cast<unsigned long long>(result.attempted));
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
