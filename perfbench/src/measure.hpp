// One benchmark run: set-up, the timed scheduler passes and, with
// tracing, the per-layer measurements taken from outside the program.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where the run record and trace exports go
};

struct Result {
  bool correct = false;
  std::uint64_t attempted = 0;  ///< admitted frames over every checked pass
  std::uint64_t failed = 0;     ///< of those, frames the oracle rejected
  std::vector<std::pair<std::string, double>> metrics;  ///< declaration order
  std::string info_json;  ///< seed, digest, pass counts, tail percentile, ...
};

/// Run @p opt. Throws std::invalid_argument on an unknown workload.
[[nodiscard]] Result run_benchmark(const Options& opt);

/// The result line: {"correct", "attempted", "failed", "metrics"}, each
/// metric {"value", "unit"}.
[[nodiscard]] std::string result_json(const Result& result);

}  // namespace perfbench
