// The benchmark's metric declarations: every metric it prints, with its
// unit, its direction and whether it belongs to the untraced end-to-end
// run or the traced per-layer run. BENCHMARK.json declares the same
// table; the self-test and run.py check that the two agree.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

enum class Section { kEndToEnd, kPerLayer };

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  ///< "higher" or "lower"
  Section section = Section::kEndToEnd;
};

[[nodiscard]] const std::vector<MetricSpec>& metric_specs();

/// The table as one JSON object {"end_to_end": [...], "per_layer": [...]},
/// each entry {"name", "unit", "better"} — what `perfbench --list-metrics`
/// prints.
[[nodiscard]] std::string metric_specs_json();

}  // namespace perfbench
