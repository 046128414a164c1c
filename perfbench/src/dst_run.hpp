// The dst-full workload: a check:: campaign over a grid file.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct DstRunConfig {
  std::string grid;  // campaign grid JSON (tools/grids/*.json format)
  unsigned jobs = 1;
  std::uint32_t chunks = 1;  // campaigns over slices of the seed axis
  std::uint32_t setup_repeats = 1;
  std::uint64_t seed = 0;
  bool trace = false;
  std::string out_dir;
};

/// Writes dst.json (and spans.tsv when tracing) under `out_dir`. Returns
/// the exit code.
[[nodiscard]] int run_dst(const DstRunConfig& config);

}  // namespace perfbench
