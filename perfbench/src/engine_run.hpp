// The engine-real workload: an in-process smr::Engine on the real pairing
// backend, driven closed-loop by one submitting thread.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct EngineRunConfig {
  std::uint32_t n = 0;
  std::uint32_t t = 0;
  std::uint32_t f = 0;  // crash faults injected on every slot
  std::uint32_t workers = 0;
  std::uint32_t queue = 0;
  std::uint32_t checkpoint_every = 0;
  std::uint32_t keys = 1;
  std::uint32_t setup_repeats = 1;
  std::uint64_t ops = 0;  // measured submissions after the warm-up
  std::uint64_t seed = 0;
  bool trace = false;
  std::string out_dir;
};

/// Writes engine.json under `out_dir`. Returns the exit code.
[[nodiscard]] int run_engine(const EngineRunConfig& config);

}  // namespace perfbench
