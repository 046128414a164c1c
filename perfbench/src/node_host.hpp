// Node 0 of a benchmark cluster hosted inside the bench process, for the
// traced node-open / node-closed runs (the other nodes stay mewc_node
// processes).
#pragma once

#include <cstdint>
#include <string>

#include "client.hpp"

namespace perfbench {

struct NodeHostConfig {
  std::uint32_t n = 0;
  std::uint32_t t = 0;
  std::uint32_t base_port = 0;
  std::uint64_t slots = 0;
  std::uint32_t checkpoint_every = 0;
  std::uint64_t cluster_seed = 0;
  std::uint64_t round_timeout_ms = 0;
  std::uint64_t connect_timeout_ms = 0;
  ClientConfig client;
  std::string out_dir;
};

/// Runs node 0 and, once the cluster is up, the bench client on this
/// thread. Prints mewc_node's exit lines and writes ops.tsv, pops.tsv,
/// spans.tsv and node0.json under `out_dir`. Returns the exit code.
[[nodiscard]] int run_node_host(const NodeHostConfig& config);

}  // namespace perfbench
