// perfbench_driver: the compiled half of the benchmark; run.py is the
// other half and the only intended caller. Every parameter is required, so
// the values fixed in perfbench/run.py are the only ones in effect.
//
//   perfbench_driver client --ports P,P,.. (--mode open --rate R |
//       --mode closed --depth D) --ops K --slots S --slot-rate R --guard G
//       --keys K --seed S --deadline-s T --out DIR
//   perfbench_driver node0 <client flags> --base-port P --n N --t T
//       --checkpoint-every C --cluster-seed S --round-timeout-ms MS
//       --connect-timeout-ms MS
//   perfbench_driver engine --n N --t T --f F --workers W --queue Q
//       --checkpoint-every C --keys K --setup-repeats R --ops K --seed S
//       --trace 0|1 --out DIR
//   perfbench_driver dst --grid FILE --jobs J --chunks C --setup-repeats R
//       --seed S
//       --trace 0|1 --out DIR
//
// Raw measurements go to files under --out; run.py turns them into metrics.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "../../tools/argparse.hpp"
#include "client.hpp"
#include "dst_run.hpp"
#include "engine_run.hpp"
#include "node_host.hpp"

namespace {

using perfbench::ClientConfig;

/// `--key value` pairs; every key must be read exactly once.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) fail("bad argument " + key);
      values_[key.substr(2)] = argv[i + 1];
    }
  }

  std::string str(const std::string& key) {
    const auto it = values_.find(key);
    if (it == values_.end()) fail("missing --" + key);
    std::string v = it->second;
    values_.erase(it);
    return v;
  }
  std::uint64_t u64(const std::string& key) {
    return mewc::tools::parse_u64(("--" + key).c_str(), str(key).c_str());
  }
  std::uint32_t u32(const std::string& key) {
    return mewc::tools::parse_u32(("--" + key).c_str(), str(key).c_str());
  }
  double f64(const std::string& key) {
    const std::string v = str(key);
    char* end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0') fail("--" + key + " is not a number");
    return x;
  }
  void done() const {
    if (!values_.empty()) fail("unknown flag --" + values_.begin()->first);
  }

 private:
  [[noreturn]] static void fail(const std::string& what) {
    std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
    std::exit(2);
  }
  std::map<std::string, std::string> values_;
};

ClientConfig client_config(Args& a) {
  ClientConfig c;
  const std::string ports = a.str("ports");
  for (std::size_t pos = 0; pos < ports.size();) {
    const std::size_t comma = ports.find(',', pos);
    const std::string one = ports.substr(pos, comma - pos);
    c.ports.push_back(static_cast<std::uint16_t>(
        mewc::tools::parse_u32("--ports", one.c_str(), 65535)));
    pos = comma == std::string::npos ? ports.size() : comma + 1;
  }
  c.open_loop = a.str("mode") == "open";
  if (c.open_loop) {
    c.rate = a.f64("rate");
  } else {
    c.depth = a.u32("depth");
  }
  c.ops = a.u64("ops");
  c.slot_budget = a.u64("slots");
  c.nominal_slot_rate = a.f64("slot-rate");
  c.guard_slots = a.u64("guard");
  c.keys = a.u32("keys");
  c.seed = a.u64("seed");
  c.deadline_s = a.f64("deadline-s");
  return c;
}

int client_main(Args& a) {
  const ClientConfig c = client_config(a);
  const std::string out = a.str("out");
  a.done();
  const perfbench::ClientResult r = perfbench::run_client(c);
  if (!r.connected) {
    std::fprintf(stderr, "client: %s\n", r.error.c_str());
    return 1;
  }
  std::printf(
      "client: bad_frames=%llu stopped_by_rule=%d kv_mismatches=%llu "
      "replayed_kv=0x%016llx\n",
      static_cast<unsigned long long>(r.bad_frames), r.stopped_by_rule ? 1 : 0,
      static_cast<unsigned long long>(r.kv_mismatches),
      static_cast<unsigned long long>(r.replayed_kv));
  return perfbench::write_ops(out + "/ops.tsv", r.ops) ? 0 : 1;
}

int node0_main(Args& a) {
  perfbench::NodeHostConfig c;
  c.client = client_config(a);
  c.slots = c.client.slot_budget;
  c.base_port = a.u32("base-port");
  c.n = a.u32("n");
  c.t = a.u32("t");
  c.checkpoint_every = a.u32("checkpoint-every");
  c.cluster_seed = a.u64("cluster-seed");
  c.round_timeout_ms = a.u64("round-timeout-ms");
  c.connect_timeout_ms = a.u64("connect-timeout-ms");
  c.out_dir = a.str("out");
  a.done();
  return perfbench::run_node_host(c);
}

int engine_main(Args& a) {
  perfbench::EngineRunConfig c;
  c.n = a.u32("n");
  c.t = a.u32("t");
  c.f = a.u32("f");
  c.workers = a.u32("workers");
  c.queue = a.u32("queue");
  c.checkpoint_every = a.u32("checkpoint-every");
  c.keys = a.u32("keys");
  c.setup_repeats = a.u32("setup-repeats");
  c.ops = a.u64("ops");
  c.seed = a.u64("seed");
  c.trace = a.u64("trace") != 0;
  c.out_dir = a.str("out");
  a.done();
  return perfbench::run_engine(c);
}

int dst_main(Args& a) {
  perfbench::DstRunConfig c;
  c.grid = a.str("grid");
  c.jobs = a.u32("jobs");
  c.chunks = a.u32("chunks");
  c.setup_repeats = a.u32("setup-repeats");
  c.seed = a.u64("seed");
  c.trace = a.u64("trace") != 0;
  c.out_dir = a.str("out");
  a.done();
  return perfbench::run_dst(c);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_driver client|node0|engine|dst --flag "
                 "value ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  Args args(argc, argv);
  if (mode == "client") return client_main(args);
  if (mode == "node0") return node0_main(args);
  if (mode == "engine") return engine_main(args);
  if (mode == "dst") return dst_main(args);
  std::fprintf(stderr, "perfbench_driver: unknown mode %s\n", mode.c_str());
  return 2;
}
