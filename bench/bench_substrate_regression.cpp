// Substrate perf-regression bench: measures the simulation loop itself —
// rounds/sec and messages/sec for a pure send/deliver workload, cells/sec
// over the campaign smoke grid — and counts heap allocations on both paths
// via a global operator new override. Emits machine-readable
// BENCH_sim_substrate.json so CI can diff runs; the word-count totals
// double as a behaviour fingerprint (an optimization that changes them is
// not an optimization, it is a bug).
//
//   bench_substrate_regression --grid tools/grids/smoke.json \
//                              --out BENCH_sim_substrate.json [--no-pool]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "check/campaign.hpp"
#include "check/json.hpp"
#include "check/runner.hpp"
#include "common/hash.hpp"
#include "net/arena.hpp"
#include "sim/executor.hpp"
#include "wire/codec.hpp"
#include "wire/view.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mewc::bench {
namespace {

namespace json = check::json;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Section 1: pure-substrate microbench — broadcast-heavy executor rounds
// with a trivial protocol, so everything measured is the send/deliver path.

struct BeatPayload final : Payload {
  Round sent_in = 0;
  explicit BeatPayload(Round r) : sent_in(r) {}
  [[nodiscard]] std::size_t words() const override { return 1; }
  [[nodiscard]] const char* kind() const override { return "bench.beat"; }
};

class BeatProcess final : public IProcess {
 public:
  void on_send(Round r, Outbox& out) override {
    out.broadcast(pool::make<BeatPayload>(r));
  }
  void on_receive(Round, std::span<const Message> inbox) override {
    received += inbox.size();
  }
  std::size_t received = 0;
};

struct MicrobenchResult {
  std::uint32_t n = 0;
  Round rounds = 0;
  double seconds = 0;
  std::uint64_t messages = 0;        // link-crossing deliveries
  std::uint64_t words = 0;           // metered words (fingerprint)
  std::uint64_t allocs = 0;          // steady-state, after warm-up
  std::uint64_t warmup_allocs = 0;   // first pass, pools cold
};

MicrobenchResult run_microbench(std::uint32_t n, Round rounds) {
  MicrobenchResult res;
  res.n = n;
  res.rounds = rounds;

  const std::uint32_t t = (n - 1) / 2;
  ThresholdFamily family(n, t);
  std::vector<KeyBundle> bundles;
  std::vector<std::unique_ptr<IProcess>> procs;
  for (ProcessId p = 0; p < n; ++p) {
    bundles.push_back(family.issue_bundle(p));
    procs.push_back(std::make_unique<BeatProcess>());
  }
  Adversary null_adv;
  const auto exec = make_executor(ExecutorKind::kLockstep, family,
                                  std::move(bundles), std::move(procs),
                                  null_adv);

  const std::uint64_t before_warmup = allocations();
  exec->run(rounds);  // warm-up: pools fill, every buffer reaches capacity
  res.warmup_allocs = allocations() - before_warmup;

  const std::uint64_t before = allocations();
  const Clock::time_point start = Clock::now();
  exec->run(rounds);  // measured steady state: same schedule again
  res.seconds = seconds_since(start);
  res.allocs = allocations() - before;
  res.messages = exec->meter().messages_correct / 2;  // measured pass only
  res.words = exec->meter().words_correct;
  return res;
}

json::Value microbench_json(const MicrobenchResult& r) {
  json::Object o;
  o["n"] = r.n;
  o["rounds"] = r.rounds;
  o["seconds"] = r.seconds;
  o["rounds_per_sec"] = r.rounds / r.seconds;
  o["messages_per_sec"] = r.messages / r.seconds;
  o["steady_state_allocs"] = r.allocs;
  o["steady_state_allocs_per_round"] =
      static_cast<double>(r.allocs) / r.rounds;
  o["warmup_allocs"] = r.warmup_allocs;
  o["words_correct_fingerprint"] = r.words;
  return o;
}

// ---------------------------------------------------------------------------
// Section 2: campaign smoke grid — the end-to-end cost of a cell, including
// setup (family + key issuance), the run, and invariant-relevant metering.

struct CampaignResult {
  std::uint64_t cells = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;  // fingerprint: must not move across revisions
  std::uint64_t allocs = 0;
  double seconds = 0;
};

CampaignResult run_campaign_bench(const check::GridSpec& grid) {
  CampaignResult res;
  const std::vector<check::CellSpec> cells = grid.enumerate();
  check::RunOptions opts;
  opts.record_messages = false;  // campaigns run this way; streams are replay-only

  const std::uint64_t before = allocations();
  const Clock::time_point start = Clock::now();
  for (const check::CellSpec& cell : cells) {
    const check::RunRecord rec = check::run_cell(cell, opts);
    res.rounds += rec.rounds;
    res.messages += rec.meter.messages_correct + rec.meter.messages_byzantine;
    res.words += rec.meter.words_correct;
  }
  res.seconds = seconds_since(start);
  res.allocs = allocations() - before;
  res.cells = cells.size();
  return res;
}

json::Value campaign_json(const CampaignResult& r) {
  json::Object o;
  o["cells"] = r.cells;
  o["seconds"] = r.seconds;
  o["cells_per_sec"] = r.cells / r.seconds;
  o["rounds_total"] = r.rounds;
  o["rounds_per_sec"] = r.rounds / r.seconds;
  o["messages_total"] = r.messages;
  o["allocs"] = r.allocs;
  o["allocs_per_cell"] = static_cast<double>(r.allocs) / r.cells;
  o["words_correct_fingerprint"] = r.words;
  return o;
}

// ---------------------------------------------------------------------------
// Section 3: zero-copy codec path. encode_into reuses one buffer and
// wire::view parses it into borrowed spans, so a steady-state
// encode+view loop over real protocol traffic must allocate NOTHING —
// that is a hard gate (exit non-zero), because every heap allocation on
// this path is a per-message cost a deployment pays n^2 times per round.
// The materializing wire::decode of the same corpus is timed alongside
// for contrast (it allocates by design; it is the fallback path).

struct CodecResult {
  std::size_t corpus = 0;          // distinct wire-encodable payloads
  std::uint64_t passes = 0;
  std::uint64_t view_allocs = 0;   // steady state; gated == 0
  std::uint64_t view_failures = 0; // canonical bytes view() refused; gated == 0
  std::uint64_t decode_allocs = 0;
  double view_seconds = 0;
  double decode_seconds = 0;
  std::uint64_t fingerprint = 0;   // folded view fields: a behaviour pin
};

/// Real mixed traffic: one faulty cell per protocol, every recorded
/// payload that has a wire form.
std::vector<PayloadPtr> codec_corpus() {
  std::vector<PayloadPtr> out;
  for (const check::Protocol proto :
       {check::Protocol::kBb, check::Protocol::kWeakBa,
        check::Protocol::kStrongBa, check::Protocol::kFallback,
        check::Protocol::kDsBb}) {
    check::CellSpec cell;
    cell.protocol = proto;
    cell.t = 2;
    cell.n = 5;
    cell.f = 1;
    cell.adversary = "crash";
    cell.seed = 77;
    check::RunOptions opts;
    opts.record_messages = true;
    const check::RunRecord rec = check::run_cell(cell, opts);
    for (const auto& m : rec.log.messages) {
      if (m.body && wire::encode(*m.body).has_value()) out.push_back(m.body);
    }
  }
  return out;
}

CodecResult run_codec_bench(std::uint64_t passes) {
  CodecResult res;
  const std::vector<PayloadPtr> corpus = codec_corpus();
  res.corpus = corpus.size();
  res.passes = passes;

  std::vector<std::uint8_t> buf;
  // Warm-up: the reused buffer grows to the largest payload once.
  for (const PayloadPtr& p : corpus) {
    (void)wire::encode_into(*p, buf);
    (void)wire::view(buf);
  }

  std::uint64_t h = mix64(0xc0dec);
  const std::uint64_t before = allocations();
  const Clock::time_point start = Clock::now();
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    for (const PayloadPtr& p : corpus) {
      if (!wire::encode_into(*p, buf)) continue;
      const auto v = wire::view(buf);
      if (!v) {
        ++res.view_failures;
        continue;
      }
      h = hash_combine(h, static_cast<std::uint64_t>(v->type));
      h = hash_combine(h, v->phase);
      h = hash_combine(h, v->value.value.raw);
    }
  }
  res.view_seconds = seconds_since(start);
  res.view_allocs = allocations() - before;
  res.fingerprint = h;

  const std::uint64_t before_decode = allocations();
  const Clock::time_point decode_start = Clock::now();
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    for (const PayloadPtr& p : corpus) {
      if (!wire::encode_into(*p, buf)) continue;
      (void)wire::decode(buf);
    }
  }
  res.decode_seconds = seconds_since(decode_start);
  res.decode_allocs = allocations() - before_decode;
  return res;
}

json::Value codec_json(const CodecResult& r) {
  json::Object o;
  o["corpus_payloads"] = r.corpus;
  o["passes"] = r.passes;
  o["view_steady_state_allocs"] = r.view_allocs;
  o["view_failures"] = r.view_failures;
  o["view_seconds"] = r.view_seconds;
  o["decode_allocs"] = r.decode_allocs;
  o["decode_seconds"] = r.decode_seconds;
  o["views_per_sec"] =
      r.view_seconds > 0
          ? static_cast<double>(r.corpus) * r.passes / r.view_seconds
          : 0.0;
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(r.fingerprint));
  o["view_fingerprint"] = std::string(buf);
  return o;
}

int run(int argc, char** argv) {
  std::string grid_path;
  std::string out_path = "BENCH_sim_substrate.json";
  bool use_pool = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--grid" && i + 1 < argc) {
      grid_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--no-pool") {
      use_pool = false;
    } else {
      std::fprintf(stderr,
                   "usage: %s --grid GRID.json [--out FILE] [--no-pool]\n",
                   argv[0]);
      return 2;
    }
  }
  if (grid_path.empty()) {
    std::fprintf(stderr, "error: --grid is required\n");
    return 2;
  }

  std::string error;
  const auto grid_json = check::json::read_file(grid_path, &error);
  if (!grid_json) {
    std::fprintf(stderr, "error: cannot read %s: %s\n", grid_path.c_str(),
                 error.c_str());
    return 1;
  }
  check::GridSpec grid;
  if (!check::GridSpec::from_json(*grid_json, &grid, &error)) {
    std::fprintf(stderr, "error: bad grid %s: %s\n", grid_path.c_str(),
                 error.c_str());
    return 1;
  }

  pool::set_enabled(use_pool);

  std::fprintf(stderr, "[1/3] microbench: ping broadcast, pool=%s\n",
               use_pool ? "on" : "off");
  const MicrobenchResult micro = run_microbench(/*n=*/33, /*rounds=*/2000);
  std::fprintf(stderr,
               "      n=%u  %.0f rounds/s  %.2e msgs/s  "
               "%llu steady-state allocs (%llu warm-up)\n",
               micro.n, micro.rounds / micro.seconds,
               micro.messages / micro.seconds,
               static_cast<unsigned long long>(micro.allocs),
               static_cast<unsigned long long>(micro.warmup_allocs));

  std::fprintf(stderr, "[2/3] campaign smoke grid: %s\n", grid_path.c_str());
  const CampaignResult camp = run_campaign_bench(grid);
  std::fprintf(stderr,
               "      %llu cells in %.2fs  (%.0f cells/s, %.0f rounds/s, "
               "%.0f allocs/cell)\n",
               static_cast<unsigned long long>(camp.cells), camp.seconds,
               camp.cells / camp.seconds, camp.rounds / camp.seconds,
               static_cast<double>(camp.allocs) / camp.cells);

  std::fprintf(stderr, "[3/3] zero-copy codec: encode_into + view\n");
  const CodecResult codec = run_codec_bench(/*passes=*/64);
  std::fprintf(stderr,
               "      %zu payloads x %llu passes  view: %llu allocs, "
               "decode: %llu allocs  (%.2e views/s)\n",
               codec.corpus, static_cast<unsigned long long>(codec.passes),
               static_cast<unsigned long long>(codec.view_allocs),
               static_cast<unsigned long long>(codec.decode_allocs),
               codec.view_seconds > 0
                   ? static_cast<double>(codec.corpus) * codec.passes /
                         codec.view_seconds
                   : 0.0);
  bool ok = true;
  if (codec.view_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: borrowed-view codec path allocated %llu times "
                 "(must be 0)\n",
                 static_cast<unsigned long long>(codec.view_allocs));
    ok = false;
  }
  if (codec.view_failures != 0) {
    std::fprintf(stderr,
                 "FAIL: view() rejected %llu canonical encoder outputs\n",
                 static_cast<unsigned long long>(codec.view_failures));
    ok = false;
  }

  json::Object root;
  root["schema"] = "mewc.bench.sim_substrate.v1";
  {
    json::Object config;
    config["grid"] = grid_path;
    config["pool_enabled"] = use_pool;
    root["config"] = std::move(config);
  }
  root["microbench"] = microbench_json(micro);
  root["campaign_smoke"] = campaign_json(camp);
  root["codec"] = codec_json(codec);
  {
    const pool::Stats stats = pool::thread_stats();
    json::Object p;
    p["blocks_reused"] = stats.reused;
    p["blocks_fresh"] = stats.fresh;
    root["pool"] = std::move(p);
  }

  if (!check::json::write_file(out_path, json::Value(std::move(root)))) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace mewc::bench

int main(int argc, char** argv) { return mewc::bench::run(argc, argv); }
