// mewc_sim — command-line protocol runner.
//
// Runs one instance of any protocol in the driver registry against a chosen
// adversary and prints the outcome, the word/signature meter, and the
// per-kind cost breakdown. Useful for exploring the protocols without
// writing code, and for scripting custom sweeps.
//
// With --smr it instead drives the pipelined multi-instance SMR engine:
// many BB instances (ledger slots) run concurrently on a worker pool and
// commit in order, which is the paper's amortized-cost story end to end.
//
// Usage:
//   mewc_sim [--protocol NAME]      (names: mewc_sim --help)
//            [--t T] [--n N] [--f F]
//            [--adversary NAME]     (mewc_vopr --list shows all names)
//            [--value V] [--sender S] [--seed SEED] [--backend sim|shamir|real]
//            [--executor lockstep|event] [--by-kind] [--by-round]
//   mewc_sim --smr [--slots K] [--workers W] [--queue Q]
//            [--checkpoint-every C] [--t T] [--n N] [--seed SEED]
//            [--backend sim|shamir|real] [--executor lockstep|event]
//            [--wal-dir DIR] [--recover]
//
// --executor picks the IExecutor implementation (DESIGN.md §14): the
// round-lockstep loop or the event-driven path over a loopback transport.
// Both are behaviour-identical; the flag exists to exercise the event path
// against any workload this tool can express.
//
// In --smr mode the checkpoint cadence defaults to 8 (pass
// --checkpoint-every 0 to disable), and a run that should have sealed
// checkpoints but sealed none exits nonzero — the checkpoint lane is load-
// bearing for durability, so it must actually be exercised. --wal-dir
// persists the WAL and latest certified snapshot under DIR; --recover loads
// them first, recovers (truncating any torn WAL tail), completes a pending
// checkpoint, and continues the workload from the recovered slot.
//
// Examples:
//   mewc_sim --protocol bb --t 10 --f 3 --adversary crash
//   mewc_sim --protocol weak-ba --t 5 --adversary killer --f 2 --by-kind
//   mewc_sim --protocol strong-ba --t 20            # failure-free O(n)
//   mewc_sim --smr --n 9 --t 4 --slots 64 --workers 4 --checkpoint-every 8
//   mewc_sim --smr --slots 64 --wal-dir /tmp/mewc-wal
//   mewc_sim --smr --slots 64 --wal-dir /tmp/mewc-wal --recover
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "argparse.hpp"
#include <string>

#include "ba/adversaries/adversaries.hpp"
#include "ba/harness.hpp"
#include "check/adversary_registry.hpp"
#include "check/protocols.hpp"
#include "smr/engine.hpp"
#include "smr/recovery.hpp"

namespace {

using namespace mewc;
using tools::parse_u32;
using tools::parse_u64;

struct Options {
  std::string protocol = "bb";
  std::uint32_t t = 3;
  std::uint32_t n = 0;  // 0: derive 2t+1
  std::uint32_t f = 0;
  std::string adversary = "none";
  std::uint64_t value = 7;
  ProcessId sender = 0;
  std::uint64_t seed = 0x5e7;
  std::string backend = "sim";
  std::string executor = "lockstep";
  bool by_kind = false;
  bool by_round = false;
  // --smr mode
  bool smr = false;
  std::uint64_t slots = 32;
  std::uint32_t workers = 1;
  std::uint32_t queue = 16;
  /// UINT32_MAX = unset; --smr then defaults to a cadence of 8 so the
  /// checkpoint lane is exercised unless explicitly disabled with 0.
  std::uint32_t checkpoint_every = UINT32_MAX;
  std::string wal_dir;
  bool recover = false;
};

std::string driver_names_joined() {
  std::string out;
  for (const harness::ProtocolDriver* d : harness::drivers()) {
    if (!out.empty()) out += "|";
    out += d->name();
  }
  return out;
}

[[noreturn]] void usage_and_exit(const char* self) {
  std::fprintf(
      stderr,
      "usage: %s [--protocol %s]\n"
      "          [--t T] [--n N] [--f F]\n"
      "          [--adversary NAME]  (names: see below)\n"
      "          [--value V] [--sender S] [--seed SEED]\n"
      "          [--backend sim|shamir|real] [--executor lockstep|event]\n"
      "          [--by-kind] [--by-round]\n"
      "       %s --smr [--slots K] [--workers W] [--queue Q]\n"
      "          [--checkpoint-every C] [--t T] [--n N] [--seed SEED]\n"
      "          [--executor lockstep|event] [--wal-dir DIR] [--recover]\n",
      self, driver_names_joined().c_str(), self);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage_and_exit(argv[0]);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--protocol")) {
      o.protocol = need("--protocol");
    } else if (!std::strcmp(argv[i], "--t")) {
      o.t = parse_u32("--t", need("--t"));
    } else if (!std::strcmp(argv[i], "--n")) {
      o.n = parse_u32("--n", need("--n"));
    } else if (!std::strcmp(argv[i], "--f")) {
      o.f = parse_u32("--f", need("--f"));
    } else if (!std::strcmp(argv[i], "--adversary")) {
      o.adversary = need("--adversary");
    } else if (!std::strcmp(argv[i], "--value")) {
      o.value = parse_u64("--value", need("--value"));
    } else if (!std::strcmp(argv[i], "--sender")) {
      o.sender = parse_u32("--sender", need("--sender"));
    } else if (!std::strcmp(argv[i], "--seed")) {
      o.seed = parse_u64("--seed", need("--seed"));
    } else if (!std::strcmp(argv[i], "--backend")) {
      o.backend = need("--backend");
    } else if (!std::strcmp(argv[i], "--executor")) {
      o.executor = need("--executor");
    } else if (!std::strcmp(argv[i], "--by-kind")) {
      o.by_kind = true;
    } else if (!std::strcmp(argv[i], "--by-round")) {
      o.by_round = true;
    } else if (!std::strcmp(argv[i], "--smr")) {
      o.smr = true;
    } else if (!std::strcmp(argv[i], "--slots")) {
      o.slots = parse_u64("--slots", need("--slots"));
    } else if (!std::strcmp(argv[i], "--workers")) {
      o.workers = parse_u32("--workers", need("--workers"));
    } else if (!std::strcmp(argv[i], "--queue")) {
      o.queue = parse_u32("--queue", need("--queue"));
    } else if (!std::strcmp(argv[i], "--checkpoint-every")) {
      o.checkpoint_every = parse_u32("--checkpoint-every", need("--checkpoint-every"));
    } else if (!std::strcmp(argv[i], "--wal-dir")) {
      o.wal_dir = need("--wal-dir");
    } else if (!std::strcmp(argv[i], "--recover")) {
      o.recover = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage_and_exit(argv[0]);
    }
  }
  return o;
}

std::unique_ptr<Adversary> make_adversary(const Options& o,
                                          const harness::RunSpec& spec) {
  const auto protocol = check::parse_protocol(o.protocol);
  if (!protocol) {
    // Drivers outside the check enum (e.g. ic) run failure-free only.
    if (o.adversary == "none") return std::make_unique<adv::NullAdversary>();
    std::fprintf(stderr, "protocol %s supports only --adversary none\n",
                 o.protocol.c_str());
    std::exit(2);
  }
  check::AdversaryParams params;
  params.protocol = *protocol;
  params.n = spec.n;
  params.t = spec.t;
  params.f = o.f;
  params.instance = spec.instance;
  params.seed = o.seed;
  params.value = o.value;
  params.sender = o.sender;
  auto adversary = check::make_adversary(o.adversary, params);
  if (adversary == nullptr) {
    std::fprintf(stderr, "unknown adversary: %s (expected %s)\n",
                 o.adversary.c_str(),
                 check::adversary_names_joined().c_str());
    std::exit(2);
  }
  return adversary;
}

void print_meter(const Options& o, const Meter& meter, Round rounds) {
  std::printf("words (correct senders):    %llu\n",
              static_cast<unsigned long long>(meter.words_correct));
  std::printf("messages (correct senders): %llu\n",
              static_cast<unsigned long long>(meter.messages_correct));
  std::printf("logical signatures moved:   %llu\n",
              static_cast<unsigned long long>(meter.logical_sigs_correct));
  std::printf("byzantine words (excluded): %llu\n",
              static_cast<unsigned long long>(meter.words_byzantine));
  std::printf("rounds:                     %u\n", rounds);
  if (o.by_kind) {
    std::printf("\nwords by message kind:\n");
    for (const auto& [kind, words] : meter.words_by_kind()) {
      std::printf("  %-18s %llu\n", kind.c_str(),
                  static_cast<unsigned long long>(words));
    }
  }
  if (o.by_round) {
    std::printf("\nwords by round (non-zero only):\n");
    for (Round r = 0; r < meter.words_by_round.size(); ++r) {
      if (meter.words_by_round[r] == 0) continue;
      std::printf("  round %-4u %llu\n", r,
                  static_cast<unsigned long long>(meter.words_by_round[r]));
    }
  }
}

void print_decision(const harness::RunReport& res, bool vector_output) {
  if (vector_output) {
    std::printf("vector:    [");
    const auto vec = res.vector();
    for (std::size_t i = 0; i < vec.size(); ++i) {
      std::printf("%s%s", i == 0 ? "" : " ",
                  vec[i].is_bottom() ? "⊥"
                                     : std::to_string(vec[i].raw).c_str());
    }
    std::printf("]\n");
    return;
  }
  const WireValue d = res.decision();
  std::printf("decision:  %s\n",
              d.value.is_bottom() ? "⊥"
                                  : std::to_string(d.value.raw).c_str());
}

int run_one(const Options& o) {
  const harness::ProtocolDriver* driver = harness::find_driver(o.protocol);
  if (driver == nullptr) {
    std::fprintf(stderr, "unknown protocol: %s (expected %s)\n",
                 o.protocol.c_str(), driver_names_joined().c_str());
    return 2;
  }

  harness::RunSpec spec = o.n == 0 ? harness::RunSpec::for_t(o.t)
                                   : harness::RunSpec::with(o.n, o.t);
  spec.seed = o.seed;
  const auto backend = parse_backend(o.backend);
  if (!backend) {
    std::fprintf(stderr, "unknown backend '%s' (expected sim|shamir|real)\n",
                 o.backend.c_str());
    return 2;
  }
  spec.backend = *backend;
  const auto executor = parse_executor_kind(o.executor);
  if (!executor) {
    std::fprintf(stderr, "unknown executor '%s' (expected lockstep|event)\n",
                 o.executor.c_str());
    return 2;
  }
  spec.executor = *executor;

  std::printf("protocol=%s %s adversary=%s f=%u\n\n", driver->name(),
              spec.describe().c_str(), o.adversary.c_str(), o.f);

  auto adversary = make_adversary(o, spec);
  const harness::DriverTraits traits = driver->traits();

  harness::RunInputs inputs;
  inputs.values = driver->prepare(spec.n, Value(o.value));
  if (traits.single_sender) inputs.sender = o.sender;

  const harness::RunReport res = driver->run(spec, inputs, *adversary);

  std::uint32_t correct = 0;
  std::uint32_t decided = 0;
  for (const auto& outcome : res.outcomes) {
    if (!outcome) continue;
    ++correct;
    decided += outcome->decided ? 1 : 0;
  }

  std::printf("agreement: %s\n", res.agreement() ? "yes" : "NO");
  print_decision(res, traits.vector_output);
  std::printf("decided:   %u/%u correct\n", decided, correct);
  std::printf("fallback:  %s\n", res.any_fallback() ? "yes" : "no");
  if (const std::uint32_t leaders = res.nonsilent_leaders(); leaders != 0) {
    std::printf("non-silent vetting leaders: %u\n", leaders);
  }
  if (const std::uint32_t reqs = res.help_reqs(); reqs != 0) {
    std::printf("help requests: %u\n", reqs);
  }
  std::printf("\n");
  print_meter(o, res.meter, res.rounds);
  return res.agreement() ? 0 : 1;
}

int run_smr(const Options& o) {
  smr::EngineConfig config;
  config.t = o.t;
  config.n = o.n == 0 ? 2 * o.t + 1 : o.n;
  const auto backend = parse_backend(o.backend);
  if (!backend) {
    std::fprintf(stderr, "unknown backend '%s' (expected sim|shamir|real)\n",
                 o.backend.c_str());
    return 2;
  }
  config.backend = *backend;
  const auto executor = parse_executor_kind(o.executor);
  if (!executor) {
    std::fprintf(stderr, "unknown executor '%s' (expected lockstep|event)\n",
                 o.executor.c_str());
    return 2;
  }
  config.executor = *executor;
  config.seed = o.seed;
  config.workers = o.workers;
  config.queue_capacity = o.queue;
  config.checkpoint_every =
      o.checkpoint_every == UINT32_MAX ? 8 : o.checkpoint_every;

  if (o.recover && o.wal_dir.empty()) {
    std::fprintf(stderr, "--recover needs --wal-dir DIR\n");
    return 2;
  }

  std::printf("smr n=%u t=%u workers=%u queue=%u checkpoint_every=%u "
              "slots=%llu seed=%llu\n\n",
              config.n, config.t, config.workers, config.queue_capacity,
              config.checkpoint_every,
              static_cast<unsigned long long>(o.slots),
              static_cast<unsigned long long>(o.seed));

  // Durable mode: all committed slots and sealed checkpoints stream into
  // DIR/wal.bin, certified checkpoints cut DIR/snapshot.bin.
  smr::Store store;
  std::optional<smr::Durability> durability;
  std::optional<smr::Recovered> recovered;
  if (!o.wal_dir.empty()) {
    if (o.recover) {
      auto loaded = smr::load_store(o.wal_dir);
      if (!loaded) {
        std::fprintf(stderr, "cannot read store under %s\n", o.wal_dir.c_str());
        return 2;
      }
      store = std::move(*loaded);
      smr::Ledger::Config lc;
      lc.n = config.n;
      lc.t = config.t;
      lc.backend = config.backend;
      lc.seed = config.seed;
      lc.checkpoint_every = config.checkpoint_every;
      recovered = smr::recover(lc, store);
      std::printf("recovered %zu slots from %s (snapshot: %s @ %llu, "
                  "%llu WAL records replayed, %llu torn bytes truncated, "
                  "checkpoint pending: %s)\n\n",
                  recovered->state.slots.size(), o.wal_dir.c_str(),
                  recovered->stats.used_snapshot ? "yes" : "no",
                  static_cast<unsigned long long>(
                      recovered->stats.snapshot_slot),
                  static_cast<unsigned long long>(
                      recovered->stats.records_replayed),
                  static_cast<unsigned long long>(
                      recovered->stats.wal_bytes_truncated),
                  recovered->stats.checkpoint_pending ? "yes" : "no");
    }
    durability.emplace(&store);
    if (recovered) durability->reset_kv(recovered->kv);
    config.durability = &*durability;
  }

  const auto start = std::chrono::steady_clock::now();
  smr::Engine engine(config);
  std::uint64_t first_slot = 0;
  if (recovered) {
    first_slot = recovered->state.slots.size();
    engine.restore(std::move(recovered->state));
  }
  for (std::uint64_t s = first_slot; s < o.slots; ++s) {
    engine.submit(Value(o.value + s));
  }
  engine.finish();
  if (!o.wal_dir.empty() && !smr::save_store(o.wal_dir, store)) {
    std::fprintf(stderr, "cannot write store under %s\n", o.wal_dir.c_str());
    return 2;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const smr::EngineStats stats = engine.stats();
  const smr::Ledger& ledger = engine.ledger();
  std::printf("committed: %llu (%llu skipped, %llu fallbacks)\n",
              static_cast<unsigned long long>(stats.committed),
              static_cast<unsigned long long>(stats.skipped),
              static_cast<unsigned long long>(stats.fallbacks));
  std::printf("healthy:   %s\n", ledger.healthy() ? "yes" : "NO");
  std::printf("ledger digest: %016llx\n",
              static_cast<unsigned long long>(ledger.ledger_digest()));
  std::printf("checkpoints:   %zu\n", ledger.checkpoints().size());
  std::printf("total words:   %llu (%.1f per slot incl. checkpoints)\n",
              static_cast<unsigned long long>(ledger.total_words()),
              o.slots == 0 ? 0.0
                           : static_cast<double>(ledger.total_words()) /
                                 static_cast<double>(o.slots));
  std::printf("setup cache:   %llu hits / %llu misses\n",
              static_cast<unsigned long long>(stats.setup_cache_hits),
              static_cast<unsigned long long>(stats.setup_cache_misses));
  std::printf("crypto:        %llu pairings / %llu memo hits in slots, "
              "%llu / %llu in checkpoints\n",
              static_cast<unsigned long long>(stats.crypto_pairings),
              static_cast<unsigned long long>(stats.crypto_memo_hits),
              static_cast<unsigned long long>(stats.checkpoint_pairings),
              static_cast<unsigned long long>(stats.checkpoint_memo_hits));
  std::printf("pipeline:      max reorder %llu, backpressure waits %llu\n",
              static_cast<unsigned long long>(stats.max_reorder_depth),
              static_cast<unsigned long long>(stats.backpressure_waits));
  std::printf("throughput:    %.1f instances/sec (%.3fs wall)\n",
              secs > 0 ? static_cast<double>(o.slots) / secs : 0.0, secs);
  if (!o.wal_dir.empty()) {
    std::printf("durable store: %zu WAL bytes, %zu snapshot bytes under %s\n",
                store.wal.size(), store.snapshot.size(), o.wal_dir.c_str());
  }
  // The checkpoint lane must actually run when the cadence says it should;
  // a silent zero here means the durability story went untested.
  if (config.checkpoint_every != 0 && o.slots >= config.checkpoint_every &&
      ledger.checkpoints().empty()) {
    std::printf("FAIL: cadence %u with %llu slots sealed no checkpoints\n",
                config.checkpoint_every,
                static_cast<unsigned long long>(o.slots));
    return 1;
  }
  return ledger.healthy() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  return o.smr ? run_smr(o) : run_one(o);
}
