// Node 0 wires the public classes tools/mewc_node.cpp wires
// (net::TcpTransport, net::TimeoutRoundSync, node::Replica,
// node::ClientServer), runs the same slot loop and prints the same exit
// lines, so run.py audits it like any other node. What it adds is timing:
// decorators on net::Transport and net::IRoundSync, spans around
// Replica::run_slot and ClientServer::pop, and a record of every sent
// payload for the wire codec microbenchmark.
#include "node_host.hpp"

#include <cstdio>
#include <thread>
#include <utility>

#include "check/json.hpp"
#include "common/hash.hpp"
#include "micro.hpp"
#include "net/tcp.hpp"
#include "node/client.hpp"
#include "node/replica.hpp"
#include "smr/kv_store.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace mewc;
namespace json = check::json;

constexpr std::size_t kMaxPayloadSamples = 4096;

/// Times every send() and receive() of the wrapped transport and keeps the
/// first payloads sent. Called from the slot loop thread only.
class TimedTransport final : public net::Transport {
 public:
  explicit TimedTransport(net::Transport& inner) : inner_(inner) {}

  void send(net::Envelope env) override {
    if (payloads.size() < kMaxPayloadSamples && env.body != nullptr) {
      payloads.push_back(env.body);
    }
    const std::int64_t t0 = now_ns();
    inner_.send(std::move(env));
    send_ns += now_ns() - t0;
    ++sends;
  }

  bool receive(std::uint64_t instance, net::Envelope& out,
               int timeout_ms) override {
    const std::int64_t t0 = now_ns();
    const bool got = inner_.receive(instance, out, timeout_ms);
    receive_ns += now_ns() - t0;
    ++receives;
    return got;
  }

  [[nodiscard]] bool idle() const override { return inner_.idle(); }

  void mark(std::uint64_t instance, Round round) override {
    inner_.mark(instance, round);
  }

  std::int64_t send_ns = 0;
  std::uint64_t sends = 0;
  std::int64_t receive_ns = 0;
  std::uint64_t receives = 0;
  std::vector<PayloadPtr> payloads;

 private:
  net::Transport& inner_;
};

/// Records one "round" span per round: from round_opened() until closed()
/// first returns true, i.e. how long the round waited for its peers.
class TimedSync final : public net::IRoundSync {
 public:
  TimedSync(net::IRoundSync& inner, SpanLog& log) : inner_(inner), log_(log) {}

  void round_opened(std::uint64_t instance, Round round) override {
    close_span();
    inner_.round_opened(instance, round);
    span_ = log_.begin("round", instance);
    open_ = true;
  }

  [[nodiscard]] bool closed(std::uint64_t instance, Round round) override {
    const bool done = inner_.closed(instance, round);
    if (done) close_span();
    return done;
  }

 private:
  void close_span() {
    if (!open_) return;
    log_.end(span_);
    open_ = false;
  }

  net::IRoundSync& inner_;
  SpanLog& log_;
  std::int64_t span_ = -1;
  bool open_ = false;
};

/// tools/mewc_node.cpp's handshake token for (seed, n, t, backend): a node
/// hosted here must compute the same one or its peers refuse it.
std::uint64_t cluster_token(std::uint64_t seed, std::uint32_t n,
                            std::uint32_t t, ThresholdBackend backend) {
  std::uint64_t h = hash_combine(0x6d65776e6f646575ull, seed);  // "mewnode"
  h = hash_combine(h, n);
  h = hash_combine(h, t);
  h = hash_combine(h, static_cast<std::uint64_t>(backend));
  return h;
}

}  // namespace

int run_node_host(const NodeHostConfig& cfg) {
  constexpr ProcessId kId = 0;
  constexpr ThresholdBackend kBackend = ThresholdBackend::kSim;

  net::TcpTransportConfig tc;
  tc.self = kId;
  tc.n = cfg.n;
  tc.listen_port = static_cast<std::uint16_t>(cfg.base_port + kId);
  for (ProcessId j = 0; j < cfg.n; ++j) {
    tc.peers.push_back(
        {j, "127.0.0.1", static_cast<std::uint16_t>(cfg.base_port + j)});
  }
  tc.cluster_token = cluster_token(cfg.cluster_seed, cfg.n, cfg.t, kBackend);
  net::TcpTransport transport(tc);
  std::string error;
  if (!transport.start(&error)) {
    std::fprintf(stderr, "node 0: transport: %s\n", error.c_str());
    return 1;
  }
  node::ClientServer clients(
      static_cast<std::uint16_t>(cfg.base_port + cfg.n + kId));
  if (!clients.start(&error)) {
    std::fprintf(stderr, "node 0: client lane: %s\n", error.c_str());
    return 1;
  }

  SpanLog log;
  net::TimeoutRoundSync sync(transport.watermarks(), kId,
                             std::chrono::milliseconds(cfg.round_timeout_ms));
  TimedTransport timed_transport(transport);
  TimedSync timed_sync(sync, log);
  node::ReplicaConfig rc;
  rc.id = kId;
  rc.n = cfg.n;
  rc.t = cfg.t;
  rc.backend = kBackend;
  rc.seed = cfg.cluster_seed;
  rc.checkpoint_every = cfg.checkpoint_every;
  rc.transport = &timed_transport;
  rc.sync = &timed_sync;
  node::Replica replica(rc);

  std::printf("node 0: listening node=%u client=%u (traced host)\n",
              transport.listen_port(), clients.listen_port());
  std::fflush(stdout);
  if (!transport.wait_connected(
          std::chrono::milliseconds(cfg.connect_timeout_ms))) {
    std::fprintf(stderr, "node 0: cluster never connected\n");
    return 1;
  }
  std::printf("node 0: cluster up, running %llu slots\n",
              static_cast<unsigned long long>(cfg.slots));
  std::fflush(stdout);

  // The slot loop of tools/mewc_node.cpp, with spans.
  std::vector<std::pair<std::uint64_t, std::int64_t>> pops;  // (op id, ns)
  std::uint64_t acked_ok = 0;
  std::uint64_t acked_retry = 0;
  std::int64_t loop_ns = 0;
  std::thread slot_loop([&] {
    const std::int64_t t0 = now_ns();
    const std::uint64_t first_slot = replica.next_slot();
    while (replica.next_slot() < first_slot + cfg.slots) {
      node::ClientOp op;
      bool have_op = false;
      if (replica.proposes_next()) {
        const Scoped pop_span(&log, "pop");
        have_op = clients.pop(op);
      }
      if (have_op) pops.emplace_back(op.op_id, now_ns());
      const Value proposal = have_op ? Value(op.word) : smr::Command{}.pack();
      const smr::SlotRecord* rec = nullptr;
      {
        const Scoped slot_span(&log, "slot", have_op ? op.op_id + 1 : 0);
        rec = &replica.run_slot(proposal);
      }
      if (have_op) {
        const bool landed = !rec->skipped && rec->value.raw == op.word;
        clients.ack(op, rec->slot, replica.kv().digest(), landed ? 0 : 1);
        ++(landed ? acked_ok : acked_retry);
      }
    }
    loop_ns = now_ns() - t0;
  });
  const ClientResult client = run_client(cfg.client);
  slot_loop.join();

  const node::ReplicaStats& rs = replica.stats();
  const net::TcpTransportStats ts = transport.stats();
  const node::ClientServerStats cs = clients.stats();
  std::printf("node 0: slots=%llu committed=%llu skipped=%llu "
              "checkpoints=%llu fallbacks=%llu in %lld ms\n",
              static_cast<unsigned long long>(rs.slots_run),
              static_cast<unsigned long long>(rs.committed),
              static_cast<unsigned long long>(rs.skipped),
              static_cast<unsigned long long>(rs.checkpoint_runs),
              static_cast<unsigned long long>(rs.fallbacks),
              static_cast<long long>(loop_ns / 1'000'000));
  std::printf("node 0: client ops=%llu acked_ok=%llu acked_retry=%llu\n",
              static_cast<unsigned long long>(cs.ops_received),
              static_cast<unsigned long long>(acked_ok),
              static_cast<unsigned long long>(acked_retry));
  std::printf("node 0: round timeouts=%llu late_drops=%llu "
              "foreign_drops=%llu\n",
              static_cast<unsigned long long>(sync.timeouts()),
              static_cast<unsigned long long>(rs.late_drops),
              static_cast<unsigned long long>(rs.foreign_drops));
  std::printf("node 0: transport sent=%llu received=%llu reconnects=%llu "
              "decode_drops=%llu\n",
              static_cast<unsigned long long>(ts.envelopes_sent),
              static_cast<unsigned long long>(ts.envelopes_received),
              static_cast<unsigned long long>(ts.reconnects),
              static_cast<unsigned long long>(ts.decode_drops));
  std::printf("node 0: ledger digest: 0x%016llx\n",
              static_cast<unsigned long long>(replica.ledger().ledger_digest()));
  std::printf("node 0: kv digest: 0x%016llx\n",
              static_cast<unsigned long long>(replica.kv().digest()));
  std::fflush(stdout);
  clients.shutdown();
  transport.shutdown();

  if (!client.connected) {
    std::fprintf(stderr, "client: %s\n", client.error.c_str());
    return 1;
  }
  const CodecTiming codec = time_codec(timed_transport.payloads, 20);
  const PairingTiming pairing = time_pairing(cfg.client.seed, 2000);

  std::FILE* pf = std::fopen((cfg.out_dir + "/pops.tsv").c_str(), "w");
  if (pf == nullptr) return 1;
  for (const auto& [id, t] : pops) {
    std::fprintf(pf, "%llu\t%lld\n", static_cast<unsigned long long>(id),
                 static_cast<long long>(t));
  }
  std::fclose(pf);

  json::Object o;
  o["bad_frames"] = client.bad_frames;
  o["kv_mismatches"] = client.kv_mismatches;
  char replayed_kv[19];
  std::snprintf(replayed_kv, sizeof(replayed_kv), "0x%016llx",
                static_cast<unsigned long long>(client.replayed_kv));
  o["replayed_kv"] = replayed_kv;
  o["stopped_by_rule"] = client.stopped_by_rule;
  o["loop_ns"] = loop_ns;
  o["send_ns"] = timed_transport.send_ns;
  o["sends"] = timed_transport.sends;
  o["receive_ns"] = timed_transport.receive_ns;
  o["receives"] = timed_transport.receives;
  o["encode_ns"] = codec.encode_ns;
  o["decode_ns"] = codec.decode_ns;
  o["codec_messages"] = codec.messages;
  o["codec_ok"] = codec.ok;
  o["pairing_us"] = pairing.pairing_us;
  o["pairing_ok"] = pairing.bilinear;
  const bool written =
      write_ops(cfg.out_dir + "/ops.tsv", client.ops) &&
      log.write(cfg.out_dir + "/spans.tsv") &&
      json::write_file(cfg.out_dir + "/node0.json", json::Value(std::move(o)));
  return written ? 0 : 1;
}

}  // namespace perfbench
