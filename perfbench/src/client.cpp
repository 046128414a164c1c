#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <ctime>
#include <deque>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "smr/kv_store.hpp"
#include "stop_rule.hpp"
#include "trace.hpp"
#include "wire/frame.hpp"

namespace perfbench {

namespace {

// Frame kinds of src/node/client.hpp.
constexpr std::uint8_t kFrameOp = 0x10;
constexpr std::uint8_t kFrameAck = 0x11;

struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::uint64_t pending = 0;  // issued here, not yet acked
  /// Closed loop: when each free place in this connection's window opened,
  /// i.e. the due time of the next op sent here.
  std::deque<std::int64_t> free_since;
};

int connect_to(const std::string& host, std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

void close_conn(Conn& c) {
  if (c.fd >= 0) close(c.fd);
  c.fd = -1;
}

/// Writes as much queued output as the socket takes; closes the connection
/// when it broke.
void flush(Conn& c) {
  while (c.fd >= 0 && c.out_off < c.out.size()) {
    const ssize_t n =
        write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    close_conn(c);
  }
  c.out.clear();
  c.out_off = 0;
}

}  // namespace

std::uint64_t op_word(std::uint64_t seed, std::uint64_t index,
                      std::uint32_t keys) {
  mewc::Rng rng(mewc::hash_combine(mewc::mix64(seed ^ 0xbe7c11e47ull), index));
  const auto key = static_cast<std::uint32_t>(rng.below(keys));
  const std::uint64_t arg = rng.below(1ull << 40);
  return mewc::smr::Command::put(key, arg).pack().raw;
}

ClientResult run_client(const ClientConfig& cfg) {
  ClientResult result;
  const auto n = static_cast<std::uint32_t>(cfg.ports.size());
  std::vector<Conn> conns(n);
  for (std::uint32_t j = 0; j < n; ++j) {
    conns[j].fd = connect_to(cfg.host, cfg.ports[j]);
    if (conns[j].fd < 0) {
      result.error =
          "cannot connect to client port " + std::to_string(cfg.ports[j]);
      for (Conn& c : conns) close_conn(c);
      return result;
    }
  }
  result.connected = true;
  std::vector<OpRecord>& ops = result.ops;
  ops.assign(cfg.ops, OpRecord{});

  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(cfg.deadline_s * 1e9);
  const double period_ns = cfg.open_loop ? 1e9 / cfg.rate : 0;
  const auto due_of = [&](std::uint64_t i) {
    return start + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
  };
  SlotClock clock(start, cfg.nominal_slot_rate);
  if (!cfg.open_loop) {
    for (Conn& c : conns) c.free_since.assign(cfg.depth, start);
  }

  std::uint64_t next = 0;  // id of the next op to issue
  std::uint64_t outstanding = 0;
  bool issuing = cfg.ops > 0;

  // Sends op `next` on connection `node` unless the stop rule refuses it.
  const auto issue = [&](std::uint32_t node, std::int64_t due) {
    Conn& c = conns[node];
    const std::int64_t now = now_ns();
    if (c.fd < 0 || !can_issue(clock.estimate(now), c.pending, n,
                               cfg.slot_budget, cfg.guard_slots)) {
      result.stopped_by_rule = c.fd >= 0;
      return false;
    }
    mewc::wire::Writer w;
    w.u8(kFrameOp);
    w.u64(next);
    w.u64(op_word(cfg.seed, next, cfg.keys));
    mewc::wire::append_frame(c.out, w.take());
    OpRecord& r = ops[next];
    r.node = node;
    r.due_ns = due;
    r.sent_ns = now;
    ++c.pending;
    ++outstanding;
    ++next;
    flush(c);
    return true;
  };

  std::vector<pollfd> fds(n);
  for (;;) {
    const std::int64_t now = now_ns();
    if (issuing && cfg.open_loop) {
      while (next < cfg.ops && due_of(next) <= now) {
        if (!issue(static_cast<std::uint32_t>(next % n), due_of(next))) {
          issuing = false;
          break;
        }
      }
    } else if (issuing) {
      for (std::uint32_t j = 0; j < n && issuing; ++j) {
        Conn& c = conns[j];
        while (next < cfg.ops && !c.free_since.empty()) {
          if (!issue(j, c.free_since.front())) {
            issuing = false;
            break;
          }
          c.free_since.pop_front();
        }
      }
    }
    if (next >= cfg.ops) issuing = false;

    const bool any_open =
        std::any_of(conns.begin(), conns.end(),
                    [](const Conn& c) { return c.fd >= 0; });
    if ((!issuing && outstanding == 0) || !any_open || now >= deadline) break;

    // Sleep until the next open-loop due time, an ack, or writability.
    std::int64_t wait_ns = 50'000'000;
    if (issuing && cfg.open_loop) {
      wait_ns = std::clamp<std::int64_t>(due_of(next) - now, 0, wait_ns);
    }
    for (std::uint32_t j = 0; j < n; ++j) {
      fds[j].fd = conns[j].fd;  // poll ignores negative descriptors
      fds[j].events = static_cast<short>(
          POLLIN | (conns[j].out.size() > conns[j].out_off ? POLLOUT : 0));
      fds[j].revents = 0;
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    ppoll(fds.data(), fds.size(), &ts, nullptr);

    for (std::uint32_t j = 0; j < n; ++j) {
      Conn& c = conns[j];
      if (c.fd < 0) continue;
      if ((fds[j].revents & POLLOUT) != 0) flush(c);
      if (c.fd < 0 || (fds[j].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      bool eof = false;
      std::uint8_t chunk[16384];
      for (;;) {
        const ssize_t got = read(c.fd, chunk, sizeof(chunk));
        if (got > 0) {
          c.in.insert(c.in.end(), chunk, chunk + got);
          continue;
        }
        eof = !(got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
        break;
      }
      const std::int64_t t = now_ns();
      std::size_t off = 0;
      while (const auto frame = mewc::wire::read_frame(c.in, off)) {
        off += frame->frame_size;
        mewc::wire::Reader rd(frame->body);
        const std::uint8_t kind = rd.u8();
        const std::uint64_t id = rd.u64();
        const std::uint64_t slot = rd.u64();
        const std::uint64_t kv = rd.u64();
        const std::uint8_t status = rd.u8();
        if (kind != kFrameAck || !rd.done() || id >= next ||
            ops[id].node != j) {
          ++result.bad_frames;
          continue;
        }
        OpRecord& r = ops[id];
        if (r.acks++ > 0) continue;  // duplicates are counted, not re-timed
        r.ack_ns = t;
        r.slot = slot;
        r.kv_digest = kv;
        r.status = status;
        --c.pending;
        --outstanding;
        clock.observe(slot, t);
        if (!cfg.open_loop) c.free_since.push_back(t);
      }
      c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(off));
      if (eof) close_conn(c);
    }
  }
  for (Conn& c : conns) close_conn(c);
  replay_kv(cfg, result);
  return result;
}

void replay_kv(const ClientConfig& cfg, ClientResult& result) {
  constexpr std::uint64_t kNone = ~0ull;
  std::vector<std::uint64_t> op_at(cfg.slot_budget, kNone);
  result.kv_mismatches = 0;
  for (std::uint64_t id = 0; id < result.ops.size(); ++id) {
    const OpRecord& r = result.ops[id];
    if (r.acks == 0 || r.status != 0) continue;
    if (r.slot >= op_at.size() || op_at[r.slot] != kNone) {
      ++result.kv_mismatches;
      continue;
    }
    op_at[r.slot] = id;
  }
  using mewc::smr::Command;
  mewc::smr::KvState kv;
  for (const std::uint64_t id : op_at) {
    if (id == kNone) {
      kv.apply(Command::unpack(Command{}.pack()));
      continue;
    }
    kv.apply(Command::unpack(mewc::Value(op_word(cfg.seed, id, cfg.keys))));
    result.kv_mismatches += kv.digest() != result.ops[id].kv_digest ? 1 : 0;
  }
  result.replayed_kv = kv.digest();
}

bool write_ops(const std::string& path, const std::vector<OpRecord>& ops) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& r = ops[i];
    std::fprintf(f, "%zu\t%u\t%lld\t%lld\t%lld\t%llu\t%llu\t%u\t%u\n", i,
                 r.node, static_cast<long long>(r.due_ns),
                 static_cast<long long>(r.sent_ns),
                 static_cast<long long>(r.ack_ns),
                 static_cast<unsigned long long>(r.slot),
                 static_cast<unsigned long long>(r.kv_digest), r.status,
                 r.acks);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
