#!/usr/bin/env python3
"""The mewc end-to-end benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the mewc library, mewc_node and the benchmark driver from the
sources beside this directory (into $CARGO_TARGET_DIR, default
.bench_build), runs the self-tests, runs one workload of WORKLOADS,
checks its outputs, and prints its metrics; the last line of standard
output is one JSON object. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. --workload all runs every
workload in turn. Exit status 0 only when every correctness check passed.
See README.md for the workloads, the metrics and how the numbers are kept
steady.
"""

import argparse
import io
import json
import math
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing beside the sources

import stats  # noqa: E402

CHILDREN = []  # every process this run started, killed on any exit path

# Every workload parameter is a fixed number here; nothing is derived at run
# time from the host or from measured capacity. Run lengths are op and slot
# budgets: --seconds times the fixed rates below.

BUILD_TYPE, BUILD_JOBS = "RelWithDebInfo", 4
TAIL_Q, TAIL_BEYOND = 0.95, 10  # p95, reported only with 10 samples beyond
KEYS = 1024           # generated puts draw their key uniformly from [0, KEYS)
CHECKPOINT_EVERY = 8  # node-* and engine-real

# node-*: a 4-node cluster on loopback and one bench client.
NODE_N, NODE_T = 4, 1
NOMINAL_SLOT_RATE = 24     # slots/s of that cluster: sizes the slot budgets
OPEN_SLOT_HEADROOM = 1.1   # open loop: slots for 110% of the op schedule
EXTRA_SLOTS = 48           # slots past the schedule for the last proposer turns
GUARD_SLOTS = 8            # stop rule: slots kept free at the budget's end
ROUND_TIMEOUT_MS = 1000
CONNECT_TIMEOUT_MS = 15000
SETUP_LAUNCHES = 5         # node setup_s: median over this many launches

# engine-real: in-process engine on the pairing backend, crash faults.
ENGINE_N, ENGINE_T, ENGINE_F = 9, 4, 2
ENGINE_WORKERS, ENGINE_QUEUE = 3, 16
ENGINE_OPS_PER_S = 320     # op budget per --seconds (about its capacity)
ENGINE_SETUP_REPEATS = 9   # setup_s: median over this many engines
ENGINE_WINDOWS = 10        # latency and rate: median over windows

# dst-full: one pass over the full campaign grid, whatever --seconds says.
DST_GRID = "tools/grids/full.json"
DST_JOBS = 4
DST_SLICES = 8             # campaigns over slices of the seed axis
DST_SETUP_REPEATS = 51     # setup_s: fastest of this many grid loads

# What the workloads set differently. node-open is an open loop at a fixed
# rate; node-closed keeps `depth` ops outstanding per connection.
WORKLOADS = {
    "node-open": {"kind": "node", "rate_ops_s": 16, "warmup_acks": 16},
    "node-closed": {"kind": "node", "depth": 32, "warmup_acks": 128},
    "engine-real": {"kind": "engine"},
    "dst-full": {"kind": "dst"},
}


class BenchError(Exception):
    """A failed correctness check or a broken run."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and self-tests


def run_logged(cmd, out):
    out.write("$ " + " ".join(cmd) + "\n")
    out.flush()
    if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
        raise BenchError(f"command failed: {' '.join(cmd)} (see {out.name})")


def build():
    for need in (ROOT / "src" / "CMakeLists.txt", ROOT / "tools" / "mewc_node.cpp",
                 ROOT / "BENCHMARK.json"):
        if not need.is_file():
            raise BenchError(f"{need} is missing: run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_root = target if target.is_absolute() else ROOT / target
    bdir = build_root / "perfbench"
    bdir.mkdir(parents=True, exist_ok=True)
    with open(build_root / "perfbench-build.log", "w") as out:
        if not (bdir / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_logged(cmd, out)
        run_logged(["cmake", "--build", str(bdir), "-j", str(BUILD_JOBS)], out)
    bins = {name: str(bdir / name)
            for name in ("mewc_node", "perfbench_driver", "perfbench_selftest")}
    return bins, build_root


def self_test(bins):
    suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
    stream = io.StringIO()
    if not unittest.TextTestRunner(stream=stream).run(suite).wasSuccessful():
        raise BenchError("self-test test_stats.py failed:\n" + stream.getvalue())
    p = subprocess.run([bins["perfbench_selftest"]], capture_output=True,
                       text=True, timeout=60)
    if p.returncode != 0:
        raise BenchError("self-test perfbench_selftest failed:\n" + p.stderr)


# ---------------------------------------------------------------------------
# Processes


def spawn(cmd, logfile, cwd):
    with open(logfile, "w") as out:
        p = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=cwd,
                             start_new_session=True)
    CHILDREN.append(p)
    return p


def kill_all():
    for p in CHILDREN:
        if p.returncode is None and p.poll() is None:
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            p.wait()
    CHILDREN.clear()


def reap(p, deadline):
    """Waits for `p` until `deadline` (monotonic s) and returns its
    (exit code, rusage); kills it and returns exit code None on timeout."""
    while True:
        pid, status, usage = os.wait4(p.pid, os.WNOHANG)
        if pid == p.pid:
            p.returncode = os.waitstatus_to_exitcode(status)
            return p.returncode, usage
        if time.monotonic() > deadline:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
            return None, None
        time.sleep(0.02)


def wait_for_text(path, needle, proc, deadline):
    while True:
        try:
            if needle in path.read_text():
                return
        except FileNotFoundError:
            pass
        if proc.poll() is not None:
            raise BenchError(f"{path.name}: process exited before '{needle}':\n"
                             + path.read_text()[-2000:])
        if time.monotonic() > deadline:
            raise BenchError(f"{path.name}: no '{needle}' in time")
        time.sleep(0.0005)


def free_port_block(count):
    """A base port whose next `count` ports are all free on this host."""
    rng = random.SystemRandom()
    for _ in range(100):
        base = rng.randrange(20000, 60000 - count)
        socks = []
        try:
            for port in range(base, base + count):
                s = socket.socket()
                s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                socks.append(s)
                s.bind(("0.0.0.0", port))
            return base
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    raise BenchError("no free port block")


# ---------------------------------------------------------------------------
# node-open / node-closed

NODE_LINES = {
    "slots": re.compile(r"slots=(\d+) committed=(\d+) skipped=(\d+) "
                        r"checkpoints=(\d+) fallbacks=(\d+)"),
    "client": re.compile(r"client ops=(\d+) acked_ok=(\d+) acked_retry=(\d+)"),
    "rounds": re.compile(r"round timeouts=(\d+) late_drops=(\d+)"),
    "transport": re.compile(r"transport sent=(\d+) received=(\d+)"),
    "ledger": re.compile(r"ledger digest: (0x[0-9a-f]+)"),
    "kv": re.compile(r"kv digest: (0x[0-9a-f]+)"),
}


def parse_node_log(text):
    out = {}
    for key, rx in NODE_LINES.items():
        found = rx.findall(text)
        if len(found) != 1:
            raise BenchError(f"node log has {len(found)} '{key}' lines")
        out[key] = found[0]
    return out


def read_ops(path):
    ops = []
    with open(path) as f:
        for line in f:
            i, node, due, sent, ack, slot, kv, status, acks = line.split("\t")
            ops.append({"id": int(i), "node": int(node), "due_ns": int(due),
                        "sent_ns": int(sent), "ack_ns": int(ack),
                        "slot": int(slot), "kv": int(kv),
                        "status": int(status), "acks": int(acks)})
    return ops


def read_spans(path):
    spans = {}
    with open(path) as f:
        for line in f:
            sid, parent, name, start, end, op = line.split("\t")
            spans[int(sid)] = {"parent": int(parent), "name": name,
                               "start": int(start), "end": int(end),
                               "op": int(op)}
    return spans


def node_plan(wl, seconds):
    """Op and slot budgets. Open loop: the op schedule spans `seconds` and
    the nodes get that many seconds of slots at the nominal rate plus
    headroom. Closed loop: the budget is warm-up plus `seconds` of nominal
    capacity, one op per slot."""
    if "rate_ops_s" in wl:
        ops = round(wl["rate_ops_s"] * seconds)
        slots = math.ceil(NOMINAL_SLOT_RATE * seconds * OPEN_SLOT_HEADROOM)
    else:
        ops = round(NOMINAL_SLOT_RATE * seconds) + wl["warmup_acks"]
        slots = ops
    return ops, slots + EXTRA_SLOTS


def launch_cluster(bins, seed, slots, workdir, tag, node0=None):
    """Starts the n nodes one after another, each once the previous one is
    listening, and waits until every node reports the cluster up. Returns
    (procs, logs, base_port). `node0`, when given, builds node 0's command
    from the base port (the traced in-process host)."""
    n = NODE_N
    base = free_port_block(2 * n)
    deadline = time.monotonic() + 30
    procs, logs = [], []
    for j in range(n):
        if j == 0 and node0 is not None:
            cmd = node0(base)
        else:
            cmd = [bins["mewc_node"], "--id", str(j), "--n", str(n),
                   "--t", str(NODE_T), "--base-port", str(base),
                   "--slots", str(slots),
                   "--checkpoint-every", str(CHECKPOINT_EVERY),
                   "--seed", str(seed),
                   "--round-timeout-ms", str(ROUND_TIMEOUT_MS),
                   "--connect-timeout-ms", str(CONNECT_TIMEOUT_MS)]
        logs.append(workdir / f"{tag}-node{j}.log")
        procs.append(spawn(cmd, logs[-1], workdir))
        wait_for_text(logs[-1], "listening", procs[-1], deadline)
    for p, path in zip(procs, logs):
        wait_for_text(path, "cluster up", p, deadline)
    return procs, logs, base


def probe_clients(base, n):
    for j in range(n):
        with socket.create_connection(("127.0.0.1", base + n + j), timeout=5):
            pass


def client_args(wl, base, ops, slots, seed, workdir, deadline_s):
    n = NODE_N
    if "rate_ops_s" in wl:
        loop = ["--mode", "open", "--rate", str(wl["rate_ops_s"])]
    else:
        loop = ["--mode", "closed", "--depth", str(wl["depth"])]
    return ["--ports", ",".join(str(base + n + j) for j in range(n)), *loop,
            "--ops", str(ops), "--slots", str(slots),
            "--slot-rate", str(NOMINAL_SLOT_RATE), "--guard", str(GUARD_SLOTS),
            "--keys", str(KEYS), "--seed", str(seed),
            "--deadline-s", str(deadline_s), "--out", str(workdir)]


def run_node(wl, bins, seed, seconds, trace, workdir):
    n = NODE_N
    ops_budget, slots = node_plan(wl, seconds)
    run_s = slots / NOMINAL_SLOT_RATE
    deadline_s = 2 * run_s + 20

    # Set-up time: launch to every node "cluster up" with a client connected,
    # over several launches; all but the last cluster are thrown away.
    setup_ns = []
    for k in range(SETUP_LAUNCHES - 1):
        t0 = time.monotonic_ns()
        procs, _, base = launch_cluster(bins, seed, slots, workdir, f"setup{k}")
        probe_clients(base, n)
        setup_ns.append(time.monotonic_ns() - t0)
        kill_all()

    node0 = None
    if trace:
        def node0(base):
            return [bins["perfbench_driver"], "node0",
                    *client_args(wl, base, ops_budget, slots, seed, workdir,
                                 deadline_s),
                    "--base-port", str(base), "--n", str(n), "--t", str(NODE_T),
                    "--checkpoint-every", str(CHECKPOINT_EVERY),
                    "--cluster-seed", str(seed),
                    "--round-timeout-ms", str(ROUND_TIMEOUT_MS),
                    "--connect-timeout-ms", str(CONNECT_TIMEOUT_MS)]
    t0 = time.monotonic_ns()
    procs, logs, base = launch_cluster(bins, seed, slots, workdir, "run", node0)
    finish_by = time.monotonic() + deadline_s
    if not trace:
        probe_clients(base, n)
        setup_ns.append(time.monotonic_ns() - t0)
        proc = spawn([bins["perfbench_driver"], "client",
                      *client_args(wl, base, ops_budget, slots, seed, workdir,
                                   deadline_s)],
                     workdir / "client.log", workdir)
        code, _ = reap(proc, finish_by)
        if code != 0:
            raise BenchError("bench client failed:\n"
                             + (workdir / "client.log").read_text()[-2000:])
        line = re.search(r"bad_frames=(\d+) .*kv_mismatches=(\d+) "
                         r"replayed_kv=(0x[0-9a-f]+)",
                         (workdir / "client.log").read_text())
        if not line:
            raise BenchError("bench client printed no summary line")
        client = {"bad_frames": int(line.group(1)),
                  "kv_mismatches": int(line.group(2)),
                  "replayed_kv": line.group(3)}
    usages = []
    for j, p in enumerate(procs):
        code, usage = reap(p, finish_by)
        if code != 0:
            raise BenchError(f"node {j} exited {code}:\n" + logs[j].read_text()[-2000:])
        usages.append(usage)
    if trace:
        node0_stats = json.loads((workdir / "node0.json").read_text())
        client = node0_stats  # the hosted node 0 ran the client in-process
    nodes = [parse_node_log(path.read_text()) for path in logs]

    # Correctness: every issued op acked ok exactly once; every node ran and
    # committed every slot and ends at one kv and one ledger digest; each
    # ack's kv digest, and the final one, match a replay of the acked ops in
    # slot order (src/client.cpp, replay_kv).
    ops = read_ops(workdir / "ops.tsv")
    issued = [o for o in ops if o["sent_ns"] > 0]
    ok = [o for o in issued if o["acks"] == 1 and o["status"] == 0]
    problems = []
    if client["bad_frames"] != 0:
        problems.append(f"{client['bad_frames']} malformed or unknown acks")
    if not issued:
        problems.append("no op was issued")
    if len(ok) != len(issued):
        problems.append(f"{len(issued) - len(ok)} of {len(issued)} issued ops "
                        "not acked ok exactly once")
    for key in ("kv", "ledger"):
        if len({node[key] for node in nodes}) != 1:
            problems.append(f"{key} digests diverged across nodes")
    for node in nodes:
        ran, committed = int(node["slots"][0]), int(node["slots"][1])
        if ran != slots or committed != slots:
            problems.append(f"a node ran {ran} and committed {committed} "
                            f"of {slots} slots")
    if client["kv_mismatches"] != 0:
        problems.append(f"{client['kv_mismatches']} acks whose kv digest "
                        "differs from the replay of the acked ops")
    if nodes[0]["kv"] != client["replayed_kv"]:
        problems.append(f"final kv digest {nodes[0]['kv']} differs from the "
                        f"replay's {client['replayed_kv']}")

    # Failed: ops not acked ok exactly once or whose ack disagrees with the
    # replay; at least one when any cluster-wide check failed.
    attempted = max(len(issued), 1)
    failed = len(issued) - len(ok) + client["kv_mismatches"]
    failed = min(max(failed, 1 if problems else 0), attempted)

    latency, lag, ack_times = stats.due_latencies(ops, wl["warmup_acks"])
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "lines": [f"ops budget={ops_budget} issued={len(issued)} "
                  f"acked_ok={len(ok)} slots={slots} "
                  f"latency_samples={len(latency)}"],
    }
    p50 = stats.median(latency)
    throughput = stats.rate_per_s(ack_times)
    if not trace:
        rss_mb = max(u.ru_maxrss for u in usages) / 1024
        result["e2e"] = {
            "setup_s": stats.median(setup_ns) / 1e9,
            "latency_p50_ms": p50,
            "latency_p95_ms": stats.tail_quantile(latency, TAIL_Q, TAIL_BEYOND),
            "throughput_ops_s": throughput,
            "peak_rss_mb": rss_mb,
        }
        return result

    spans = read_spans(workdir / "spans.tsv")
    self_ns = stats.self_times(spans)
    slot_ids = [s for s, v in spans.items() if v["name"] == "slot"]
    round_ms = [(v["end"] - v["start"]) / 1e6 for v in spans.values()
                if v["name"] == "round"]
    due = {o["id"]: o["due_ns"] for o in ops}
    pops = []
    with open(workdir / "pops.tsv") as f:
        for line in f:
            op_id, t = line.split("\t")
            pops.append((int(t) - due[int(op_id)]) / 1e6)
    peers = usages[1:]  # mewc_node processes; node 0 is this bench's host
    sent = sum(int(node["transport"][0]) for node in nodes)
    received = sum(int(node["transport"][1]) for node in nodes)
    result["layers"] = {
        "node.slot_ms": stats.mean([(spans[s]["end"] - spans[s]["start"]) / 1e6
                                    for s in slot_ids]),
        "node.slot_self_ms": stats.mean([self_ns[s] / 1e6 for s in slot_ids]),
        "node.lane_wait_ms": stats.mean(pops),
        "node.ops_per_slot": len(ok) / slots,
        "node.cpu_ms_per_slot": stats.mean(
            [(u.ru_utime + u.ru_stime) * 1e3 / slots for u in peers]),
        "node.vcsw_per_slot": stats.mean([u.ru_nvcsw / slots for u in peers]),
        "net.round_close_ms": stats.mean(round_ms),
        "net.round_close_p95_ms": stats.quantile(round_ms, 0.95),
        "net.receive_frac": node0_stats["receive_ns"] / node0_stats["loop_ns"],
        "net.send_us": node0_stats["send_ns"] / max(node0_stats["sends"], 1) / 1e3,
        "net.rounds_per_slot": len(round_ms) / len(slot_ids),
        "net.envelopes_per_slot": sent / (slots * n),
        "net.delivered_frac": received / sent,
        "net.round_timeouts": sum(int(node["rounds"][0]) for node in nodes),
        "net.late_drops": sum(int(node["rounds"][1]) for node in nodes),
        "wire.encode_ns": node0_stats["encode_ns"],
        "wire.decode_ns": node0_stats["decode_ns"],
        "crypto.pairing_us": node0_stats["pairing_us"],
        "client.sched_lag_p95_ms": stats.quantile(lag, 0.95),
        "trace.latency_p50_ms": p50,
        "trace.throughput_ops_s": throughput,
    }
    if not (node0_stats["codec_ok"] and node0_stats["pairing_ok"]):
        problems.append("layer microbenchmark self-check failed")
    return result


# ---------------------------------------------------------------------------
# engine-real


def run_engine(wl, bins, seed, seconds, trace, workdir):
    ops = round(ENGINE_OPS_PER_S * seconds)
    cmd = [bins["perfbench_driver"], "engine", "--n", str(ENGINE_N),
           "--t", str(ENGINE_T), "--f", str(ENGINE_F),
           "--workers", str(ENGINE_WORKERS), "--queue", str(ENGINE_QUEUE),
           "--checkpoint-every", str(CHECKPOINT_EVERY),
           "--keys", str(KEYS), "--setup-repeats", str(ENGINE_SETUP_REPEATS),
           "--ops", str(ops), "--seed", str(seed), "--trace", str(int(trace)),
           "--out", str(workdir)]
    p = spawn(cmd, workdir / "engine.log", workdir)
    code, _ = reap(p, time.monotonic() + 170)
    if code != 0:
        raise BenchError("engine driver failed:\n"
                         + (workdir / "engine.log").read_text()[-2000:])
    e = json.loads((workdir / "engine.json").read_text())
    problems = []
    if not e["reference_matches"]:
        problems.append("ledger/words/kv differ from the kSim reference: "
                        f"{e['ledger_digest']} vs {e['reference_ledger_digest']}")
    if not e["healthy"] or e["skipped"] or e["fallbacks"]:
        problems.append("unhealthy ledger, skipped slots or fallbacks")
    if not e["warm"]:
        problems.append("warm-up did not build every worker's setup")
    if e["committed"] != e["slots_total"]:
        problems.append("not every submitted slot committed")
    # Medians over windows of consecutive slots (latency in submission
    # order, rate from commit times).
    latency = [x / 1e6 for x in e["latency_ns"]]
    lat_windows = stats.split(latency, ENGINE_WINDOWS)
    commits = e["commit_ns"]
    throughput = stats.windowed(stats.split(commits, ENGINE_WINDOWS),
                                stats.rate_per_s)
    result = {
        "attempted": e["measured_ops"],
        "failed": 0 if not problems else e["measured_ops"],
        "problems": problems,
        "lines": [f"ops={e['measured_ops']} slots_total={e['slots_total']} "
                  f"checkpoints={e['checkpoints']} ledger={e['ledger_digest']}"],
    }
    p50 = stats.windowed(lat_windows, stats.median)
    if not trace:
        result["e2e"] = {
            "setup_s": stats.median(e["setup_ns"]) / 1e9,
            "latency_p50_ms": p50,
            "latency_p95_ms": stats.windowed(
                lat_windows,
                lambda w: stats.tail_quantile(w, TAIL_Q, TAIL_BEYOND)),
            "throughput_ops_s": throughput,
            "peak_rss_mb": e["peak_rss_kb"] / 1024,
        }
        return result
    slots_total = e["slots_total"]
    checks = e["crypto_pairings"] + e["crypto_memo_hits"]
    result["layers"] = {
        "smr.submit_wait_frac": e["submit_ns"] / e["measure_ns"],
        "smr.commit_interval_ms": stats.mean(
            [(b - a) / 1e6 for a, b in zip(commits, commits[1:])]),
        "smr.worker_cpu_frac": e["worker_cpu_ns"] / (e["measure_ns"] * e["workers"]),
        "smr.checkpoint_ms": stats.mean([x / 1e6 for x in e["checkpoint_ns"]]),
        "smr.durability_us": e["durability_inside_ns"] / e["durability_calls"] / 1e3,
        "smr.max_reorder_depth": e["max_reorder_depth"],
        "smr.backpressure_waits": e["backpressure_waits"],
        "crypto.pairing_us": e["pairing_us"],
        "crypto.pairings_per_op": e["crypto_pairings"] / slots_total,
        "crypto.memo_hit_frac": e["crypto_memo_hits"] / checks if checks else 0.0,
        "ba.words_per_op": e["total_words"] / slots_total,
        "ba.fallbacks_per_op": e["fallbacks"] / slots_total,
        "wire.encode_ns": e["encode_ns"],
        "wire.decode_ns": e["decode_ns"],
        "trace.latency_p50_ms": p50,
        "trace.throughput_ops_s": throughput,
    }
    if not (e["codec_ok"] and e["pairing_ok"]):
        problems.append("layer microbenchmark self-check failed")
    return result


# ---------------------------------------------------------------------------
# dst-full


def run_dst(wl, bins, seed, seconds, trace, workdir):
    cmd = [bins["perfbench_driver"], "dst", "--grid", str(ROOT / DST_GRID),
           "--jobs", str(DST_JOBS), "--chunks", str(DST_SLICES),
           "--setup-repeats", str(DST_SETUP_REPEATS),
           "--seed", str(seed), "--trace", str(int(trace)), "--out", str(workdir)]
    p = spawn(cmd, workdir / "dst.log", workdir)
    code, _ = reap(p, time.monotonic() + 170)
    if code != 0:
        raise BenchError("dst driver failed:\n"
                         + (workdir / "dst.log").read_text()[-2000:])
    d = json.loads((workdir / "dst.json").read_text())
    ran = int(sum(d["chunk_cells"]))
    problems = [f"{d['failed']} failed cells"] if d["failed"] else []
    if ran != d["cells"]:
        problems.append(f"{ran} of {d['cells']} cells ran")
    result = {
        "attempted": d["cells"],
        "failed": d["failed"] + d["cells"] - ran,
        "problems": problems,
        "lines": [f"cells={d['cells']} failed={d['failed']}"],
    }
    # Medians over the campaign slices (cells complete slice by slice), the
    # same reduction with tracing on and off.
    cell_ms = [x / 1e6 for x in d["cell_ns"]]
    parts, at = [], 0
    for count in d["chunk_cells"]:
        parts.append(cell_ms[at:at + int(count)])
        at += int(count)
    p50 = stats.windowed(parts, stats.median)
    throughput = stats.median(
        [c / (t / 1e9) for c, t in zip(d["chunk_cells"], d["chunk_ns"])])
    if not trace:
        result["e2e"] = {
            # The fastest grid load: a ~3 ms single-threaded span whose
            # median moves with how warm the allocator is (see README).
            "setup_s": min(d["setup_ns"]) / 1e9,
            "latency_p50_ms": p50,
            "latency_p95_ms": stats.windowed(
                parts, lambda w: stats.tail_quantile(w, TAIL_Q, TAIL_BEYOND)),
            "throughput_ops_s": throughput,
            "peak_rss_mb": d["peak_rss_kb"] / 1024,
        }
        return result
    spans = read_spans(workdir / "spans.tsv")
    dur = {}
    for v in spans.values():
        dur.setdefault(v["name"], {})[v["op"]] = v["end"] - v["start"]
    layers = {
        "check.checker_frac": sum(dur["run_checkers"].values())
        / sum(dur["cell"].values()),
        "sim.pool_reuse_frac": d["pool_reused"]
        / max(d["pool_reused"] + d["pool_fresh"], 1),
        "ba.words_per_op": d["words_correct"] / d["cells"],
        "ba.fallbacks_per_op": d["fallback_cells"] / d["cells"],
        "wire.encode_ns": d["encode_ns"],
        "wire.decode_ns": d["decode_ns"],
        "crypto.pairing_us": d["pairing_us"],
        "trace.latency_p50_ms": p50,
        "trace.throughput_ops_s": throughput,
    }
    by_protocol = {}
    for proto, lo, hi in d["protocol_ranges"]:
        by_protocol.setdefault(proto, []).extend(
            dur["cell"][i] / 1e6 for i in range(int(lo), int(hi)))
    for proto, ms in by_protocol.items():
        layers[f"check.cell_ms.{proto}"] = stats.mean(ms)
    result["layers"] = layers
    if not (d["codec_ok"] and d["pairing_ok"]):
        problems.append("layer microbenchmark self-check failed")
    return result


RUNNERS = {"node": run_node, "engine": run_engine, "dst": run_dst}


# ---------------------------------------------------------------------------


def run_workload(name, bench, bins, build_root, args):
    wl = WORKLOADS[name]
    workdir = build_root / "runs" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        r = RUNNERS[wl["kind"]](wl, bins, args.seed, args.seconds,
                                bool(args.trace), workdir)
    finally:
        kill_all()
    shutil.rmtree(workdir, ignore_errors=True)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = r.get("layers" if args.trace else "e2e", {})
    metrics = {}
    for spec in specs:
        # A layer this workload does not exercise reports 0.
        value = float(values.get(spec["name"], 0.0))
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    for line in r["lines"]:
        print(f"{name}: {line}")
    for key, m in metrics.items():
        print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
    failed_frac = r["failed"] / r["attempted"]
    print(f"{name}: failed_frac = {failed_frac:.6g} ratio")
    for problem in r["problems"]:
        print(f"{name}: CHECK FAILED: {problem}")
    return {"correct": not r["problems"], "attempted": int(r["attempted"]),
            "failed": int(r["failed"]), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: sys.exit(1))
    try:
        bins, build_root = build()
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self_test(bins)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(name, bench, bins, build_root, args)
                   for name in names]
    except (BenchError, stats.InsufficientSamples) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        kill_all()
    if len(results) == 1:
        final = results[0]
    else:
        for name, r in zip(names, results):
            print(json.dumps({"workload": name, **r}))
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{name}.{k}": v for name, r in zip(names, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
