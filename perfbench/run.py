#!/usr/bin/env python3
"""End-to-end TCP benchmark of the rsp serving stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload allpairs-mix --seed 1 --seconds 35 --trace 0

It builds the repository's rspcli plus the benchmark client (CMake, into
$CARGO_TARGET_DIR or .bench_build), sets the workload up several times
(generate, build, save, start the servers until each prints `listening`),
then drives the servers over loopback TCP with open-loop traffic from
perfbench_client and checks every answer. With --trace 1 it instead sets up
once, runs the nominal load, reads STATS, and replays the same inputs
through each layer in-process (perfbench_client trace), reporting the
per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Workloads live in
perfbench/workloads.json; see perfbench/README.md.
"""
import argparse
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3  # set-up repetitions per untraced run; setup_s is their median
BUILD_THREADS = 4


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, bdir):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        die("no repository sources here (need CMakeLists.txt and src/ in "
            "the working directory)")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", str(BUILD_THREADS),
                    "--target", "perfbench_client"],
                   stdout=sys.stderr, check=True)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One rspcli serve process; wait_listening() returns once it listens."""

    def __init__(self, args):
        self.proc = subprocess.Popen(args, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE)
        self.log = []

    def wait_listening(self):
        while True:
            line = self.proc.stderr.readline()
            if not line:
                raise RuntimeError("server exited before listening: "
                                   + " | ".join(self.log))
            self.log.append(line.decode(errors="replace").strip())
            if line.startswith(b"listening on port"):
                return

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def set_up(w, cli, work):
    """Generate + build + save the snapshot, start the servers. Returns
    (seconds from generation to the last `listening`, servers, their ports
    with the front end first, snapshot path)."""
    scene, serve = w["scene"], w["serve"]
    fleet = serve["kind"] == "fleet"
    snap = os.path.join(work, "fleet.man" if fleet else "scene.rsnap")
    cmd = [cli, "build", "--gen", scene["gen"], "--n", str(scene["n"]),
           "--seed", str(scene["seed"]), "--threads", str(BUILD_THREADS),
           "--out", snap]
    if fleet:
        cmd += ["--shards", str(serve["shards"])]
    t0 = time.perf_counter()
    subprocess.run(cmd, capture_output=True, check=True)
    common = ["--map", serve["map"], "--threads", str(serve["threads"])]
    servers = []
    try:
        if fleet:
            ports = [free_port() for _ in range(serve["shards"])]
            for i, p in enumerate(ports):
                servers.append(Server([cli, "serve", "--snapshot", snap,
                                       "--mount", "owned", "--shard", str(i),
                                       "--port", str(p)] + common))
            front = free_port()
            for s in servers:
                s.wait_listening()
            eps = ",".join(f"127.0.0.1:{p}" for p in ports)
            servers.append(Server([cli, "serve", "--router", snap, "--shards",
                                   eps, "--port", str(front)]))
            servers[-1].wait_listening()
            ports = [front] + ports
        else:
            front = free_port()
            servers.append(Server([cli, "serve", "--snapshot", snap,
                                   "--port", str(front)] + common))
            servers[0].wait_listening()
            ports = [front]
    except Exception:
        for s in servers:
            s.stop()
        raise
    return time.perf_counter() - t0, servers, ports, snap


def artifact_mb(snap):
    d, base = os.path.split(snap)
    return sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d)
               if f.startswith(base)) / 1e6


def ladder_rates(w):
    lad = w["ladder"]
    return [lad["start"] * lad["ratio"] ** k for k in range(lad["steps"])]


def mix_args(w):
    """The traffic-mix flags both client commands take."""
    m = w["mix"]
    return ["--len", str(m["len"]), "--path", str(m["path"]),
            "--batch", str(m["batch"]), "--batch-k", str(m["batch_k"]),
            "--corner-frac", str(m["corner_frac"]),
            "--corners", str(m["corners"])]


def client_args(w, client, snap, port, seed, seconds, ladder, stats_ports):
    # The nominal phase takes this share of --seconds; after a 1 s warm-up,
    # the ladder gets the rest.
    nominal_s = w["nominal_share"] * seconds
    args = [client, "load", "--snapshot", snap, "--port", str(port),
            "--seed", str(seed), "--pool-seed", str(w["scene"]["seed"]),
            "--pool", str(w["pool"]), "--batches", str(w["batches"]),
            "--dijkstra", str(w["dijkstra"]),
            "--nominal", str(w["nominal_rps"]), "--nominal-s", str(nominal_s),
            "--slo-ms", str(w["slo_ms"]),
            "--lag-limit-ms", str(w["slo_ms"] / 5),
            "--step-s", str(w["step_s"]),
            "--step-min-samples", str(w["step_min_samples"]),
            "--budget-s", str(seconds),
            "--stats-ports", ",".join(map(str, stats_ports))] + mix_args(w)
    if ladder:
        args += ["--ladder", ",".join(f"{r:.1f}" for r in ladder)]
    return args


def run_client(args):
    p = subprocess.run(args, capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        raise RuntimeError(f"client failed ({p.returncode}): {p.stderr}")
    sys.stderr.write(p.stderr)
    return json.loads(p.stdout.strip().splitlines()[-1])


def parse_stats(line):
    """'OK k=v k=v ...' -> dict of the k=v fields (values as strings)."""
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def verdict(load, w):
    """(correct, why-not) for a load result."""
    if load["oracle_bad"] > 0:
        return False, "in-process oracle disagreed with itself or Dijkstra"
    if load["failed"] > 0:
        return False, f"{load['failed']} requests failed"
    if load["lag_p50_ms"] > w["slo_ms"] / 5:
        return False, "invalid run: the generator fell behind its schedule"
    return True, ""


def untraced(w, cli, client, work, seed, seconds):
    setups, live = [], None
    for i in range(SETUPS):
        secs, servers, ports, snap = set_up(w, cli, work)
        setups.append(secs)
        if i + 1 < SETUPS:
            for s in servers:
                s.stop()
        else:
            live = (servers, ports, snap)
    servers, ports, snap = live
    try:
        load = run_client(client_args(w, client, snap, ports[0], seed, seconds,
                                      ladder_rates(w), ports))
        rss = sum(s.peak_rss_mb() for s in servers)
    finally:
        for s in servers:
            s.stop()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "len_p50_ms": (load["len_p50_ms"], "ms"),
        "len_p99_ms": (load["len_p99_ms"], "ms"),
        "path_p50_ms": (load["path_p50_ms"], "ms"),
        "path_p99_ms": (load["path_p99_ms"], "ms"),
        "batch_p50_ms": (load["batch_p50_ms"], "ms"),
        "batch_p99_ms": (load["batch_p99_ms"], "ms"),
        "max_rps_at_slo": (load["max_rps_at_slo"], "1/s"),
        "server_rss_mb": (rss, "MB"),
        "snapshot_mb": (artifact_mb(snap), "MB"),
    }
    info = {
        "failed_frac": load["failed"] / max(1, load["attempted"]),
        "samples": {v: load[f"{v}_samples"] for v in ("len", "path", "batch")},
        "tail_quantile": {v: load[f"{v}_tail_q"] for v in ("len", "path", "batch")},
        "all_ms": {v: (round(load[f"{v}_p50_all_ms"], 4),
                       round(load[f"{v}_p99_all_ms"], 4))
                   for v in ("len", "path", "batch")},
        "steal_share": load["steal_share"], "ladder": load["ladder"],
        "ladder_clipped": load["ladder_clipped"], "setups_s": setups,
    }
    return metrics, load, info


def traced(w, cli, client, work, seed, seconds, spans_path):
    secs, servers, ports, snap = set_up(w, cli, work)
    try:
        load = run_client(client_args(w, client, snap, ports[0], seed,
                                      seconds / 2, [], ports))
    finally:
        for s in servers:
            s.stop()
    fleet = w["serve"]["kind"] == "fleet"
    shard_stats = [parse_stats(load[f"stats{i}"])
                   for i in range(1 if fleet else 0, len(ports))]
    disp = sum(int(s["dispatches"]) for s in shard_stats)
    pairs = sum(float(s["mean_batch"]) * int(s["dispatches"])
                for s in shard_stats)
    mean_batch = pairs / max(1, disp)
    trace_args = [client, "trace", "--seed", str(seed),
                  "--work", work, "--gen", w["scene"]["gen"],
                  "--n", str(w["scene"]["n"]),
                  "--scene-seed", str(w["scene"]["seed"]),
                  "--build-threads", str(BUILD_THREADS),
                  "--threads", str(w["serve"]["threads"]),
                  "--map", w["serve"]["map"],
                  "--shards", str(w["serve"].get("shards", 0)),
                  "--mean-batch", str(mean_batch),
                  "--pool", str(min(w["pool"], 256)),
                  "--requests", str(w["trace_requests"]),
                  "--spans", spans_path] + mix_args(w)
    rep = run_client(trace_args)
    out = {k: (v["value"], v["unit"]) for k, v in rep.items()}
    admit = [float(s["p50_us"]) for s in shard_stats]
    admit99 = [float(s["p99_us"]) for s in shard_stats]
    out.update({
        "server.mean_batch": (mean_batch, "pairs"),
        "server.dispatches": (disp, "count"),
        "server.admit_p50_us": (max(admit), "us"),
        "server.admit_p99_us": (max(admit99), "us"),
        "server.shed": (sum(int(s["shed"]) for s in shard_stats), "count"),
        "server.window_us": (max(float(s["window_us"]) for s in shard_stats), "us"),
        "loadgen.lag_p99_ms": (load["lag_p99_ms"], "ms"),
        "loadgen.steal_share": (load["steal_share"], "ratio"),
        "loadgen.sent": (load["sent"], "count"),
        "loadgen.connections": (load["connections"], "count"),
        "traced.len_p50_ms": (load["len_p50_ms"], "ms"),
        "traced.len_p99_ms": (load["len_p99_ms"], "ms"),
        "traced.setup_s": (secs, "s"),
    })
    router = {}
    if fleet:
        rs = load["stats0"].split()
        reqs = float(parse_stats(load["stats0"])["requests"])
        fields = [t.split("=", 1)[1].split(":", 1)[1] for t in rs
                  if t.startswith("shard") and ":" in t]
        per = [dict(kv.split("=") for kv in f.split(",")) for f in fields]
        router = {
            "router.exchanges_per_req":
                (sum(float(p["req"]) for p in per) / max(1, reqs), "count"),
            "router.misroutes_per_req":
                (sum(float(p["misroute"]) for p in per) / max(1, reqs), "count"),
            "router.retries": (sum(int(p["retry"]) for p in per), "count"),
            "router.shard_p95_us":
                (max(float(p["p95_us"]) for p in per), "us"),
        }
    for k, unit in (("router.exchanges_per_req", "count"),
                    ("router.misroutes_per_req", "count"),
                    ("router.retries", "count"), ("router.shard_p95_us", "us")):
        out[k] = router.get(k, (0, unit))
    # STATS gives the admit time over all verbs only. Where it exceeds the
    # LEN latency (slow PATHs on tree-4096) nothing is left unattributed.
    parse_fmt = out["protocol.parse_ns.len"][0] + out["protocol.format_ns.len"][0]
    out["wire.unattributed_us"] = (max(
        0.0, load["len_p50_ms"] * 1e3 - (max(admit) + parse_fmt / 1e3)), "us")
    return out, load


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    # A terminated run still stops its servers (the finally blocks below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))

    root = os.getcwd()
    bdir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(root, bdir)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if a.workload not in workloads:
        die(f"unknown workload {a.workload!r} (have {', '.join(workloads)})")
    w = workloads[a.workload]
    cli = os.path.join(bdir, "rsp", "rspcli")
    client = os.path.join(bdir, "perfbench_client")
    work = os.path.join(bdir, "work", f"{a.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if a.trace:
            traces = os.path.join(bdir, "traces")
            os.makedirs(traces, exist_ok=True)
            metrics, load = traced(
                w, cli, client, work, a.seed, a.seconds,
                os.path.join(traces, f"{a.workload}-seed{a.seed}.json"))
            correct, why = verdict(load, w)
        else:
            metrics, load, info = untraced(w, cli, client, work, a.seed,
                                           a.seconds)
            correct, why = verdict(load, w)
            print(f"# {a.workload} seed={a.seed}: failed_frac="
                  f"{info['failed_frac']:.6g} samples={info['samples']} "
                  f"tail_q={info['tail_quantile']} steal_share="
                  f"{info['steal_share']:.3f} p50_p99_all_ms="
                  f"{info['all_ms']} ladder_clipped="
                  f"{info['ladder_clipped']} setups_s={info['setups_s']}")
            print(f"# ladder {info['ladder']}")
            if info["ladder_clipped"]:
                print("perfbench: the ladder ended without a failing step; "
                      "max_rps_at_slo is only a lower bound", file=sys.stderr)
    finally:
        for f in os.listdir(work):
            os.remove(os.path.join(work, f))
        os.rmdir(work)
    if not correct:
        print(f"perfbench: {why}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}".rstrip())
    print(json.dumps({
        "correct": correct,
        "attempted": int(load["attempted"]),
        "failed": int(load["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
