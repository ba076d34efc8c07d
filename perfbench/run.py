#!/usr/bin/env python3
"""The repo benchmark: one client process driving `aflow serve --listen`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the release `aflow` CLI and the
benchmark's own layer tool (perfbench/layers.cpp) under .bench_build (or
$CARGO_TARGET_DIR), generates the workload's instances and edit streams from
--seed, starts the server, drives it over a Unix socket for --seconds, checks
every answer against exact references computed after the timed region, and
prints one JSON result as the last line of stdout. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones
(perfbench/README.md has both tables).
"""

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per workload: server workers (one per client), rounds, and the edit lines
# generated per stream per measured second (above a session's step rate).
#
# A run is cut into rounds. Each round spawns its own server, sets it up
# (timed), drives it for an equal share of --seconds, each session on an edit
# stream of its own from its fresh grid, and shuts it down. Each step figure
# is the median over the rounds, so neither a burst of interference from
# other work on the host nor one process's placement on the cores moves it
# much (on a shared 4-core x86-64 host, two single-server runs of one seed
# differed by 15%). cold_solve's set-up is short and its rounds' set-up times
# bimodal, so it takes more rounds.
WORKLOADS = {
    "edit_stream": {"workers": 3, "rounds": 5, "steps_per_s": 80},
    "cold_solve": {"workers": 1, "rounds": 10, "steps_per_s": 0},
}
SHARDS = 4

END_TO_END = {
    "setup_s": "s",
    "step_p50_ms": "ms",
    "step_p99_ms": "ms",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

CORPUS_SHAPES = ["gridflow", "rmat", "layered", "uniform", "path"]
PER_LAYER = {
    "front.overhead_ms": "ms",
    "front.requests_queued": "count",
    "front.backpressure_pauses": "count",
    "session.load_ms": "ms",
    "session.reconfigure_ms": "ms",
    "session.copy_ms": "ms",
    "session.apply_ms": "ms",
    "session.diff_ms": "ms",
    "bank.solve_ms_p50": "ms",
    "bank.solve_ms_p99": "ms",
    "bank.delta_solves": "count",
    "bank.delta_fallbacks": "count",
    "delta.engaged_ratio": "ratio",
    "delta.step_ms.dinic": "ms",
    "delta.step_ms.push_relabel": "ms",
    "delta.carry_ms": "ms",
    "delta.repair_ms": "ms",
    "delta.augment_ms": "ms",
    "delta.extract_ms": "ms",
    "delta.stage_sum_ratio": "ratio",
    "delta.ops.dinic": "count",
    "delta.ops.push_relabel": "count",
    "delta.speedup_vs_scratch.dinic": "x",
    "delta.speedup_vs_scratch.push_relabel": "x",
    "graph.stream_parse_ms.gridflow": "ms",
    "sharded.partition_ms": "ms",
    "sharded.regions_ms": "ms",
    "sharded.stitch_ms": "ms",
    "sharded.refine_ms": "ms",
    "sharded.repair_ops": "count",
    "sharded.refine_ops": "count",
    "sharded.stitched_share": "ratio",
    "analog.map_ms": "ms",
    "analog.solve_delta_ms": "ms",
    "analog.transient_ms": "ms",
    "analog.battery_iterations": "count",
    "analog.battery_refactor_share": "ratio",
    "analog.battery_delta_engaged_ratio": "ratio",
    "analog.battery_rel_err_max": "ratio",
    "analog.battery_transient_rel_err": "ratio",
    "pool.battery_hit_ratio": "ratio",
    "pool.battery_bytes": "bytes",
    "solve_dinic_s": "s",
    "solve_push_relabel_s": "s",
    "solve_sharded_s": "s",
    "error_rate": "ratio",
    "trace.overhead_share": "ratio",
}
for _shape in CORPUS_SHAPES:
    PER_LAYER["kernel.dinic_ms." + _shape] = "ms"
    PER_LAYER["kernel.push_relabel_ms." + _shape] = "ms"
    PER_LAYER["kernel.dinic_ops." + _shape] = "count"
    PER_LAYER["kernel.push_relabel_ops." + _shape] = "count"
    PER_LAYER["graph.parse_ms." + _shape] = "ms"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def median(values, default=0.0):
    return statistics.median(values) if values else default


def trimmed_mean(values):
    """Mean of the values left after dropping the lowest and highest quarter."""
    v = sorted(values)
    cut = len(v) // 4
    return statistics.mean(v[cut:len(v) - cut])


def now():
    return time.perf_counter()


# ------------------------------------------------------------------ build


def build(build_dir, jobs):
    """Configures, then brings aflow_cli and perfbench_layers up to date."""
    cmake_dir = os.path.join(build_dir, "cmake")
    subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "aflow_cli", "perfbench_layers",
                    "-j", str(jobs)], stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "repo", "aflow"), os.path.join(cmake_dir, "perfbench_layers")


# ------------------------------------------------------------ the server


class Conn:
    """One session: a Unix-socket connection with line framing."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def send(self, *lines):
        self.sock.sendall(("\n".join(lines) + "\n").encode())

    def recv(self):
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def request(self, line):
        t0 = now()
        self.send(line)
        r = self.recv()
        return r, now() - t0

    def close(self):
        self.reader.close()
        self.sock.close()


class Server:
    def __init__(self, aflow, run_dir, workers):
        self.sock = os.path.join(os.path.relpath(run_dir, ROOT), "s.sock")
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        self.log = open(os.path.join(run_dir, "server.log"), "ab")
        self.proc = subprocess.Popen(
            [aflow, "serve", "--listen", self.sock, "--threads", str(workers),
             "--front-workers", str(workers)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log)

    def connect(self, timeout=30.0):
        end = now() + timeout
        while True:
            try:
                return Conn(self.sock)
            except OSError:
                if self.proc.poll() is not None or now() > end:
                    raise RuntimeError("aflow serve did not start listening")
                time.sleep(0.0005)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self, conn=None):
        try:
            if conn is not None and self.proc.poll() is None:
                conn.request("shutdown")
            self.proc.wait(timeout=30)
        except Exception:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


# --------------------------------------------------------------- records


class Record:
    """Every answer the run received, for checking and metrics."""

    def __init__(self, traced):
        self.traced = traced
        self.lock = threading.Lock()
        self.responses = []  # (kind, key, response, latency_s)
        self.spans = []
        self.t0 = now()

    def add(self, kind, key, response, latency):
        with self.lock:
            self.responses.append((kind, key, response, latency))

    def span(self, name, start, end, parent=-1, step=-1):
        """Returns the span id; a no-op (-1) when tracing is off."""
        if not self.traced:
            return -1
        with self.lock:
            self.spans.append({"name": name, "parent": parent, "step": step,
                               "start": start - self.t0, "end": end - self.t0})
            return len(self.spans) - 1


def solve_line(solver):
    return "solve --solver " + solver


def trace_solve(rec, name, t1, t2, r, parent=-1, step=-1):
    """Client span of a solve request, with the server-reported solve time
    (`telemetry.ms`) as a child span ending with it. Sharded solves report no
    time and bypass the bank: the whole request is their child span."""
    span = rec.span(name, t1, t2, parent, step)
    if "telemetry" in r:
        rec.span("bank.solve", t2 - r["telemetry"]["ms"] / 1e3, t2, span, step)
    elif r.get("solver") == "sharded":
        rec.span("sharded.solve", t1, t2, span, step)


def setup_round(aflow, run_dir, spec, man, rec, first):
    """Spawn to every session loaded and answered its first solve (cold_solve:
    spawn to listening plus the corpus loads). Session i's answers are keyed
    by its stream, first + i. Returns (server, conns, s)."""
    t0 = now()
    server = Server(aflow, run_dir, spec["workers"])
    conns = []
    try:
        if "corpus" in man:
            conns.append(server.connect())
            for i, inst in enumerate(man["corpus"]):
                r, dt = conns[0].request("load --input " + inst["file"])
                rec.add("load", (i, inst), r, dt)
            return server, conns, now() - t0

        def one(i, session):
            c = conns[i]
            r, dt = c.request("load --input " + session["file"])
            rec.add("load", (i, session), r, dt)
            r, dt = c.request(solve_line(session["solver"]))
            rec.add("setup_solve", (first + i, 0), r, dt)

        conns.extend(server.connect() for _ in man["sessions"])
        threads = [threading.Thread(target=one, args=(i, s)) for i, s in enumerate(man["sessions"])]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return server, conns, now() - t0
    except BaseException:
        for c in conns:
            c.close()
        server.stop()
        raise


def run_stream(conns, man, rec, seconds, edits, first):
    """Closed-loop edit stream: session i pipelines `reconfigure --edits` with
    `solve` and waits for the new flow before its next edit, from the first
    edit of stream first + i on. Returns the step latencies and the elapsed
    seconds."""
    latencies = []
    errors = []
    start = threading.Barrier(len(conns) + 1)
    end_time = [0.0]

    def client(i):
        conn, session, lines = conns[i], man["sessions"][i], edits[first + i]
        solve = solve_line(session["solver"])
        local = []
        try:
            start.wait()
            deadline = end_time[0]
            k = 0
            while now() < deadline and k < len(lines):
                t0 = now()
                conn.send("reconfigure --edits " + lines[k], solve)
                r1 = conn.recv()
                t1 = now()
                r2 = conn.recv()
                t2 = now()
                k += 1
                local.append(t2 - t0)
                rec.add("reconfigure", (first + i, k), r1, t1 - t0)
                rec.add("solve", (first + i, k), r2, t2 - t1)
                if rec.traced:
                    step = rec.span("client.step", t0, t2, step=k)
                    rec.span("session.reconfigure", t0, t1, step, k)
                    trace_solve(rec, "front.solve", t1, t2, r2, step, k)
            if k == len(lines):
                raise RuntimeError("session %d ran out of generated edits" % i)
        except BaseException as e:  # surfaced by the caller
            errors.append(e)
        with rec.lock:
            latencies.extend(local)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(conns))]
    for t in threads:
        t.start()
    t_start = now()
    end_time[0] = t_start + seconds
    start.wait()
    for t in threads:
        t.join()
    elapsed = now() - t_start
    if errors:
        raise errors[0]
    return latencies, elapsed


def run_corpus(conn, man, rec, seconds):
    """Sequential cold solves over the corpus, whole passes only, for about
    `seconds`. A step is one solve request. Returns one record per pass: its
    step latencies, summed solve seconds per backend, and its seconds spent
    solving (loads excluded)."""
    passes = []
    t_start = now()
    while not passes or (now() - t_start) * (len(passes) + 1) / len(passes) <= seconds:
        latencies = []
        sums = {"dinic": 0.0, "push_relabel": 0.0, "sharded": 0.0}
        for i, inst in enumerate(man["corpus"]):
            r, dt = conn.request("load --input " + inst["file"])
            rec.add("load", (i, inst), r, dt)
            lines = [("dinic", solve_line("dinic")), ("push_relabel", solve_line("push_relabel"))]
            if inst["shape"] == "gridflow":
                lines.append(("sharded", "solve --shards %d --threads %d" % (SHARDS, SHARDS)))
            for kind, line in lines:
                t0 = now()
                r, dt = conn.request(line)
                rec.add("solve", (i, kind), r, dt)
                trace_solve(rec, "front.solve", t0, t0 + dt, r)
                latencies.append(dt)
                sums[kind] += dt
        passes.append({"latencies": latencies, "sums": sums, "busy": sum(latencies)})
    return passes


# --------------------------------------------------------------- checking


def references(tool, workload, seed, counts, tiny):
    args = [tool, "ref", workload, str(seed), ",".join(str(c) for c in counts)]
    out = subprocess.run(args + (["tiny"] if tiny else []), stdout=subprocess.PIPE, check=True)
    return json.loads(out.stdout)["values"]


def exact_match(value, ref):
    return value is not None and abs(value - ref) <= 1e-9 * max(1.0, abs(ref))


def check(rec, man, refs):
    """Scores every answer: each load must report the generated sizes and
    each flow must match its exact reference. Returns (attempted, failed)."""
    attempted = failed = 0
    for kind, key, r, _ in rec.responses:
        attempted += 1
        if not r.get("ok"):
            failed += 1
            continue
        if kind == "load":
            i, inst = key
            if (r["vertices"], r["edges"]) != (inst["vertices"], inst["edges"]):
                failed += 1
            continue
        if kind not in ("solve", "setup_solve"):
            continue
        exact = refs[key[0]][0 if "corpus" in man else key[1]]
        if not exact_match(r.get("flow"), exact):
            failed += 1
    return attempted, failed


# ---------------------------------------------------------------- metrics


def serve_layers(rec, stats):
    """Per-layer metrics read from the workload's own server runs: client
    latencies, response telemetry, and the `stats` counters of every round's
    server, summed."""
    m = {}
    solves = [(k, r, dt) for kind, k, r, dt in rec.responses if kind == "solve" and r.get("ok")]
    timed = [(r, dt) for _, r, dt in solves if "telemetry" in r]
    m["front.overhead_ms"] = median([dt * 1e3 - r["telemetry"]["ms"] for r, dt in timed])
    fronts = [st.get("front", {}) for st in stats]
    m["front.requests_queued"] = sum(f.get("requests_queued", 0) for f in fronts)
    m["front.backpressure_pauses"] = sum(f.get("backpressure_pauses", 0) for f in fronts)
    m["session.load_ms"] = median([dt * 1e3 for kind, _, _, dt in rec.responses if kind == "load"])
    m["session.reconfigure_ms"] = median(
        [dt * 1e3 for kind, _, _, dt in rec.responses if kind == "reconfigure"])
    bank_ms = [r["telemetry"]["ms"] for r, _ in timed]
    m["bank.solve_ms_p50"] = quantile(bank_ms, 0.5) if bank_ms else 0.0
    m["bank.solve_ms_p99"] = quantile(bank_ms, 0.99) if bank_ms else 0.0
    banks = [b for st in stats for b in st.get("solvers", [])]
    m["bank.delta_solves"] = sum(b["metrics"]["delta_solves"] for b in banks)
    m["bank.delta_fallbacks"] = sum(b["metrics"]["delta_fallbacks"] for b in banks)
    m["delta.engaged_ratio"] = (sum(1 for _, r, _ in solves if r.get("delta")) / len(solves)
                                if solves else 0.0)
    return m


def self_times(spans):
    """Per span name: total time minus the time of its child spans (ms)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    out = {}
    for i, s in enumerate(spans):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - child[i]) * 1e3
    return out


def print_table(title, metrics, units):
    print("%s" % title)
    for name in sorted(metrics):
        print("  %-40s %14.6g %s" % (name, metrics[name], units.get(name, "")))


# ------------------------------------------------------------------ main


def measure(args, aflow, tool, run_dir, traced):
    """One run of the workload, in rounds. Returns (manifest, record, measured
    figures, every round's `stats`)."""
    spec = WORKLOADS[args.workload]
    tiny = ["tiny"] if args.tiny else []
    rounds = spec["rounds"]
    steps = max(10, int(spec["steps_per_s"] * (args.seconds / rounds + 5)
                        * (50 if args.tiny else 1)))
    subprocess.run([tool, "gen", args.workload, str(args.seed), os.path.relpath(run_dir, ROOT),
                    str(steps), str(rounds)] + tiny, cwd=ROOT, check=True)
    with open(os.path.join(run_dir, "manifest.json")) as f:
        man = json.load(f)
    sessions = man.get("sessions", [])
    edits = []  # per stream: round r's session i is stream r * len(sessions) + i
    for r in range(rounds if sessions else 0):
        for s in sessions:
            with open(s["edits"][r]) as f:
                edits.append(f.read().splitlines())

    rec = Record(traced=False)
    setups, windows, passes, stats, rss = [], [], [], [], []
    for k in range(rounds):
        # A traced run drives its first half of the rounds untraced and the
        # rest traced: the difference is the tracing overhead.
        rec.traced = traced and k >= rounds // 2
        first = k * len(sessions)
        server, conns, s = setup_round(aflow, run_dir, spec, man, rec, first)
        try:
            setups.append(s)
            window, round_passes = drive(conns, man, rec, args.seconds / rounds, edits, first)
            windows.append(window)
            passes.extend(round_passes)
            stats.append(conns[0].request("stats")[0])
            rss.append(server.peak_rss_mb())
        finally:
            close(server, conns)
    log("set-up rounds (s): " + " ".join("%.3f" % x for x in setups))
    figures = {"setup_s": trimmed_mean(setups), "peak_rss_mb": median(rss), "passes": passes}
    if traced:
        untraced = step_figures(windows[:rounds // 2])
        figures["trace.overhead_share"] = (step_figures(windows[rounds // 2:])["step_p50_ms"]
                                           / untraced["step_p50_ms"] - 1.0)
    else:
        figures.update(step_figures(windows))
    return man, rec, figures, stats


def close(server, conns):
    """Shuts the server down through the first session and closes them all."""
    for c in conns[1:]:
        c.close()
    server.stop(conns[0])
    conns[0].close()


def drive(conns, man, rec, seconds, edits, first):
    """Drives one round for about `seconds`. Returns its step window — (step
    latencies, seconds the steps ran) — and its corpus passes' per-backend
    sums."""
    if "corpus" in man:
        passes = run_corpus(conns[0], man, rec, seconds)
        window = ([x for p in passes for x in p["latencies"]], sum(p["busy"] for p in passes))
        return window, [p["sums"] for p in passes]
    return run_stream(conns, man, rec, seconds, edits, first), []


def step_figures(windows):
    """Median over the rounds' windows of each window's step p50, p99 and
    rate."""
    windows = [(lat, busy) for lat, busy in windows if lat]
    return {
        "step_p50_ms": median([quantile(lat, 0.5) for lat, _ in windows]) * 1e3,
        "step_p99_ms": median([quantile(lat, 0.99) for lat, _ in windows]) * 1e3,
        "steps_per_s": median([len(lat) / busy for lat, busy in windows]),
        "steps": sum(len(lat) for lat, _ in windows),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small instances (smoke tests)")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="perturb one exact reference (tests the answer check)")
    args = ap.parse_args()

    os.chdir(ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    jobs = max(1, min(8, len(os.sched_getaffinity(0))))
    aflow, tool = build(build_dir, jobs)

    run_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        result = bench(args, aflow, tool, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))


def bench(args, aflow, tool, run_dir):
    traced = bool(args.trace)
    man, rec, fig, stats = measure(args, aflow, tool, run_dir, traced)

    # Exact references, outside the timed region.
    if "corpus" in man:
        counts = [0] * len(man["corpus"])
    else:
        counts = [0] * sum(len(s["edits"]) for s in man["sessions"])
        for kind, key, _, _ in rec.responses:
            if kind == "solve":
                counts[key[0]] = max(counts[key[0]], key[1])
    refs = references(tool, args.workload, args.seed, counts, args.tiny)
    if args.corrupt_reference:
        refs[0][-1] += 1.0
    attempted, failed = check(rec, man, refs)

    summary = {"error_rate": failed / attempted}
    for kind in ("dinic", "push_relabel", "sharded"):  # per corpus pass
        summary["solve_%s_s" % kind] = median([p[kind] for p in fig["passes"]])
    units = dict(END_TO_END, **PER_LAYER)
    if not traced:
        metrics = {k: fig[k] for k in END_TO_END}
        print_table("%s (seed %d, %.0f s, %d steps): end-to-end"
                    % (args.workload, args.seed, args.seconds, fig["steps"]), metrics, units)
        print_table("workload figures", summary, units)
    else:
        metrics = serve_layers(rec, stats)
        metrics.update(summary)
        metrics["trace.overhead_share"] = fig["trace.overhead_share"]
        battery_start = now() - rec.t0
        out = subprocess.run([tool, "layers", str(args.seed), os.path.relpath(run_dir, ROOT)]
                             + (["tiny"] if args.tiny else []),
                             stdout=subprocess.PIPE, check=True)
        metrics.update(json.loads(out.stdout))
        spans = list(rec.spans)
        with open(os.path.join(run_dir, "spans_layers.json")) as f:
            for s in json.load(f):  # onto the run's clock and span ids
                spans.append(dict(s, start=s["start"] + battery_start,
                                  end=s["end"] + battery_start,
                                  parent=s["parent"] + len(rec.spans) if s["parent"] >= 0 else -1))
        trace_file = os.path.join(os.path.dirname(run_dir), "trace-%s-%d.json"
                                  % (args.workload, args.seed))
        with open(trace_file, "w") as f:
            json.dump(spans, f)
        layers = {}
        for name, ms in self_times(spans).items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + ms
        print_table("%s (seed %d): per-layer metrics" % (args.workload, args.seed),
                    metrics, units)
        print_table("self time per layer (ms; tracing overhead %+.2f%%)"
                    % (100 * fig["trace.overhead_share"]),
                    layers, {k: "ms" for k in layers})
        missing = set(PER_LAYER) - set(metrics)
        if missing:
            raise RuntimeError("per-layer metrics not produced: %s" % sorted(missing))
        metrics = {k: metrics[k] for k in PER_LAYER}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, RuntimeError, OSError, ConnectionError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
