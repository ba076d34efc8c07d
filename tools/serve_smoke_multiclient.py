#!/usr/bin/env python3
"""Multi-client smoke for `aflow serve --listen` (and, with --tcp, the TCP
transport of the same event-driven front).

Starts one serving process on a Unix socket — or a kernel-assigned TCP port
parsed from the server's "listening on tcp port N" stderr line — then
drives N parallel client threads, each holding its own session and
streaming a mixed request script. Validates, per client:

  - every response line parses as JSON with schema aflow-serve-v1;
  - per-session request ids are 1..M in order and carry the session id;
  - every scripted request succeeds (ok:true);
  - exact solves return the expected flow for the client's topology.

Then probes the session cap (one connection beyond --max-sessions must get
a single ok:false rejection line and EOF), drives one reconfiguration-stream
session through the structured `--edits` form (consecutive incremental
solves of dinic and push_relabel checked against the non-incremental
edmonds_karp every revision), sends `shutdown`, and requires the server
process to exit cleanly. Exit code 0 = smoke passed.

Usage: serve_smoke_multiclient.py --aflow PATH [--clients N] [--requests M]
                                  [--tcp]
"""

import argparse
import json
import os
import random
import re
import socket
import subprocess
import sys
import tempfile
import threading
import time

EXPECTED_GRID_FLOW = {4: 90.0, 5: 149.0, 6: 208.0}  # grid:side=S,seed=1


def connect(target):
    """target is ("unix", path) or ("tcp", port); returns a connected socket."""
    kind, value = target
    if kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(30)
        sock.connect(value)
        return sock
    sock = socket.create_connection(("127.0.0.1", value), timeout=30)
    sock.settimeout(30)
    return sock


class Client:
    def __init__(self, target):
        self.sock = connect(target)
        self.file = self.sock.makefile("rw", encoding="utf-8")

    def request(self, line):
        self.file.write(line + "\n")
        self.file.flush()
        raw = self.file.readline()
        if not raw:
            raise RuntimeError(f"server hung up after: {line}")
        return json.loads(raw)

    def close(self):
        self.file.close()
        self.sock.close()


def run_client(target, index, requests, errors):
    try:
        side = 4 + index % 3
        script = [f"load --spec grid:side={side},seed=1"]
        while len(script) < requests:
            i = len(script)
            if i % 4 == 1:
                script.append("solve --solver dinic")
            elif i % 4 == 2:
                script.append(f"reconfigure --seed {index * 17 + i}")
            else:
                script.append("solve --solver analog_dc_warm")
        script.append("session")

        # The cap-holder connections released just before the clients
        # start; the server frees their slots asynchronously, so retry on
        # rejection instead of racing it.
        deadline = time.time() + 20
        while True:
            client = Client(target)
            doc = client.request(script[0])
            if doc["ok"]:
                break
            client.close()
            assert "session limit" in doc["error"], doc
            if time.time() > deadline:
                raise RuntimeError("session slots never freed")
            time.sleep(0.1)
        session_id = None
        reconfigured = False
        for expect_id, line in enumerate(script, start=1):
            if expect_id > 1:
                doc = client.request(line)
            assert doc["schema"] == "aflow-serve-v1", doc
            assert doc["ok"] is True, f"{line} -> {doc}"
            assert doc["id"] == expect_id, f"{line} -> {doc}"
            if session_id is None:
                session_id = doc["session"]
            assert doc["session"] == session_id, f"{line} -> {doc}"
            if line.startswith("reconfigure"):
                reconfigured = True
            if line == "solve --solver dinic":
                if reconfigured:
                    assert doc["flow"] > 0, f"{line} -> {doc}"
                else:
                    assert doc["flow"] == EXPECTED_GRID_FLOW[side], \
                        f"{line} -> {doc}"
        view = client.request("session")
        assert view["requests"] == len(script) + 1, view
        client.request("quit")
        client.close()
    except Exception as exc:  # noqa: BLE001 - smoke collects all failures
        errors.append(f"client {index}: {exc!r}")


def run_reconfigure_stream(target):
    """One session streaming capacity-edit revisions via `--edits`.

    Every revision: apply a small structured edit batch, then check that
    the incremental solves (delta:true) of dinic and push_relabel match
    edmonds_karp, which has no incremental path and its own bank. Each
    incremental backend thus takes consecutive delta steps from its kept
    residual; one step asks for `--check`. Also probes the removed
    `--edge/--capacity` alias: an unknown flag, refused as a wrong request
    whose known-flag list names `--edits`.
    """
    client = Client(target)
    doc = client.request("load --spec grid:side=6,seed=2")
    assert doc["ok"] is True, doc
    edges = doc["edges"]

    backends = ("dinic", "push_relabel")
    for backend in backends:
        doc = client.request(f"solve --solver {backend}")
        assert doc["ok"] is True and doc["delta"] is False, doc

    rng = random.Random(42)
    revision = None
    for step in range(6):
        batch = {e: round(rng.uniform(1.0, 9.0), 2)
                 for e in rng.sample(range(edges), 3)}
        spec = ",".join(f"{e}:{c}" for e, c in batch.items())
        doc = client.request(f"reconfigure --edits {spec}")
        assert doc["ok"] is True, doc
        # edits_applied counts the normalized diff (no-op edits drop out).
        assert 0 <= doc["edits_applied"] <= len(batch), doc
        if revision is not None:
            assert doc["revision"] == revision + 1, doc
        revision = doc["revision"]

        ref = client.request("solve --solver edmonds_karp")
        assert ref["ok"] is True and ref["delta"] is False, ref
        scale = max(1.0, abs(ref["flow"]))
        for backend in backends:
            check = " --check" if step == 3 else ""
            inc = client.request(f"solve --solver {backend}{check}")
            assert inc["ok"] is True and inc["delta"] is True, inc
            assert abs(inc["flow"] - ref["flow"]) <= 1e-9 * scale, (inc, ref)

    # Sharded decomposition solve of the current revision: exact, so it must
    # reproduce the direct solver's value, with a valid pre-refinement bound.
    doc = client.request("solve --shards 4 --threads 2")
    assert doc["ok"] is True and doc["solver"] == "sharded", doc
    assert abs(doc["flow"] - ref["flow"]) <= 1e-9 * scale, (doc, ref)
    assert doc["shards"]["upper_bound"] >= doc["flow"] - 1e-9, doc
    assert doc["shards"]["regions"] >= 2, doc

    doc = client.request("reconfigure --edge 0 --capacity 4.5")
    assert doc["ok"] is False, doc
    assert doc["error_info"]["code"] == "invalid_argument", doc
    assert "--edits" in doc["error"], doc

    client.request("quit")
    client.close()


def wait_for_tcp_port(server, timeout=15):
    """Reads the server's stderr until the bound-port announcement."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        line = server.stderr.readline()
        if not line:
            raise RuntimeError("server exited before announcing its tcp port")
        match = re.search(r"listening on tcp port (\d+)", line)
        if match:
            return int(match.group(1))
    raise RuntimeError("server never announced its tcp port")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--aflow", required=True)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=6)
    parser.add_argument("--tcp", action="store_true",
                        help="drive the TCP transport instead of the Unix "
                             "socket (port 0, kernel-assigned)")
    args = parser.parse_args()

    sock_path = os.path.join(
        tempfile.mkdtemp(prefix="aflow_smoke_"), "serve.sock")
    listen = (["--tcp", "127.0.0.1:0"] if args.tcp
              else ["--listen", sock_path])
    server = subprocess.Popen(
        [args.aflow, "serve", *listen,
         "--max-sessions", str(args.clients + 1), "--pool-budget-mb", "32"],
        stderr=subprocess.PIPE, text=True)
    try:
        if args.tcp:
            target = ("tcp", wait_for_tcp_port(server))
        else:
            for _ in range(200):
                if os.path.exists(sock_path):
                    break
                if server.poll() is not None:
                    print("server exited early:", server.stderr.read())
                    return 1
                time.sleep(0.05)
            else:
                print("server socket never appeared")
                return 1
            target = ("unix", sock_path)

        errors = []
        threads = [
            threading.Thread(target=run_client,
                             args=(target, k, args.requests, errors))
            for k in range(args.clients)
        ]

        # Hold max_sessions slots open so the cap rejection is observable.
        holders = [Client(target) for _ in range(args.clients + 1)]
        over = connect(target)
        reject = over.makefile("r", encoding="utf-8").readline()
        doc = json.loads(reject)
        assert doc["ok"] is False and "session limit" in doc["error"], doc
        over.close()
        for holder in holders:
            holder.close()

        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            print("\n".join(errors))
            return 1

        run_reconfigure_stream(target)

        Client(target).request("shutdown")
        server.wait(timeout=30)
        if server.returncode != 0:
            print(f"server exited with {server.returncode}")
            return 1
        transport = "tcp" if args.tcp else "unix-socket"
        print(f"multi-client serve smoke ({transport}): {args.clients} "
              f"concurrent sessions x {args.requests}+ requests OK, cap "
              "rejection OK, reconfigure stream (delta vs edmonds_karp) OK, "
              "clean shutdown")
        return 0
    finally:
        if server.poll() is None:
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
