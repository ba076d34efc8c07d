#!/usr/bin/env python3
"""Descriptor-limit smoke for `aflow serve --listen`.

Starts the server with RLIMIT_NOFILE 24 (set in the child process only) and
connects 30 idle clients, so the server runs out of descriptors while
connections are still queued on its listener. Requires that:

  - the server stays idle at the limit: under 0.2 CPU-seconds per second
    over 2 s, read from /proc/PID/stat. A listener that stays in the poll
    set while accept() fails with EMFILE polls ready at once, so the loop
    spins at a full CPU;
  - once most clients close, a new client is accepted and answered;
  - a `shutdown` from that client ends the server with exit code 0.

Usage: serve_fd_limit.py --aflow PATH
"""

import argparse
import json
import os
import resource
import socket
import subprocess
import sys
import tempfile
import time

NOFILE = 24
IDLE_CLIENTS = 30
CLOSED_CLIENTS = 25
MAX_CPU_SHARE = 0.2
WINDOW_S = 2.0


def cpu_seconds(pid):
    """utime + stime of `pid` (fields 14 and 15 of proc(5)'s stat)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def limit_descriptors():
    resource.setrlimit(resource.RLIMIT_NOFILE, (NOFILE, NOFILE))


def connect(path):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10)
    sock.connect(path)
    return sock


def request(sock, reader, line):
    sock.sendall((line + "\n").encode())
    raw = reader.readline()
    if not raw.endswith(b"\n"):
        raise RuntimeError(f"no complete response to: {line}")
    return json.loads(raw)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--aflow", required=True)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "serve.sock")
        server = subprocess.Popen([args.aflow, "serve", "--listen", path],
                                  stdin=subprocess.DEVNULL,
                                  preexec_fn=limit_descriptors)
        clients = []
        try:
            for _ in range(200):
                if os.path.exists(path):
                    break
                if server.poll() is not None:
                    raise RuntimeError("server exited before listening")
                time.sleep(0.05)
            else:
                raise RuntimeError("server socket never appeared")

            clients = [connect(path) for _ in range(IDLE_CLIENTS)]
            time.sleep(0.5)  # the loop accepts up to its descriptor limit
            cpu0, t0 = cpu_seconds(server.pid), time.monotonic()
            time.sleep(WINDOW_S)
            share = (cpu_seconds(server.pid) - cpu0) / (time.monotonic() - t0)
            print(f"fd limit: {IDLE_CLIENTS} idle clients under "
                  f"RLIMIT_NOFILE {NOFILE}: server used {share:.3f} "
                  f"CPU-s/s over {WINDOW_S:.0f} s")
            if share >= MAX_CPU_SHARE:
                raise RuntimeError(f"server spins at the descriptor limit: "
                                   f"{share:.3f} CPU-s/s >= {MAX_CPU_SHARE}")

            for sock in clients[:CLOSED_CLIENTS]:
                sock.close()
            del clients[:CLOSED_CLIENTS]
            fresh = connect(path)
            clients.append(fresh)
            reader = fresh.makefile("rb")
            doc = request(fresh, reader, "session")
            if doc.get("ok") is not True or doc.get("request") != "session":
                raise RuntimeError(f"unexpected answer to a new client: {doc}")
            print("fd limit: a new client was answered after "
                  f"{CLOSED_CLIENTS} clients closed")

            request(fresh, reader, "shutdown")
            code = server.wait(timeout=15)
            if code != 0:
                raise RuntimeError(f"server exited with {code}")
        finally:
            for sock in clients:
                sock.close()
            if server.poll() is None:
                server.kill()
                server.wait()
    print("serve_fd_limit: OK")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as e:  # the exit code is the ctest verdict
        print(f"serve_fd_limit: FAIL: {e}", file=sys.stderr)
        sys.exit(1)
