"""Loopback TCP ping-pong against a node hosted in its own process.

The server is `python -m logicnode.cli run pingpong_server` (untraced) or
`pp_host.py` (traced: the same start_node and TcpTransport path with the
benchmark's wrappers installed).  The client is the benchmark's own: it
frames pings itself (README wire format), sends them over one connection
and reads the pongs the server sends back over the one connection it opens
to the client's listener, so pongs arrive in the order of their pings.

Each round is a closed-loop phase (a fixed window of pings in flight, a
fixed number of pings) followed by an open-loop phase (a fixed number of
pings sent on a fixed schedule, each timed from when it was due).
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from pathlib import Path
from statistics import median, quantiles

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CLOSED_PINGS = 10_000    # per round
WINDOW = 128             # closed loop: pings in flight, as in bench.run_client
OPEN_RATE = 1000         # open loop: pings per second
OPEN_PINGS = 1000        # per round
SERVER_STARTS = 7        # set-ups timed per run; the last server takes the load
IO_TIMEOUT_S = 10.0
START_TIMEOUT_S = 60.0

now = time.monotonic


def frame(sender: bytes, payload: bytes) -> bytes:
    """An unsigned frame: length, flags, sender length, sender, payload."""
    body = b"\x00" + struct.pack(">H", len(sender)) + sender + payload
    return struct.pack(">I", len(body)) + body


def ping_frames(sender: str, pads: list) -> list:
    quoted = "'%s'" % sender
    return [frame(sender.encode(), ("ping(%s,%s)" % (quoted, p)).encode())
            for p in pads]


def make_pads(rng: random.Random, n: int) -> list:
    return ["p%08d" % v for v in rng.sample(range(10 ** 8), n)]


class PongReader:
    """Decodes frames from one connection; yields the pad of each pong."""

    def __init__(self, conn: socket.socket):
        self.conn = conn
        self.buf = bytearray()

    def read(self) -> list:
        data = self.conn.recv(65536)
        if not data:
            raise ConnectionError("server closed its connection")
        buf = self.buf
        buf += data
        pads, pos = [], 0
        while len(buf) - pos >= 4:
            end = pos + 4 + int.from_bytes(buf[pos:pos + 4], "big")
            if end > len(buf):
                break
            body = bytes(buf[pos + 4:end])
            pos = end
            p = 3 + int.from_bytes(body[1:3], "big")
            if body[0] & 1:
                p += 3 + int.from_bytes(body[p + 1:p + 3], "big")
            payload = body[p:].decode("utf-8", "replace")
            ok = payload.startswith("pong(") and payload.endswith(")")
            pads.append(payload[5:-1] if ok else payload)
        del buf[:pos]
        return pads


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _cpu_s(pid: int) -> float:
    """User plus system CPU time of the process's live threads, in ns steps."""
    total = 0
    for task in os.listdir("/proc/%d/task" % pid):
        try:
            with open("/proc/%d/task/%s/schedstat" % (pid, task)) as fh:
                total += int(fh.read().split()[0])
        except FileNotFoundError:
            pass  # the thread ended meanwhile
    return total / 1e9


def _peak_rss_mb(pid: int) -> float:
    with open("/proc/%d/status" % pid) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM for pid %d" % pid)


class Server:
    """One server process; `start` returns the seconds until it answered."""

    def __init__(self, listener: socket.socket, traced: bool, log_path: Path,
                 spans_path=None):
        self.listener = listener
        self.address = "127.0.0.1:%d" % _free_port()
        if traced:
            cmd = [sys.executable, str(HERE / "pp_host.py"), "--bind", self.address]
            if spans_path:
                cmd += ["--spans", str(spans_path)]
        else:
            cmd = [sys.executable, "-m", "logicnode.cli", "run", "pingpong_server",
                   "--bind", self.address]
        self.cmd = cmd
        self.log_path = log_path
        self.proc = None
        self.out = self.conn = self.reader = None

    def start(self, client: str) -> float:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        t0 = now()
        with open(self.log_path, "wb") as log:
            # a process started in the background inherits SIGINT ignored,
            # and Python then raises no KeyboardInterrupt: `stop` would wait
            # out its timeout for every server
            self.proc = subprocess.Popen(
                self.cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        host, port = self.address.rsplit(":", 1)
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited with %d; see %s"
                                   % (self.proc.returncode, self.log_path))
            if now() - t0 > START_TIMEOUT_S:
                raise RuntimeError("server did not listen within %gs" % START_TIMEOUT_S)
            try:
                self.out = socket.create_connection((host, int(port)), timeout=1.0)
                break
            except OSError:
                time.sleep(0.002)
        self.out.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.out.sendall(ping_frames(client, ["ready"])[0])
        self.listener.settimeout(START_TIMEOUT_S)
        self.conn, _ = self.listener.accept()
        self.conn.settimeout(IO_TIMEOUT_S)
        self.reader = PongReader(self.conn)
        pads = []
        while not pads:  # one recv may hold part of a frame
            pads = self.reader.read()
        elapsed = now() - t0
        if pads != ["ready"]:
            raise RuntimeError("server answered %r to the first ping" % pads)
        return elapsed

    def stop(self) -> None:
        for s in (self.out, self.conn):
            if s is not None:
                s.close()
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def closed_loop(server: Server, frames: list) -> tuple:
    """(pads received, wall seconds): WINDOW pings in flight until all answered."""
    received = []
    t0 = now()
    server.out.sendall(b"".join(frames[:WINDOW]))
    sent = WINDOW
    try:
        while len(received) < len(frames):
            got = server.reader.read()
            received += got
            k = min(len(got), len(frames) - sent)
            if k > 0:
                server.out.sendall(b"".join(frames[sent:sent + k]))
                sent += k
    except (OSError, ConnectionError):
        pass  # missing pongs are counted by the check
    return received, now() - t0


def open_loop(server: Server, frames: list) -> tuple:
    """(pads, round trips from due time, lateness of each send), in seconds."""
    n = len(frames)
    start = now() + 0.01
    due = [start + i / OPEN_RATE for i in range(n)]
    late = [0.0] * n
    failure = []

    def send():
        try:
            for i in range(n):
                t = now()
                if t < due[i]:
                    time.sleep(due[i] - t)
                    t = now()
                late[i] = t - due[i]
                server.out.sendall(frames[i])
        except OSError as e:
            failure.append(e)

    sender = threading.Thread(target=send)
    sender.start()
    pads, rtts = [], []
    try:
        while len(pads) < n and not failure:
            got = server.reader.read()
            t = now()
            rtts += [t - due[len(pads) + i] for i in range(len(got))]
            pads += got
    except (OSError, ConnectionError):
        pass
    finally:
        sender.join()
    return pads, rtts, late


def run(seed: int, seconds: float, traced: bool, spans_path: Path) -> dict:
    rng = random.Random(seed)
    closed_pads = make_pads(rng, CLOSED_PINGS)
    open_pads = make_pads(rng, OPEN_PINGS)
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    client = "127.0.0.1:%d" % listener.getsockname()[1]
    closed_frames = ping_frames(client, closed_pads)
    open_frames = ping_frames(client, open_pads)
    log = spans_path.with_name(spans_path.stem.replace("spans", "server") + ".log")

    setups, server = [], None
    try:
        for k in range(SERVER_STARTS):
            last = k == SERVER_STARTS - 1
            server = Server(listener, traced, log, spans_path if last else None)
            try:
                setups.append(server.start(client))
            finally:
                if not last:
                    server.stop()
        rounds = []
        peak_rss = None  # read after the first round, as on the simulated workloads
        timed = 0.0  # seconds spent in timed phases so far
        while timed < seconds:
            cpu0 = _cpu_s(server.proc.pid)
            w0 = time.monotonic_ns()
            got, wall = closed_loop(server, closed_frames)
            w1 = time.monotonic_ns()
            cpu = _cpu_s(server.proc.pid) - cpu0
            o0 = time.monotonic_ns()
            open_got, rtts, late = open_loop(server, open_frames)
            o1 = time.monotonic_ns()
            timed += (w1 - w0 + o1 - o0) / 1e9
            rounds.append({
                "closed": (w0, w1), "open": (o0, o1), "wall": wall,
                "req_per_s": len(got) / wall,
                "cpu_us_per_req": cpu / max(1, len(got)) * 1e6,
                "errors": (checks.check_pongs(closed_pads, got)
                           + checks.check_pongs(open_pads, open_got)),
                "failed": (len(closed_pads) - sum(a == b for a, b in zip(closed_pads, got))
                           + len(open_pads) - sum(a == b for a, b in zip(open_pads, open_got))),
                "rtts": rtts, "late": late,
            })
            if peak_rss is None:
                peak_rss = _peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()
        listener.close()

    rtts = sorted(r for rd in rounds for r in rd["rtts"])
    late = [x for rd in rounds for x in rd["late"]]
    p99 = quantiles(rtts, n=100)[98] if len(rtts) >= 1000 else None
    res = {
        "errors": [e for rd in rounds for e in rd["errors"]],
        "attempted": len(rounds) * (CLOSED_PINGS + OPEN_PINGS),
        "failed": sum(rd["failed"] for rd in rounds),
        "metrics": {
            "setup_s": median(setups),
            "req_per_s": median(rd["req_per_s"] for rd in rounds),
            "cpu_us_per_req": median(rd["cpu_us_per_req"] for rd in rounds),
            "peak_rss_mb": peak_rss,
        },
        "info": {
            "rounds": len(rounds), "setups_s": [round(s, 4) for s in setups],
            "closed_wall_s": [round(rd["wall"], 4) for rd in rounds],
            "open_loop_rtt_samples": len(rtts),
            "open_loop_rtt_p50_us": round(median(rtts) * 1e6, 1),
            "open_loop_rtt_p99_us": None if p99 is None else round(p99 * 1e6, 1),
            "open_loop_late_p50_us": round(median(late) * 1e6, 1),
            "open_loop_late_max_us": round(max(late) * 1e6, 1),
        },
    }
    if traced:
        res["layer_basis"] = _layer_basis(spans_path, rounds)
    return res


def _layer_basis(spans_path: Path, rounds: list) -> dict:
    """What the server process reported about itself at exit."""
    with open(spans_path.with_suffix(".json")) as fh:
        server = json.load(fh)
    delivered = server["delivered"]
    counts = server["counts"]
    pred_calls = counts.get("engine.clauses_for", 0)
    return {
        "windows": sorted([(*rd["closed"], "timed") for rd in rounds]
                          + [(*rd["open"], "open") for rd in rounds]),
        "setup_events": 0, "setups": 1, "rounds": len(rounds),
        # counts cover the server's whole life; every ping is the same handler
        "known": {
            "engine.pred_calls_per_event": pred_calls / delivered,
            "engine.clauses_tried_per_call": (counts.get("engine.rename", 0) / pred_calls
                                              if pred_calls else 0.0),
            "engine.unify_per_event": counts.get("engine.unify", 0) / delivered,
            "engine.db_clauses": server["db_clauses"],
            "runtime.sends_per_event": server["sends"] / delivered,
        },
    }


def server_spans(spans_path: Path, windows: list):
    """The server's spans, each put in the client's phase it started in."""
    starts = [w[0] for w in windows]
    for s in tracing.read_spans(spans_path):
        i = bisect_right(starts, s[tracing.START]) - 1
        phase = windows[i][2] if i >= 0 and s[tracing.START] <= windows[i][1] else "setup"
        yield s[:tracing.PHASE] + (phase,) + s[tracing.PHASE + 1:]
