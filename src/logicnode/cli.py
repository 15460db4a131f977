"""Command line entry points.

Exit codes: 0 success, 1 assertion failure, 2 usage or parse error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import math
import socket
import sys
from pathlib import Path

from .auth import load_key_file, AuthError
from .engine import EngineError
from .protocols import load_program
from .reader import ReaderError, parse_program, parse_term, serialize
from .runtime import POLICIES, LinkError, NodeConfig, start_node
from .scenario import ScenarioError, load_scenario
from .tcp import TcpTransport, split_hostport
from .terms import Atom, Int, Struct
from .wire import Envelope, FrameError, StreamDecoder, encode_envelope

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

CSV_SCHEMA = "logicnode-csv-1"


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["schema", CSV_SCHEMA])
        w.writerow(header)
        for row in rows:
            w.writerow(row)


# --- run ---


def cmd_run(args) -> int:
    try:
        program = load_program(args.program)
        facts = (parse_program(Path(args.facts).read_text(encoding="utf-8")).clauses
                 if args.facts else [])
        keystore = load_key_file(args.keys) if args.keys else None
    except (ReaderError, AuthError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    try:
        transport = TcpTransport(args.bind)
    except LinkError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_RUNTIME
    config = NodeConfig(address=args.bind, program=program, facts=facts,
                        policy=args.policy, keystore=keystore,
                        debug_endpoint=not args.no_debug)
    try:
        start_node(config, transport)  # a clause for a builtin is refused here
        print("listening on %s" % args.bind, flush=True)
        transport.run()
    except EngineError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        pass
    finally:
        transport.stop()
    return EXIT_OK


# --- sim ---


def cmd_sim(args) -> int:
    try:
        report = load_scenario(args.scenario).run(seed=args.seed)
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except ScenarioError as e:
        print("scenario error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        print("runtime error: %s" % e, file=sys.stderr)
        return EXIT_RUNTIME
    if args.trace:
        report.net.write_trace(args.trace)
    if args.metrics:
        _write_csv(args.metrics, ["counter", "value"],
                   [(k, report.metrics[k]) for k in sorted(report.metrics)])
    for line in report.failures:
        print("FAIL %s" % line)
    if report.failures:
        return EXIT_ASSERTION
    print("ok (%d events)" % len(report.net.trace))
    return EXIT_OK


# --- bench ---


def cmd_bench(args) -> int:
    from . import bench
    try:
        rep = bench.run_client(args.client, args.bind, args.duration, args.window,
                               args.conns)
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_RUNTIME
    dur = rep.duration_s
    print("conns=%d duration=%.2fs sent=%d received=%d errors=%d req/s=%.0f"
          % (args.conns, dur, rep.client_sent, rep.client_received, rep.errors,
             rep.client_received / dur if dur else 0.0))
    return EXIT_OK if rep.errors == 0 else EXIT_RUNTIME


# --- chord experiment ---


def cmd_experiment_chord(args) -> int:
    from .protocols import chord
    if args.nodes < 2:
        print("error: need --nodes >= 2", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = chord.static_experiment(args.nodes, args.lookups, seed=args.seed).results
    answered = [r for r in results if r.answered]
    lat = sorted(r.latency_ms for r in answered if r.latency_ms is not None)
    cdf = [(v, (i + 1) / len(lat)) for i, v in enumerate(lat)]
    _write_csv(out / "latency_cdf.csv", ["latency_ms", "cum_fraction"],
               [("%g" % v, "%.6f" % f) for v, f in cdf])
    hist: dict = {}
    for r in answered:
        hist[r.hops] = hist.get(r.hops, 0) + 1
    _write_csv(out / "hops.csv", ["hops", "count"],
               [(h, hist[h]) for h in sorted(hist)])
    consistency = (sum(1 for r in results if r.consistent) / len(results)
                   if results else 1.0)
    rows = [("static", "%.6f" % consistency)]
    if args.churn:
        parts = args.churn.split(":")
        if len(parts) not in (2, 3):
            print("error: --churn MEAN_SESSION_MS:DURATION_MS[:DOWNTIME_MS]",
                  file=sys.stderr)
            return EXIT_USAGE
        session = float(parts[0])
        duration = float(parts[1])
        downtime = float(parts[2]) if len(parts) == 3 else 20000.0
        rep = chord.churn_experiment(args.nodes, args.seed, session, duration,
                                     downtime_ms=downtime)
        rows.append(("churn", "%.6f" % rep.consistency))
    _write_csv(out / "consistency.csv", ["mode", "consistency"], rows)
    bound = math.ceil(math.log2(args.nodes))
    print("nodes=%d lookups=%d answered=%d consistency=%.4f max_hops=%s bound=%d"
          % (args.nodes, len(results), len(answered), consistency,
             max((r.hops for r in answered), default="-"), bound))
    return EXIT_OK


# --- inject / dump ---


def _send_frame(address: str, frame: bytes) -> socket.socket:
    host, port = split_hostport(address)
    sock = socket.create_connection((host, port), timeout=5.0)
    sock.sendall(frame)
    return sock


def cmd_inject(args) -> int:
    try:
        term = parse_term(args.term)
    except ReaderError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    payload = serialize(term)
    sender = args.signed_as or args.sender
    mac = None
    if args.signed_as:
        if not args.keys:
            print("error: --signed-as needs --keys", file=sys.stderr)
            return EXIT_USAGE
        try:
            ks = load_key_file(args.keys)
            mac = ks.sign(args.signed_as, args.addr,
                          args.signed_as.encode("utf-8"), payload)
        except (AuthError, OSError) as e:
            print("error: %s" % e, file=sys.stderr)
            return EXIT_USAGE
    env = Envelope(sender, payload, mac, "network")
    try:
        sock = _send_frame(args.addr, encode_envelope(env))
        sock.close()
    except OSError as e:
        print("error: cannot reach %s: %s" % (args.addr, e), file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_dump(args) -> int:
    if "/" not in args.indicator:
        print("error: indicator must be name/arity", file=sys.stderr)
        return EXIT_USAGE
    name, _, arity_s = args.indicator.rpartition("/")
    try:
        arity = int(arity_s)
    except ValueError:
        print("error: bad arity %r" % arity_s, file=sys.stderr)
        return EXIT_USAGE
    req = Struct("$dump", (Atom(name), Int(arity)))
    env = Envelope("dump-client", serialize(req), None, "network")
    try:
        sock = _send_frame(args.addr, encode_envelope(env))
    except OSError as e:
        print("error: cannot reach %s: %s" % (args.addr, e), file=sys.stderr)
        return EXIT_RUNTIME
    sock.settimeout(5.0)
    decoder = StreamDecoder()
    try:
        while True:
            data = sock.recv(65536)
            if not data:
                break
            envs = decoder.feed(data)
            if envs:
                text = envs[0].payload.decode("utf-8")
                if text:
                    print(text)
                return EXIT_OK
    except (OSError, FrameError, UnicodeDecodeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        sock.close()
    print("error: no reply", file=sys.stderr)
    return EXIT_RUNTIME


# --- parser ---


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="logicnode")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="run a node over TCP")
    r.add_argument("program", help="program file or builtin asset name")
    r.add_argument("--bind", required=True, help="host:port to listen on")
    r.add_argument("--facts", help="facts file")
    r.add_argument("--keys", help="pairwise key file")
    r.add_argument("--policy", default="fail", choices=POLICIES)
    r.add_argument("--no-debug", action="store_true",
                   help="disable the facts dump endpoint")
    r.set_defaults(fn=cmd_run)

    s = sub.add_parser("sim", help="run a scenario file in the simulator")
    s.add_argument("scenario")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--trace", help="write the event trace here")
    s.add_argument("--metrics", help="write counters as CSV here")
    s.set_defaults(fn=cmd_sim)

    b = sub.add_parser("bench-pingpong", help="request/response throughput bench")
    b.add_argument("--client", required=True, help="address of `run pingpong_server`")
    b.add_argument("--bind", required=True, help="client reply address (host:port base)")
    b.add_argument("--conns", type=int, default=1)
    b.add_argument("--duration", type=float, default=10.0)
    b.add_argument("--window", type=int, default=128)
    b.set_defaults(fn=cmd_bench)

    c = sub.add_parser("experiment-chord", help="ring lookup experiment, CSV output")
    c.add_argument("--nodes", type=int, required=True)
    c.add_argument("--lookups", type=int, default=1000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--churn", help="MEAN_SESSION_MS:DURATION_MS[:DOWNTIME_MS]")
    c.add_argument("--out", default="chord-out")
    c.set_defaults(fn=cmd_experiment_chord)

    i = sub.add_parser("inject", help="send one term to a running node")
    i.add_argument("addr")
    i.add_argument("term")
    i.add_argument("--sender", default="injector")
    i.add_argument("--signed-as", dest="signed_as")
    i.add_argument("--keys")
    i.set_defaults(fn=cmd_inject)

    d = sub.add_parser("dump", help="fetch a fact listing from a running node")
    d.add_argument("addr")
    d.add_argument("indicator", help="name/arity")
    d.set_defaults(fn=cmd_dump)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    addresses = [vars(args).get(k) for k in ("bind", "client", "addr")]
    try:  # each host:port argument, before the command runs
        for address in filter(None, addresses):
            split_hostport(address)
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
