"""Traced ping-pong server: `logicnode run pingpong_server` with spans.

    PYTHONPATH=src python3 perfbench/pp_host.py --bind 127.0.0.1:PORT [--spans FILE]

Installs the benchmark's wrappers, then starts the node on the same
start_node and TcpTransport path the CLI uses.  On SIGINT it stops the
transport, writes its spans to FILE and its counts and node metrics to
FILE with the suffix .json.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path

import tracing


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--bind", required=True)
    p.add_argument("--spans")
    args = p.parse_args(argv)
    tracer = tracing.install(tracing.Tracer())
    tracer.phase = "server"
    from logicnode.protocols import load_asset
    from logicnode.runtime import NodeConfig, start_node
    from logicnode.tcp import TcpTransport

    transport = TcpTransport(args.bind)
    config = NodeConfig(address=args.bind, program=load_asset("pingpong_server"))
    node = start_node(config, transport)
    # the loop runs in its own thread so that SIGINT never lands inside a span
    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    loop = transport.start()
    try:
        stop.wait()
    finally:
        transport.stop()
        loop.join(timeout=10)
        tracer.uninstall()
        if args.spans:
            tracer.write_spans(args.spans)
            Path(args.spans).with_suffix(".json").write_text(json.dumps({
                "counts": {k[1]: v for k, v in tracer.counts.items()},
                "db_clauses": sum(len(b) for b in node.db.preds.values()),
                "delivered": node.metrics.delivered,
                "sends": node.metrics.sends,
            }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
