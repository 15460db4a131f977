#!/usr/bin/env python3
"""Phase-one replication run: commits, cache replay, tampered-MAC check."""

import argparse
import sys
import time

from logicnode.protocols.zyzzyva import ZyzzyvaSim, tamper_mac_hook


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--requests", type=int, default=100)
    ap.add_argument("--batch", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    t0 = time.monotonic()
    sim = ZyzzyvaSim(batch_size=args.batch, seed=args.seed)
    reqs = sim.run_requests(args.requests)
    wall = time.monotonic() - t0
    committed = sum(st.committed for st in sim.statuses(reqs))
    print("batch=%d committed=%d/%d compute_calls=%d wall=%.2fs (%.0f req/s informational)"
          % (args.batch, committed, len(reqs), sim.compute_calls, wall,
             len(reqs) / wall if wall else 0))

    before = sim.compute_calls
    batch = sim.recorded_batches("r2")[0]
    sim.replay_batch("r2", batch)
    print("replay recompute delta=%d" % (sim.compute_calls - before))

    tampered = ZyzzyvaSim(batch_size=args.batch, seed=args.seed)
    tampered.net.links.set_corrupt("r2", "c1", tamper_mac_hook)
    treqs = tampered.run_requests(min(args.requests, 10))
    blocked = sum(not st.committed for st in tampered.statuses(treqs))
    print("tampered replies: %d/%d commits blocked" % (blocked, len(treqs)))
    ok = (committed == len(reqs) and sim.compute_calls == before
          and blocked == len(treqs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
