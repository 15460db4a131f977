"""Checks made apart from the program under test.

Every function here takes plain Python values (addresses, integers, texts)
and recomputes what the protocol must have produced: ring identifiers from
SHA-256, ring successors from a sorted list, commit quorums from the raw
reply facts, pong pads from the pings that were sent.  Each returns a list
of error strings; an empty list means the outputs are correct.
"""

from __future__ import annotations

import hashlib
import math
import re
from bisect import bisect_left
from collections import Counter

_PLAIN_ATOM = re.compile(r"^[a-z][A-Za-z0-9_]*$")


def atom_text(name: str) -> str:
    """Canonical text of an atom: bare when it is a plain name, else quoted."""
    if _PLAIN_ATOM.match(name):
        return name
    return "'%s'" % name.replace("\\", "\\\\").replace("'", "\\'")


def ring_id(address: str, ring_size: int) -> int:
    digest = hashlib.sha256(atom_text(address).encode("utf-8")).digest()
    return int.from_bytes(digest, "big") % (1 << 63) % ring_size


def successor(key: int, sorted_ids: list) -> int:
    i = bisect_left(sorted_ids, key)
    return sorted_ids[i] if i < len(sorted_ids) else sorted_ids[0]


def check_ring(ids: dict, succ: dict, pred: dict) -> list:
    """ids: address -> ring id; succ/pred: address -> list of (address, id)."""
    order = sorted(ids, key=ids.get)
    errors = []
    for i, addr in enumerate(order):
        want_s = order[(i + 1) % len(order)]
        want_p = order[i - 1]
        if succ.get(addr) != [(want_s, ids[want_s])]:
            errors.append("%s: succ %r, expected %s" % (addr, succ.get(addr), want_s))
        if pred.get(addr) != [(want_p, ids[want_p])]:
            errors.append("%s: pred %r, expected %s" % (addr, pred.get(addr), want_p))
    return errors


def check_lookups(lookups: list, answers: list, ids: dict) -> list:
    """lookups: (tag, key, start); answers: (tag, owner address, owner id, hops).

    Each lookup is answered exactly once, by the successor of its key on the
    sorted id ring, within ceil(log2 n) hops.
    """
    sorted_ids = sorted(ids.values())
    addr_of = {v: k for k, v in ids.items()}
    max_hops = math.ceil(math.log2(len(ids)))
    by_tag: dict = {}
    for ans in answers:
        by_tag.setdefault(ans[0], []).append(ans)
    errors = []
    for tag, key, _start in lookups:
        got = by_tag.pop(tag, [])
        if len(got) != 1:
            errors.append("lookup %d answered %d times" % (tag, len(got)))
            continue
        _, owner, owner_id, hops = got[0]
        want = successor(key, sorted_ids)
        if owner_id != want or owner != addr_of[want]:
            errors.append("lookup %d of key %d: owner %s/%d, expected %s/%d"
                          % (tag, key, owner, owner_id, addr_of[want], want))
        elif hops > max_hops:
            errors.append("lookup %d took %d hops > %d" % (tag, hops, max_hops))
    for tag in by_tag:
        errors.append("answer for unknown lookup %r" % (tag,))
    return errors


def check_replication(requests: list, replies: list, replicas: list,
                      compute_calls: int) -> list:
    """replies: (replica, sequence key text, request text, output text).

    Every request is committed by all replicas with one identical sequence
    key, its output is the request itself (echo), sequence keys differ
    between requests, and each replica computed each request once.
    """
    by_req: dict = {}
    for src, seq, req, out in replies:
        by_req.setdefault(req, []).append((src, seq, out))
    errors = []
    seq_of: dict = {}
    for req in requests:
        got = by_req.pop(req, [])
        senders = sorted(src for src, _, _ in got)
        if senders != sorted(replicas):
            errors.append("%s: replies from %s, expected one from each of %s"
                          % (req, senders, sorted(replicas)))
            continue
        seqs = {seq for _, seq, _ in got}
        if len(seqs) != 1:
            errors.append("%s: sequence keys differ: %s" % (req, sorted(seqs)))
            continue
        outs = {out for _, _, out in got}
        if outs != {req}:
            errors.append("%s: output %s differs from the request" % (req, sorted(outs)))
            continue
        seq_of[req] = seqs.pop()
    for seq, n in Counter(seq_of.values()).items():
        if n > 1:
            errors.append("sequence key %s committed for %d requests" % (seq, n))
    for req in by_req:
        errors.append("reply for unknown request %s" % req)
    if compute_calls != len(replicas) * len(requests):
        errors.append("compute_output ran %d times, expected %d"
                      % (compute_calls, len(replicas) * len(requests)))
    return errors


def check_pongs(sent: list, received: list) -> list:
    """Pongs come back over one connection in order: pong i carries ping i's pad."""
    errors = []
    for i, (want, got) in enumerate(zip(sent, received)):
        if want != got:
            errors.append("pong %d carries pad %r, expected %r" % (i, got, want))
            break
    if len(received) != len(sent):
        errors.append("%d pongs received for %d pings" % (len(received), len(sent)))
    return errors
