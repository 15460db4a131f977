"""Smoke runs of the experiment scripts the README lists, at small sizes, so
that an API change that breaks one of them fails here, and the pinned output
of `reader_digest.py`, so that a change to what the reader makes of its
corpus fails here too, a parse of every Python file at the oldest Python
that `pyproject.toml` admits, and one tiny run of `bench_trajectory.py`."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# (script and arguments, a regex for its summary line)
RUNS = [
    ("chord_static.py --sizes 8 --lookups 20",
     r"^n=\s*8 lookups=20 answered=20 agree=20 max_hops=\d+ bound=3 ok$"),
    ("chord_churn.py --nodes 8 --duration-ms 20000 --mean-session-ms 60000",
     r"^kills=\d+ rejoins=\d+ lookups=\d+ answered=\d+ consistency=[01]\.\d{4}$"),
    ("spanning_tree_sweep.py --graphs 2 --max-nodes 12",
     r"^2/2 graphs valid$"),
    ("zyzzyva_phase1.py --requests 4",
     r"^tampered replies: 4/4 commits blocked$"),
]


@pytest.mark.parametrize("command, summary", RUNS, ids=[r[0].split()[0] for r in RUNS])
def test_experiment_script_runs(command, summary):
    script, *args = command.split()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert re.search(summary, out.stdout, re.MULTILINE), out.stdout


# what scripts/reader_digest.py prints; a change that alters what the reader
# makes of an input on purpose updates these lines and says why
PINNED_READER_OUTCOMES = """\
outcomes 39cdd44953e62bc4d2761e2587ef065558417c04900a28f6dc9f62c408b08f01
canonical parse_term    read         20000
programs  parse_program read         6
random    parse_program read         22607
random    parse_program reader_error 277393
random    parse_term    read         21782
random    parse_term    reader_error 278218
"""


def test_reader_digest_prints_the_pinned_outcomes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "reader_digest.py")],
                         env=env, capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout == PINNED_READER_OUTCOMES


def test_every_python_file_parses_as_python_3_10():
    # `requires-python` is 3.10: no file may use later syntax, such as
    # `except*`, a `type` statement or PEP 695 type parameters
    files = [p for d in ("src", "tests", "scripts", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(files) > 30
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_bench_trajectory_records_a_smoke_run(tmp_path):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("not a git checkout with a commit")
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_trajectory.py"), "HEAD",
                    "--pairs", "1", "--seconds", "0.01", "--workloads", "replication",
                    "--out", str(out)], capture_output=True, timeout=120, check=True)
    got = json.loads(out.read_text())
    assert len(got["commits"]) == 1 and got["cpu_count"] == os.cpu_count()
    (result,) = got["results"]
    (run,) = result["workloads"]["replication"]["runs"]
    assert run["correct"] is True and run["failed"] == 0, run
    rate = result["workloads"]["replication"]["metrics"]["req_per_s"]
    assert rate["q1"] <= rate["median"] <= rate["q3"] and rate["values"] == [rate["median"]]
