import pytest

from logicnode.auth import full_mesh_keystore, write_key_file
from logicnode.cli import main
from logicnode.protocols import load_program
from logicnode.scenario import Scenario, ScenarioError, load_scenario

PING_PROG = """\
:- event ping/1.
:- dynamic seen/1.
ping(X) :- assert(seen(X)).
"""

SIGNED_PROG = """\
:- event hello/1.
:- dynamic greeted/2, anon/1.
hello(X) :- signed_by(S), assert(greeted(S, X)).
hello(X) :- assert(anon(X)).
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "ping.dahl").write_text(PING_PROG)
    (tmp_path / "signed.dahl").write_text(SIGNED_PROG)
    write_key_file(str(tmp_path / "keys.txt"),
                   full_mesh_keystore(["n1", "n2", "c1"], seed=b"t"))
    return tmp_path


def run_text(workdir, text, seed=None):
    return Scenario(text, base_dir=str(workdir)).run(seed=seed)


def test_basic_scenario_passes(workdir):
    report = run_text(workdir, """
seed 3
program p ping.dahl
node n1 p
inject 0 n1 ping(a)
run_to_idle
expect n1 seen(a)
expect_absent n1 seen(b)
metric delivered == 1
""")
    assert report.ok
    assert report.metrics["delivered"] == 1


def test_failed_expectations_are_collected(workdir):
    report = run_text(workdir, """
program p ping.dahl
node n1 p
inject 0 n1 ping(a)
run_to_idle
expect n1 seen(zzz)
metric delivered == 7
""")
    assert not report.ok
    assert len(report.failures) == 2
    assert report.failures[0].startswith("line 6:")
    assert report.failures[1].startswith("line 7:")


def test_fact_and_policy_statements(workdir):
    report = run_text(workdir, """
program p ping.dahl
node n1 p
fact n1 seen(preloaded)
policy n1 ignore
run_to_idle
expect n1 seen(preloaded)
""")
    assert report.ok


def test_inject_signed(workdir):
    report = run_text(workdir, """
program p signed.dahl
node n1 p
keys keys.txt
inject_signed 0 n1 n2 hello(hi)
run_to_idle
expect n1 greeted(n2, hi)
expect_absent n1 anon(_)
""")
    assert report.ok


def test_unsigned_inject_fails_signature(workdir):
    report = run_text(workdir, """
program p signed.dahl
node n1 p
keys keys.txt
inject 0 n1 hello(hi)
run_to_idle
expect n1 anon(hi)
""")
    assert report.ok


def test_drop_and_latency_statements(workdir):
    report = run_text(workdir, """
seed 1
program p ping.dahl
node n1 p
node n2 p
latency default 5
drop n1 n2 0
inject 0 n1 ping(a)
run_to_idle
expect n1 seen(a)
""")
    assert report.ok


def test_parse_errors_carry_line_numbers(workdir):
    with pytest.raises(ScenarioError) as e:
        Scenario("seed 1\nfrobnicate x\n")
    assert e.value.line_no == 2
    with pytest.raises(ScenarioError) as e:
        Scenario("inject 0 n1 bad(term\n")
    assert e.value.line_no == 1
    with pytest.raises(ScenarioError) as e:
        Scenario("node n1\n")
    assert e.value.line_no == 1
    with pytest.raises(ScenarioError) as e:
        Scenario("metric delivered ~= 3\n")
    assert e.value.line_no == 1


def test_runtime_reference_errors(workdir):
    with pytest.raises(ScenarioError):
        run_text(workdir, "program p ping.dahl\nnode n1 nosuchprog\n")
    with pytest.raises(ScenarioError):
        run_text(workdir, "program p missing.dahl\n")
    with pytest.raises(ScenarioError):
        run_text(workdir, "program p ping.dahl\nnode n1 p\nfact n9 f(a)\n")
    with pytest.raises(ScenarioError):
        run_text(workdir, "program p ping.dahl\nnode n1 p\nnode n1 p\n")


def test_seed_override(workdir):
    s = Scenario("seed 5\nprogram p ping.dahl\nnode n1 p\n", base_dir=str(workdir))
    assert s.run().net.seed == 5
    assert s.run(seed=9).net.seed == 9


def test_asset_programs_resolve():
    s = Scenario("program t spanning_tree\nnode n1 t\n")
    assert s.run().ok


def test_scenarios_and_the_cli_find_a_program_by_one_rule(workdir, monkeypatch, capsys):
    # a file, relative to the scenario's directory or the working directory,
    # then a bundled asset
    (workdir / "pinger").write_text(PING_PROG)
    assert run_text(workdir, "program p pinger\nnode n1 p\n").ok
    with pytest.raises(ScenarioError) as err:
        run_text(workdir, "program p ping.dahl\nprogram q nosuch\n")
    assert err.value.line_no == 2
    assert str(err.value) == "line 2: no program file or asset named 'nosuch'"
    monkeypatch.chdir(workdir)
    assert len(load_program("pinger").clauses) == 1
    assert main(["run", "nosuch", "--bind", "127.0.0.1:0"]) == 2
    assert capsys.readouterr().err == "error: no program file or asset named 'nosuch'\n"


def write_scenario(workdir, text) -> str:
    p = workdir / "scn.txt"
    p.write_text(text)
    return str(p)


def test_cli_sim_exit_codes(workdir, capsys):
    good = write_scenario(workdir, """
program p ping.dahl
node n1 p
inject 0 n1 ping(a)
run_to_idle
expect n1 seen(a)
""")
    assert main(["sim", good]) == 0
    assert "ok (" in capsys.readouterr().out

    failing = write_scenario(workdir, """
program p ping.dahl
node n1 p
run_to_idle
expect n1 seen(a)
""")
    assert main(["sim", failing]) == 1
    assert "FAIL line 5:" in capsys.readouterr().out

    bad = write_scenario(workdir, "frobnicate\n")
    assert main(["sim", bad]) == 2
    assert main(["sim", str(workdir / "nofile.txt")]) == 2
    assert main(["nosuchcommand"]) == 2


def test_cli_sim_trace_and_metrics_outputs(workdir):
    scn = write_scenario(workdir, """
seed 4
program p ping.dahl
node n1 p
inject 0 n1 ping(a)
run_to_idle
""")
    trace1 = str(workdir / "t1.txt")
    trace2 = str(workdir / "t2.txt")
    metrics = str(workdir / "m.csv")
    assert main(["sim", scn, "--trace", trace1, "--metrics", metrics]) == 0
    assert main(["sim", scn, "--trace", trace2]) == 0
    t1 = (workdir / "t1.txt").read_text()
    assert t1 == (workdir / "t2.txt").read_text()  # deterministic replay
    assert "node=n1" in t1
    lines = (workdir / "m.csv").read_text().splitlines()
    assert lines[0] == "schema,logicnode-csv-1"
    assert "delivered,1" in lines


# a time or latency that would run simulated time backwards, and its line
BAD_TIMES = [
    ("seed 1\nlatency default -50\n", 2),
    ("latency default nan\n", 1),
    ("latency a b nan\n", 1),
    ("latency a b -1\n", 1),
    ("drop a b 1.5\n", 1),
    ("inject nan n1 ping(a)\n", 1),
    ("inject inf n1 ping(a)\n", 1),
    ("run_until 10\ninject 5 n1 ping(a)\n", 2),
    ("run_until nan\n", 1),
    ("run_until 10\nrun_until 5\n", 2),
]


@pytest.mark.parametrize("text, line_no", BAD_TIMES)
def test_a_time_that_runs_backwards_is_an_error_of_its_line(workdir, text, line_no):
    with pytest.raises(ScenarioError) as e:
        run_text(workdir, "program p ping.dahl\nnode n1 p\n" + text)
    assert e.value.line_no == line_no + 2
    assert str(e.value).startswith("line %d: " % (line_no + 2))


def test_load_scenario_resolves_relative_paths(workdir):
    scn = write_scenario(workdir, """
program p ping.dahl
node n1 p
run_to_idle
""")
    assert load_scenario(scn).run().ok
