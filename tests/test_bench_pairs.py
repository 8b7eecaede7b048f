"""The arithmetic of tools/bench_pairs.py on synthetic records and stand-in runners; runs no
benchmark, and each step probe only once, at a few steps."""

import importlib.util
import json
import os
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)


def test_quartiles_interpolate_between_order_statistics():
    # 10 values: q1 at position 2.25, the median at 4.5, q3 at 6.75 (0-based)
    values = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0, 10.0]
    assert bp.quartiles(values) == (3.25, 5.5, 7.75)
    assert bp.quartiles([4.0, 2.0, 3.0]) == (2.5, 3.0, 3.5)
    assert bp.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert bp.quartiles(values)[1] == statistics.median(values)


def test_summary_counts_pair_wins_in_the_better_direction():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    change = [p - 6.0 for p in parent]
    change[3] = 13.0                     # a tie is no win
    s = bp.summarize(parent, change, "lower", 0.25)
    assert s["change_wins"] == "9/10"
    assert s["parent"] == {"median": 14.5, "q1": 12.25, "q3": 16.75}
    assert s["change"]["median"] == 9.5
    assert s["median_change_rel"] == pytest.approx(-5.0 / 14.5)
    assert s["parent_iqr_rel"] == pytest.approx(4.5 / 14.5)
    assert s["verdict"] == "better"      # 9/10 wins and a 5.0 drop > the IQR 4.5
    assert s["parent_runs"] == parent and s["change_runs"] == change
    # the same numbers read as a rate, where higher is better: the change lost
    s = bp.summarize(parent, change, "higher", 0.25)
    assert s["change_wins"] == "0/10" and s["verdict"] == "worse"   # -34% beyond 25%


def test_summary_verdicts_need_both_the_wins_and_a_drop_beyond_the_iqr():
    # the parent's IQR is 4.5 on a median of 14.5 (31%), inside a 35% bound
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # every pair won, but the median moves by 1.0 < IQR 4.5
    assert bp.summarize(parent, [p - 1.0 for p in parent], "lower", 0.35)["verdict"] \
        == "not moved"
    # a big median drop, but only 8/10 pairs won
    change = [p - 6.0 for p in parent]
    change[0], change[9] = 11.0, 20.0
    s = bp.summarize(parent, change, "lower", 0.35)
    assert s["change_wins"] == "8/10" and s["verdict"] == "not moved"
    # worse within the bound is not moved; beyond it, worse
    assert bp.summarize(parent, [p * 1.3 for p in parent], "lower", 0.35)["verdict"] \
        == "not moved"
    assert bp.summarize(parent, [p * 1.4 for p in parent], "lower", 0.35)["verdict"] == "worse"
    with pytest.raises(ValueError):
        bp.summarize(parent, parent[:-1], "lower", 0.25)
    with pytest.raises(ValueError):
        bp.summarize(parent, parent, "sideways", 0.25)


def test_summary_is_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # the same parent under a 25% bound: its 31% spread cannot show no change
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    for change in (list(parent), [p - 1.0 for p in parent], [p * 1.2 for p in parent]):
        s = bp.summarize(parent, change, "lower", 0.25)
        assert s["parent_iqr_rel"] > 0.25 and s["verdict"] == "unresolved"
    # every change run beats every parent run: resolved, though by less than the IQR
    skewed = [10.0] * 7 + [15.0, 20.0, 25.0]           # IQR 3.75 on a median of 10
    s = bp.summarize(skewed, [9.0 + 0.01 * i for i in range(10)], "lower", 0.25)
    assert s["parent_iqr_rel"] == pytest.approx(0.375)
    assert s["change_wins"] == "10/10" and s["verdict"] == "not moved"
    # one change run above the parent's best leaves it unresolved, though every pair won
    s = bp.summarize(skewed, [9.0] * 9 + [10.5], "lower", 0.25)
    assert s["change_wins"] == "10/10" and s["verdict"] == "unresolved"
    # a gain and a loss beyond the bound still read as better and worse
    assert bp.summarize(parent, [p - 6.0 for p in parent], "lower", 0.25)["verdict"] \
        == "better"
    assert bp.summarize(parent, [p * 1.3 for p in parent], "lower", 0.25)["verdict"] == "worse"


def _record(wall, cpu, failed, parts, tree_cpu=9.0):
    return {"result": {"correct": True, "attempted": 4, "failed": failed,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                   "cpu_s": {"value": cpu, "unit": "s"}}},
            "passes": [{}] * 3,
            "parts": {name: {"wall_s": w, "cpu_s": c} for name, (w, c) in parts.items()},
            "tree": {"cpu_s": tree_cpu, "max_rss_mb": 50.0}}


def test_workload_record_collects_both_sides_in_pair_order():
    runs = {"parent": [_record(5.0 + i, 7.0 + i, i % 2, {"a": (2.0 + i, 3.0), "b": (3.0, 4.0)})
                       for i in range(4)],
            "change": [_record(4.0 + i, 4.5 + i, i % 2, {"a": (1.0 + i, 1.0), "b": (3.0, 3.0)},
                               tree_cpu=6.0 + 3 * i)
                       for i in range(4)]}
    bounds = {"wall_s": ("lower", 0.25), "cpu_s": ("lower", 0.25),
              "peak_rss_mb": ("lower", 0.2)}
    rec = bp.workload_record([41, 42, 43, 44], runs, bounds)
    assert rec["seeds"] == [41, 42, 43, 44]
    assert rec["runs"]["order"] == ["parent first", "change first"] * 2
    assert rec["failed"] == {"parent": [0, 1, 0, 1], "change": [0, 1, 0, 1]}
    assert rec["passes"]["change"] == [3, 3, 3, 3]
    assert rec["metrics"]["cpu_s"]["change_wins"] == "4/4"
    assert rec["metrics"]["wall_s"]["parent_runs"] == [5.0, 6.0, 7.0, 8.0]
    assert rec["parts_wall_s_median"]["parent"] == {"a": 3.5, "b": 3.0}
    assert rec["parts_cpu_s_median"]["change"] == {"a": 1.0, "b": 3.0}
    # the process tree's CPU is per pass: each record ran 3
    assert rec["process_tree"]["cpu_s_per_pass"]["parent_runs"] == [3.0] * 4
    assert rec["process_tree"]["cpu_s_per_pass"]["change_runs"] == [2.0, 3.0, 4.0, 5.0]
    assert rec["process_tree"]["max_rss_mb"]["verdict"] == "not moved"


def test_tree_usage_counts_the_processes_the_command_waits_for():
    # the wrapped command starts a grandchild that burns 0.3 s of CPU, and exits 3
    burn = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.3: pass"
    nested = ("import subprocess, sys\n"
              f"sys.exit(subprocess.call([sys.executable, '-c', {burn!r}]) + 3)")
    out = subprocess.run([sys.executable, "-c", bp._TREE_USAGE, sys.executable, "-c", nested],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 3
    usage = json.loads(out.stdout.splitlines()[-1])
    assert usage["cpu_s"] >= 0.3 and usage["max_rss_mb"] > 0


def test_parse_pytest_reads_the_summary_and_the_call_durations():
    out = """........                                                   [100%]
============================= slowest 30 durations =============================
22.81s call     tests/test_acceptance.py::test_criterion_03_stepsize_bias_order
0.52s setup    tests/test_perfbench.py::traced_stats
3.10s call     tests/test_demos.py::test_demo_exits_zero[04_rates_and_bounds]
178 passed in 80.25s (0:01:20)
"""
    got = bp.parse_pytest(out, 0)
    assert got == {"passed": 178, "failed": 0, "errors": 0, "exit_code": 0, "total_s": 80.25,
                   "slowest": {"tests/test_acceptance.py::test_criterion_03_stepsize_bias_order":
                               22.81,
                               "tests/test_demos.py::test_demo_exits_zero[04_rates_and_bounds]":
                               3.1}}


def test_parse_pytest_records_failures_errors_and_the_exit_code():
    out = """..F..E..F.F                                                [100%]
=========================== short test summary info ============================
FAILED tests/test_cli.py::test_run_writes_artifacts_and_passes - assert 1 == 0
1.25s call     tests/test_models.py::test_error_in_7_passed_runs
3 failed, 191 passed, 1 error in 80.12s (0:01:20)
"""
    got = bp.parse_pytest(out, 1)
    assert (got["passed"], got["failed"], got["errors"]) == (191, 3, 1)
    assert got["exit_code"] == 1 and got["total_s"] == 80.12
    got = bp.parse_pytest("==== 2 errors in 3.50s ====\n", 2)
    assert (got["passed"], got["failed"], got["errors"], got["exit_code"]) == (0, 0, 2, 2)
    # no summary line at all, as when pytest is killed
    got = bp.parse_pytest("", -9)
    assert (got["passed"], got["failed"], got["errors"], got["exit_code"]) == (0, 0, 0, -9)
    assert got["total_s"] != got["total_s"]


def _fake_cli(calls, gap, presets=("p", "q")):
    """A stand-in for subprocess.run over the package CLI and the demos: ``presets``, q's
    one number being ``gap`` and q failing its criterion when gap is not 0.5.  A command
    run through the usage wrapper ends its output with the wrapper's usage line, whose
    peak RSS is 40 MB plus the command's place among the wrapped calls."""
    def run(cmd, cwd, env, **kwargs):
        calls.append((cmd, cwd, env))
        wrapped = cmd[1:3] == ["-c", bp._TREE_USAGE]
        if wrapped:
            assert cmd[3] == sys.executable
            cmd = cmd[3:]
        args = cmd[1:]
        out, code = "", 0
        if args[0] != "-m":
            out = f"demo {Path(args[0]).stem}\n"
        elif args[2] == "--preset-list":
            out = "".join(f"{name}\n" for name in presets)
        elif args[2] == "run":
            name, dest = args[args.index("--preset") + 1], Path(args[args.index("--out") + 1])
            (dest / name).mkdir(parents=True)
            (dest / name / "results.csv").write_text(
                f"step,mean_gap\n1,{gap if name == 'q' else 1.0}\n")
            out, code = f"preset: {name}\n", int(name == "q" and gap != 0.5)
        elif args[2] == "sweep":
            dest = Path(args[args.index("--out") + 1]) / "regression-rate-sweep-n"
            dest.mkdir(parents=True)
            (dest / "sweep.csv").write_text("n,fit\n64,1.0\n")
        if wrapped:
            rss = 40.0 + sum(c[0][1:3] == ["-c", bp._TREE_USAGE] for c in calls)
            out += json.dumps({"cpu_s": 0.25, "max_rss_mb": rss}) + "\n"
        return types.SimpleNamespace(returncode=code, stdout=out, stderr="")
    return run


def test_artifact_pass_runs_both_trees_and_records_what_moved(tmp_path):
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        (tree / "demos").mkdir(parents=True)
        for name in ("01_b.py", "00_a.py"):
            (tree / "demos" / name).write_text("")
    calls = {"parent": [], "change": []}
    runners = {side: _fake_cli(calls[side], gap) for side, gap in (("parent", 0.5),
                                                                    ("change", 0.25))}
    rec = bp.artifact_pass(trees, tmp_path / "work",
                           run=lambda cmd, cwd, **kw: runners[cwd.name](cmd, cwd, **kw))
    wrapper = [sys.executable, "-c", bp._TREE_USAGE, sys.executable]
    for side, tree in trees.items():
        # the listing runs as it is; every other command runs through the usage wrapper
        assert calls[side][0][0] == [sys.executable, "-m", "transport_langevin",
                                     "--preset-list"]
        assert all(cmd[:4] == wrapper for cmd, _, _ in calls[side][1:])
        assert calls[side][1][0][4:] == [
            "-m", "transport_langevin", "run", "--preset", "p", "--seed", "0", "--out",
            str(tmp_path / "work" / "artifacts" / side / "run")]
        assert calls[side][3][0][6:] == bp.SWEEP + [
            "--out", str(tmp_path / "work" / "artifacts" / side / "sweep")]
        assert [cmd[4] for cmd, _, _ in calls[side][4:]] == [
            str(tree / "demos" / "00_a.py"), str(tree / "demos" / "01_b.py")]
        for _, cwd, env in calls[side]:
            assert cwd == tree and env["PYTHONHASHSEED"] == "0"
            assert env["PYTHONPATH"] == str(tree / "src")
    assert rec["exit_codes"]["parent"] == {
        "run-p": 0, "run-q": 0, "sweep-regression-rate-n": 0, "demo-00_a": 0, "demo-01_b": 0}
    assert rec["exit_codes"]["change"]["run-q"] == 1
    # each command's CPU and peak RSS, on both sides, in the wrapped calls' order
    for side in ("parent", "change"):
        assert rec["usage"][side] == {
            name: {"cpu_s": 0.25, "max_rss_mb": 41.0 + i}
            for i, name in enumerate(rec["exit_codes"][side])}
    # 2 results, 1 sweep file and 5 stdout files per side
    assert rec["files"] == {"parent": 8, "change": 8}
    diff = rec["diff"]
    assert diff["moved"] == ["run/q/results.csv"]
    assert diff["only_parent"] == diff["only_change"] == []
    assert diff["drift"]["run/q/results.csv"]["mean_gap"]["max_rel"] == pytest.approx(0.5)
    out = tmp_path / "work" / "artifacts" / "change" / "stdout"
    # the usage line is split off: the saved output is the command's own
    assert (out / "run-q.txt").read_text() == "preset: q\n"
    assert (out / "demo-01_b.txt").read_text() == "demo 01_b\n"
    assert (out / "sweep-regression-rate-n.txt").read_text() == ""


def test_split_usage_keeps_output_that_ends_without_a_newline():
    usage = {"cpu_s": 1.5, "max_rss_mb": 60.0}
    for own in ("", "a\nb\n", "no newline at the end"):
        assert bp.split_usage(own + json.dumps(usage) + "\n") == (own, usage)


def test_artifact_pass_records_a_preset_only_one_tree_lists(tmp_path):
    # the first run after a preset is added: the change tree lists one more preset
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        (tree / "demos").mkdir(parents=True)
    runners = {"parent": _fake_cli([], 0.5),
               "change": _fake_cli([], 0.5, presets=("p", "q", "r"))}
    rec = bp.artifact_pass(trees, tmp_path / "work",
                           run=lambda cmd, cwd, **kw: runners[cwd.name](cmd, cwd, **kw))
    assert rec["exit_codes"]["change"]["run-r"] == 0
    assert "run-r" not in rec["exit_codes"]["parent"]
    assert rec["files"] == {"parent": 6, "change": 8}
    diff = rec["diff"]
    assert diff["only_change"] == ["run/r/results.csv", "stdout/run-r.txt"]
    assert diff["only_parent"] == [] and diff["moved"] == []


def test_step_ratio_pass_alternates_fresh_processes_and_takes_the_ratio_of_each_pair(tmp_path):
    # a stand-in probe: the parent reads 10 µs, the change 8 µs on even pairs and 9 µs on odd
    # ones; the pass must run each probe in the tree it names, in alternating order
    trees = {side: tmp_path / side for side in ("parent", "change")}
    calls = []

    def run(cmd, cwd, env, **kwargs):
        assert cmd[:2] == [bp.sys.executable, "-c"] and cmd[2] == bp._PROBE
        assert env["PYTHONPATH"] == str(cwd / "src")
        side = cwd.name
        pair = sum(1 for c in calls if c[:2] == (cmd[3], side))
        calls.append((cmd[3], side))
        us = 10.0 if side == "parent" else (8.0 if pair % 2 == 0 else 9.0)
        return types.SimpleNamespace(returncode=0, stdout=f"{us}\n", stderr="")

    rec = bp.step_ratio_pass(trees, run=run, pairs=4)
    assert list(rec["probes"]) == list(bp.STEP_PROBES)
    first = [c for c in calls if c[0] == bp.STEP_PROBES[0]]
    assert [side for _, side in first] == ["parent", "change", "change", "parent"] * 2
    probe = rec["probes"][bp.STEP_PROBES[-1]]
    assert probe["parent_us"] == [10.0] * 4 and probe["change_us"] == [8.0, 9.0, 8.0, 9.0]
    assert probe["ratios"] == pytest.approx([0.8, 0.9, 0.8, 0.9])
    assert probe["median_ratio"] == pytest.approx(0.85)
    assert (probe["q1"], probe["q3"]) == pytest.approx((0.8, 0.9))
    assert probe["iqr"] == pytest.approx(0.1)
    # a probe that fails names itself and its tree
    with pytest.raises(RuntimeError, match=f"probe {bp.STEP_PROBES[0]} in .*parent"):
        bp.step_ratio_pass(trees, run=lambda *a, **k: types.SimpleNamespace(
            returncode=1, stdout="", stderr="boom"), pairs=1)


def test_step_probes_run_on_this_tree():
    # every probe runs through the package's public API and prints one positive number
    env = dict(os.environ, PYTHONPATH=str(_PATH.parent.parent / "src"))
    probe = bp._PROBE.replace("units = sys.argv[1], np.random.default_rng(0), 1000",
                              "units = sys.argv[1], np.random.default_rng(0), 20")
    assert probe != bp._PROBE
    for name in bp.STEP_PROBES:
        out = subprocess.run([sys.executable, "-c", probe, name], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert float(out.stdout) > 0.0


def test_size_record_counts_lines_and_preset_keys(tmp_path):
    # a stand-in tree: three package files of 2 lines each (one in a subpackage, one with
    # no newline after its last line, which wc -l does not count), 4 test lines, and a
    # config table of 3 keys over two presets; other files count for nothing
    package = tmp_path / "src" / "transport_langevin"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("\n\n")
    (package / "sub" / "experiments.py").write_text("x = 1\ny = 2\nz = 3")
    (package / "experiments.py").write_text(
        "PRESET_DEFAULTS = {'a': dict(n=1, m=2),\n                   'b': dict(k=3)}\n")
    (package / "notes.txt").write_text("\n" * 50)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("\n" * 4)
    assert bp.size_record(tmp_path) == {"src_lines": 6, "tests_lines": 4,
                                        "preset_default_keys": 3}
    # a tree whose package does not import names itself
    (package / "experiments.py").write_text("raise ImportError('boom')\n")
    with pytest.raises(RuntimeError, match="(?s)preset keys in .*boom"):
        bp.size_record(tmp_path)


def test_size_record_reads_this_tree():
    from transport_langevin import experiments as ex

    root = _PATH.parent.parent
    size = bp.size_record(root)
    assert size["preset_default_keys"] == sum(map(len, ex.PRESET_DEFAULTS.values()))
    src = root / "src" / "transport_langevin" / "experiments.py"
    assert size["src_lines"] > len(src.read_text(encoding="utf-8").splitlines()) > 0
    assert size["tests_lines"] > 0
