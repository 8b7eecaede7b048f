"""Tests of the benchmark itself: its definition, its output checks and its tracer.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tr
from workloads import PARTS, WORKLOADS, Command, check_command, workload_named

sys.path.insert(0, str(run.SRC))
from transport_langevin import cli, experiments, langevin, losses, models  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == run.per_layer_names()


def test_workloads_pair_every_part_once():
    parts = [part.name for w in WORKLOADS.values() for part in w.parts]
    assert sorted(parts) == sorted(PARTS)
    for w in WORKLOADS.values():
        assert w.chain_steps == sum(p.chain_steps for p in w.parts)
        assert w.commands == tuple(c for p in w.parts for c in p.commands)


def test_every_budget_is_pinned():
    for workload in WORKLOADS.values():
        for cmd in workload.commands:
            assert set(cmd.overrides) == set(experiments.PRESET_DEFAULTS[cmd.preset]), cmd.preset


def _report(tmp_path, preset, lines):
    adir = tmp_path / preset
    adir.mkdir()
    (adir / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (adir / "results.csv").write_text("# seed=1\n", encoding="utf-8")
    (adir / "provenance.json").write_text(json.dumps({"seed": 1, "preset": preset}),
                                          encoding="utf-8")


def test_failed_criteria_are_counted_not_hidden(tmp_path):
    cmd = Command("posterior-validate", {}, criteria=2)
    _report(tmp_path, "posterior-validate",
            ["[FAIL] posterior-mean-z: measured=3.04", "[PASS] posterior-mean-relerr: x",
             "overall: FAIL"])
    assert check_command(cmd, 1, tmp_path, 1) == ([False, True], [])
    statuses, problems = check_command(cmd, 0, tmp_path, 1)
    assert statuses == [False, True] and problems   # exit 0 contradicts the report
    assert check_command(cmd, 3, tmp_path, 1) == (None, ["exit 3"])


def test_tracer_covers_every_binding_and_restores_it():
    originals = (losses.loss_eval_derivs, models.loss_eval_derivs, langevin.run_chain)
    with tr.Tracer(list(tr.LAYERS) + tr.analysis_targets()) as t:
        assert models.loss_eval_derivs is losses.loss_eval_derivs is not originals[0]
        assert experiments.eval_basis is models.eval_basis
    assert (losses.loss_eval_derivs, models.loss_eval_derivs, langevin.run_chain) == originals
    assert t.bindings["losses.loss_eval_derivs"] >= 2
    assert t.bindings["spectral.eval_basis"] >= 3
    assert all(n >= 1 for n in t.bindings.values())


@pytest.fixture(scope="module")
def traced_stats(tmp_path_factory):
    """Layer stats of one traced seed-0 pass per part, made once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            workload, work_dir = workload_named(name), tmp_path_factory.mktemp(name)
            configs = run.write_configs(workload, work_dir)
            plain, traced, tracers = run.timed_passes(cli, workload, configs,
                                                      work_dir / "out", 0, 0, traced=True)
            assert len(traced) == 1 and not plain[0].problems and not traced[0].problems
            cache[name] = tracers[0].stats
        return cache[name]

    return get


@pytest.mark.parametrize("name, layer, field, expected", [
    ("posterior-linear", "langevin.run_chain", "work", 220_000),
    ("posterior-linear", "losses.loss_eval_derivs", "calls", 220_000),
    ("coupled-stepwise", "langevin.gld_step", "calls", 25_600),
    ("mc-oracle", "oracle.gaussian_correlation_mc", "calls", 20),
])
def test_traced_counts_match_the_seed0_configs(name, layer, field, expected, traced_stats):
    assert getattr(traced_stats(name)[layer], field) == expected


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-oracle",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
