"""Paired benchmark of two commits: writes a ``BENCH_<pr>.json`` perf record.

Run from the repository root, after committing the change:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pr 8 \\
        --first-seed 41 --work-dir /tmp/bench

Each revision's committed files are unpacked with ``git archive`` into its own
directory under ``--work-dir``, so both sides run from clean trees and the
repository itself is left untouched.  Each of the ten pairs ``i`` (seed
``first_seed + i``) runs ``perfbench/run.py --trace 0`` for the ``run_seconds``
of ``BENCHMARK.json``, once per side and workload: odd pairs run the
parent first, even pairs the change first, and the workloads are interleaved
within each pair, so a slow drift of the machine falls on both sides alike.
perfbench's ``cpu_s`` and ``peak_rss_mb`` count its own process only, so each
run also goes through a small wrapper that reads ``RUSAGE_CHILDREN``: the
record holds the CPU per pass and the largest resident set of the run's whole
process tree, the worker processes of a sweep included.
Then the artifact pass makes each side's artifacts at the presets' own
defaults under ``PYTHONHASHSEED=0``: every preset ``run`` at seed 0, the
``sweep`` of regression-rate over ``n`` and the standard output of each run,
the sweep and every demo, each through the same wrapper.
``tools/artifact_diff.py`` compares the two trees, and the record holds each
command's exit status, CPU and largest resident set and the comparison, so that
"byte-identical" is a record anyone can re-run, and a preset that no workload
runs still has its memory and CPU on record.  The step-ratio pass then times
one chain step, or one gradient call, of each of ``STEP_PROBES`` in fresh
processes: ``PROBE_PAIRS`` alternating pairs of the two trees per probe, and the
record holds the change-to-parent ratio of each pair with their median and
interquartile range.  In-process probes resolve a few percent, where the
end-to-end runs resolve tens of percent.  Each side's tier-1 suite then runs
once under ``pytest --durations``; its record holds the passed, failed and error
counts and pytest's exit code.

Per metric the record holds both sides' medians and quartiles over the pairs,
the relative change of the medians, the parent's interquartile range relative
to its median, the number of pairs the change won and a verdict:

* ``better``: the change won at least 9 of 10 pairs (the same share of any
  other count) and its median beats the parent's by more than the parent's
  interquartile range;
* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the parent's interquartile range is wider than the bound,
  relative to its median, and not every change run beats every parent run;
* ``not moved``: anything else.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
PAIRS = 10
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=30"]
CLI = ["-m", "transport_langevin"]
SWEEP = ["sweep", "--preset", "regression-rate", "--axis", "n",
         "--values", "64,128,256,512,1024", "--seed", "0"]

PROBE_PAIRS = 20
# what the step-ratio pass times, each through the package's public API at one step
# (or call) per unit: a two-layer chain at n = 64 and n = 1,024, an identity-map chain
# with a logistic loss, the wasserstein gradient, and ten two-layer chains at n = 64 of
# ten seeds, networks and datasets, as pac-bayes runs them (one step of all ten per unit)
STEP_PROBES = ("two-layer-n64", "two-layer-n1024", "identity-logistic", "wasserstein-grad",
               "pac-bayes-stack")
# prints the best of 15 timings of one probe, in µs per step or per call
_PROBE = r"""
import sys, time
import numpy as np
from transport_langevin import langevin as lg, models as md
from transport_langevin.spectral import cosine_basis, eval_basis, gram_eigenbasis


def two_layer(rng, n, M=6):
    cloud = md.finite_width_cloud(rng.standard_normal((M, 2)), rng.uniform(-1, 1, M))
    model = md.ModelSpec(arch="two-layer", cloud=cloud, basis=gram_eigenbasis(cloud, 1.0, M))
    r, th = np.sqrt(rng.uniform(0, 1, n)), rng.uniform(0, 2 * np.pi, n)
    x = np.column_stack([r * np.cos(th), r * np.sin(th)])
    return model, md.Dataset(x=x, y=np.tanh(x.sum(axis=1)))


probe, rng, units = sys.argv[1], np.random.default_rng(0), 1000
if probe == "pac-bayes-stack":
    n, seeds = 64, list(range(10))
    models, datas = zip(*(two_layer(np.random.default_rng(s), n) for s in seeds))
    cfg = lg.DynamicsConfig(eta=0.1, beta=float(n), lam=1.0 / n, steps=units, burn_in=units)

    def once():
        lg.run_chains(cfg, models, "squared", datas, seeds, init="zero")
elif probe == "wasserstein-grad":
    src = rng.standard_normal((24, 1))
    tgt = 0.5 * rng.standard_normal((24, 1)) + 1.0
    cloud = md.finite_width_cloud(src, np.zeros(24))
    model = md.ModelSpec(arch="wasserstein", cloud=cloud, wasserstein_penalty=25.0,
                         mmd_bandwidth=0.8, basis=gram_eigenbasis(cloud, 0.3, 12, False))
    _, grad = md.risk_objective(model, "squared", md.Dataset(x=src, y=tgt))
    c = lg.initial_map(model, model.basis).coeffs

    def once():
        for _ in range(units):
            grad(c)
else:
    if probe.startswith("two-layer"):
        n = int(probe.split("-n")[1])
        (model, data), loss, eta, beta = two_layer(rng, n), "squared", 0.1, n
    else:
        n, model = 300, md.ModelSpec(arch="identity-map", basis=cosine_basis(6, dim_in=1))
        x = rng.uniform(0.05, 0.95, (n, 1))
        y = np.where(eval_basis(model.basis, x)[:, 1] > 0, 1.0, -1.0)
        data, loss, eta, beta = md.Dataset(x=x, y=y), "logistic", 0.05, 100.0
    cfg = lg.DynamicsConfig(eta=eta, beta=float(beta), lam=1.0 / beta, steps=units,
                            burn_in=units)

    def once():
        lg.run_chain(cfg, model, loss, data, init="zero")
once()
best = float("inf")
for _ in range(15):
    t = time.perf_counter()
    once()
    best = min(best, time.perf_counter() - t)
print(best / units * 1e6)
"""

# runs the command after it, then prints as its last line the CPU seconds (user + system)
# and the largest resident set of the processes it waited for: the command's process and,
# through it, every process that one forks or starts and waits for
_TREE_USAGE = r"""
import json, resource, subprocess, sys
code = subprocess.call(sys.argv[1:])
ru = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({"cpu_s": ru.ru_utime + ru.ru_stime, "max_rss_mb": ru.ru_maxrss / 1024}))
sys.exit(code)
"""

_spec = importlib.util.spec_from_file_location(
    "artifact_diff", Path(__file__).resolve().with_name("artifact_diff.py"))
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation between order statistics
    (``statistics.quantiles`` with ``method="inclusive"``)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent_runs, change_runs, better: str, bound: float) -> dict:
    """Summary of one metric over pairs; run ``i`` of each side forms pair ``i``."""
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same positive number of runs on both sides")
    if better not in ("lower", "higher"):
        raise ValueError(f"'better' must be 'lower' or 'higher', got {better!r}")
    sign = -1.0 if better == "lower" else 1.0
    p1, pm, p3 = quartiles(parent_runs)
    c1, cm, c3 = quartiles(change_runs)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent_runs, change_runs))
    gain = sign * (cm - pm)           # > 0 when the change's median is better
    separated = all(sign * (c - p) > 0 for p in parent_runs for c in change_runs)
    if wins >= WIN_SHARE * len(parent_runs) and gain > p3 - p1:
        verdict = "better"
    elif -gain > bound * abs(pm):
        verdict = "worse"
    elif p3 - p1 > bound * abs(pm) and not separated:
        verdict = "unresolved"
    else:
        verdict = "not moved"
    return {
        "better": better,
        "bound": bound,
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "median_change_rel": (cm - pm) / pm if pm else float("nan"),
        "parent_iqr_rel": (p3 - p1) / pm if pm else float("nan"),
        "change_wins": f"{wins}/{len(parent_runs)}",
        "verdict": verdict,
        "parent_runs": list(parent_runs),
        "change_runs": list(change_runs),
    }


def parse_pytest(output: str, exit_code: int) -> dict:
    """Counts, exit code, total seconds and per-test call durations from pytest's output.

    The counts come from the last summary line, such as ``3 failed, 191 passed,
    1 error in 80.12s``; a count the line leaves out is 0.
    """
    slowest = {}
    for m in re.finditer(r"^\s*([\d.]+)s call\s+(\S+)\s*$", output, re.M):
        slowest.setdefault(m.group(2), float(m.group(1)))
    summaries = re.findall(r"^.*\d+ (?:passed|failed|errors?)\b.* in [\d.]+s.*$", output, re.M)
    line = summaries[-1] if summaries else ""
    counts = {key: int(m.group(1)) if (m := re.search(rf"(\d+) {word}\b", line)) else 0
              for key, word in (("passed", "passed"), ("failed", "failed"), ("errors", "errors?"))}
    total = re.search(r" in ([\d.]+)s", line)
    return {**counts, "exit_code": exit_code,
            "total_s": float(total.group(1)) if total else float("nan"),
            "slowest": slowest}


def unpack(rev: str, dest: Path) -> str:
    """Committed files of ``rev`` into ``dest``; returns the full commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``; its full result record, plus
    under ``"tree"`` the CPU and largest resident set of the run's whole process tree
    (perfbench counts its own process only, not the processes a sweep forks)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run([sys.executable, "-c", _TREE_USAGE, *cmd], cwd=tree,
                         capture_output=True, text=True, timeout=10 * seconds + 600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree}: exit {out.returncode}\n{out.stderr}")
    path = tree / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    record["tree"] = split_usage(out.stdout)[1]
    return record


def split_usage(stdout: str) -> tuple[str, dict]:
    """The standard output of a command run through ``_TREE_USAGE``: the command's own
    output, and the usage the wrapper printed after it."""
    at = stdout.rindex('{"cpu_s"')
    return stdout[:at], json.loads(stdout[at:])


def make_artifacts(tree: Path, dest: Path, run=subprocess.run) -> dict:
    """Artifacts of ``tree`` at the presets' defaults into ``dest``; per command its exit
    status, CPU seconds and largest resident set.

    ``dest/run/<preset>/`` holds every preset's ``run`` at seed 0,
    ``dest/sweep/regression-rate-sweep-n/`` the regression-rate sweep over ``n``,
    and ``dest/stdout/<command>.txt`` the standard output of each of those
    commands and of every demo in ``tree/demos``.  Everything runs in ``tree``
    from its own ``src`` under ``PYTHONHASHSEED=0``, each command through the
    ``_TREE_USAGE`` wrapper, which counts the processes it forks too; ``run`` is
    called like ``subprocess.run``.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")

    def call(args):
        return run([sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True,
                   timeout=3600)

    listing = call([*CLI, "--preset-list"])
    if listing.returncode != 0:
        raise RuntimeError(f"--preset-list in {tree}: exit {listing.returncode}\n"
                           f"{listing.stderr}")
    commands = {f"run-{name}": [*CLI, "run", "--preset", name, "--seed", "0",
                                "--out", str(dest / "run")]
                for name in listing.stdout.split()}
    commands["sweep-regression-rate-n"] = [*CLI, *SWEEP, "--out", str(dest / "sweep")]
    commands.update({f"demo-{path.stem}": [str(path)]
                     for path in sorted((tree / "demos").glob("*.py"))})
    (dest / "stdout").mkdir(parents=True)
    status = {}
    for name, args in commands.items():
        out = call(["-c", _TREE_USAGE, sys.executable, *args])
        stdout, usage = split_usage(out.stdout)
        (dest / "stdout" / f"{name}.txt").write_text(stdout, encoding="utf-8")
        status[name] = {"exit_code": out.returncode, **usage}
    return status


def artifact_pass(trees: dict, work_dir: Path, run=subprocess.run) -> dict:
    """Both sides' artifacts under ``work_dir/artifacts``, compared by tools/artifact_diff.py."""
    dests = {side: work_dir / "artifacts" / side for side in ("parent", "change")}
    status = {side: make_artifacts(trees[side], dests[side], run) for side in dests}
    return {
        "what": (f"every preset run at seed 0, `{' '.join(SWEEP)}` and the stdout of each "
                 "command and of every demo, at the presets' defaults under "
                 "PYTHONHASHSEED=0; compared by tools/artifact_diff.py"),
        "files": {side: sum(p.is_file() for p in dests[side].rglob("*")) for side in dests},
        "exit_codes": {side: {name: cmd["exit_code"] for name, cmd in status[side].items()}
                       for side in status},
        "usage": {
            "what": ("per command, one run: CPU seconds (user + system) and the largest "
                     "resident set of its process and every process it waited for "
                     "(getrusage RUSAGE_CHILDREN of a wrapper)"),
            **{side: {name: {key: cmd[key] for key in ("cpu_s", "max_rss_mb")}
                      for name, cmd in status[side].items()} for side in status}},
        "diff": artifact_diff.compare(dests["parent"], dests["change"]),
    }


def step_ratio_pass(trees: dict, run=subprocess.run, pairs: int = PROBE_PAIRS) -> dict:
    """Per probe of ``STEP_PROBES``, ``pairs`` alternating fresh-process timings of each tree.

    Pair ``i`` runs the parent first when ``i`` is even and the change first when it is
    odd; its ratio is the change's µs over the parent's, so a ratio below 1 is a gain.
    ``run`` is called like ``subprocess.run``.
    """
    probes = {}
    for probe in STEP_PROBES:
        us = {"parent": [], "change": []}
        for i in range(pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                env = dict(os.environ, PYTHONPATH=str(trees[side] / "src"))
                out = run([sys.executable, "-c", _PROBE, probe], cwd=trees[side], env=env,
                          capture_output=True, text=True, timeout=600)
                if out.returncode != 0:
                    raise RuntimeError(f"probe {probe} in {trees[side]}: exit "
                                       f"{out.returncode}\n{out.stderr}")
                us[side].append(float(out.stdout.split()[-1]))
        ratios = [c / p for p, c in zip(us["parent"], us["change"])]
        q1, median, q3 = quartiles(ratios)
        probes[probe] = {"median_ratio": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
                         "ratios": ratios, "parent_us": us["parent"], "change_us": us["change"]}
    return {
        "what": (f"best-of-15 µs per chain step (per gradient call for wasserstein-grad, per "
                 f"step of all ten chains for pac-bayes-stack) in a fresh process, {pairs} "
                 f"alternating pairs per probe; ratio = change / parent"),
        "probes": probes,
    }


def workload_record(seeds, runs: dict, bounds: dict) -> dict:
    """The per-workload block of the BENCH file from each side's run records."""
    par, chg = runs["parent"], runs["change"]
    names = list(par[0]["result"]["metrics"])
    metrics = {name: summarize([r["result"]["metrics"][name]["value"] for r in par],
                               [r["result"]["metrics"][name]["value"] for r in chg],
                               *bounds[name])
               for name in names}

    def per_side(key):
        return {side: [key(r) for r in runs[side]] for side in ("parent", "change")}

    # the whole process tree of a run, its own start-up and setup_s probes included
    cpu = per_side(lambda r: r["tree"]["cpu_s"] / len(r["passes"]))
    rss = per_side(lambda r: r["tree"]["max_rss_mb"])
    tree = {
        "what": ("CPU seconds (user + system) of the perfbench process and every process it "
                 "waited for, over the whole run, divided by its passes; and the largest "
                 "resident set among those processes (getrusage RUSAGE_CHILDREN of a wrapper)"),
        "cpu_s_per_pass": summarize(cpu["parent"], cpu["change"], *bounds["cpu_s"]),
        "max_rss_mb": summarize(rss["parent"], rss["change"], *bounds["peak_rss_mb"]),
    }
    return {
        "seeds": list(seeds),
        "metrics": metrics,
        "process_tree": tree,
        "runs": {"order": ["parent first" if i % 2 == 0 else "change first"
                           for i in range(len(seeds))]},
        "correct": per_side(lambda r: r["result"]["correct"]),
        "failed": per_side(lambda r: r["result"]["failed"]),
        "attempted": per_side(lambda r: r["result"]["attempted"]),
        "passes": per_side(lambda r: len(r["passes"])),
        "parts_wall_s_median": {
            side: {part: statistics.median(r["parts"][part]["wall_s"] for r in runs[side])
                   for part in runs[side][0]["parts"]}
            for side in ("parent", "change")},
        "parts_cpu_s_median": {
            side: {part: statistics.median(r["parts"][part]["cpu_s"] for r in runs[side])
                   for part in runs[side][0]["parts"]}
            for side in ("parent", "change")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--pr", required=True, help="writes BENCH_<pr>.json at the repo root")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True, type=Path,
                        help="new directory for the two checkouts")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(bench["run_seconds"])
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    trees = {side: args.work_dir / side for side in ("parent", "change")}
    commits = {side: unpack(rev, trees[side])
               for side, rev in (("parent", args.parent), ("change", args.change))}
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                record = run_once(trees[side], w, seed, seconds)
                runs[w][side].append(record)
                wall = record["result"]["metrics"]["wall_s"]["value"]
                print(f"pair {i + 1}/{len(seeds)} seed {seed} {w} {side}: wall_s {wall:.3f}",
                      file=sys.stderr, flush=True)

    env = dict(runs[workloads[0]]["parent"][0]["environment"])
    env.pop("commit", None)
    out = {
        "what": (f"perfbench end-to-end metrics, parent commit vs this change, {len(seeds)} "
                 f"alternating pairs per workload at run_seconds={seconds:g} (--trace 0), "
                 f"seeds {seeds[0]}-{seeds[-1]}; odd pairs ran the parent first, even pairs "
                 f"the change first; workloads interleaved within each pair"),
        "command": "python3 perfbench/run.py --workload <w> --seed <s> --seconds "
                   f"{seconds:g} --trace 0",
        "commits": commits,
        "workloads": {w: workload_record(seeds, runs[w], bounds) for w in workloads},
        "environment": env,
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    out["artifacts"] = artifact_pass(trees, args.work_dir)
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    moved = out["artifacts"]["diff"]["moved"]
    print(f"added the artifact comparison to {path}: {len(moved)} file(s) moved",
          file=sys.stderr)
    out["step_ratios"] = step_ratio_pass(trees)
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"added the step ratios to {path}: " + ", ".join(
        f"{name} {rec['median_ratio']:.3f}" for name, rec in out["step_ratios"]["probes"].items()),
        file=sys.stderr)
    tier1 = {"command": "PYTHONPATH=src python " + " ".join(TIER1)}
    for side in ("parent", "change"):
        envvars = dict(os.environ, PYTHONPATH=str(trees[side] / "src"))
        res = subprocess.run([sys.executable, *TIER1], cwd=trees[side], env=envvars,
                             capture_output=True, text=True, timeout=3600)
        tier1[side] = parse_pytest(res.stdout, res.returncode)
    out["tier1_durations"] = tier1
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"added the tier-1 durations to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
