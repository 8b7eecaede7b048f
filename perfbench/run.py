"""Benchmark of the transport_langevin command line.

Run from the repository root:

    python3 perfbench/run.py --workload linear-chains --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0

With ``--trace 0`` a run measures the set-up time (fresh-interpreter imports of
``transport_langevin.cli``) and then repeats passes of the workload's commands
through ``cli.main`` in this process, untraced, for ``--seconds``, reporting
the end-to-end metrics as medians over passes.  With ``--trace 1`` it
alternates untraced passes with passes under the per-layer tracer, and
reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; a fuller record with the environment and the times of each
part goes to ``.perfbench/results/``.  ``--workload`` also takes the name of
a single part.  ``--workload all`` runs each workload in its own process and
prints a table of every end-to-end metric, and one of the parts.

The load is a closed loop: one client runs the commands one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import ANALYSIS_LAYER, LAYERS, LayerStats, Tracer, analysis_targets
from workloads import PARTS, WORKLOADS, run_pass, workload_named, write_configs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "chain_steps_per_s": "1/s",
    "mc_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import transport_langevin.cli as c; "
                 "print(time.perf_counter() - t); print(c.__file__)")


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds to import transport_langevin.cli in each of several fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        seconds, module_file = out.stdout.split("\n")[:2]
        if not Path(module_file).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up probe imported {module_file}, not the checkout's source")
        samples.append(float(seconds))
    return samples


def timed_passes(cli, workload, configs, out_dir, seed, seconds, traced=False):
    """Repeat rounds for about ``seconds``; at least one round.

    A round is one untraced pass, followed by one traced pass when ``traced``:
    alternating them keeps slow drifts in machine speed out of their ratio.
    A round starts only if it is expected to end less than half a round after
    the deadline, so a run lasts ``seconds`` on average whatever its pass time.
    Returns the untraced passes, the traced passes and their tracers.
    """
    plain, traced_passes, tracers = [], [], []
    start = time.perf_counter()
    last = 0.0
    while not plain or time.perf_counter() - start + last / 2 < seconds:
        plain.append(run_pass(cli, workload, configs, out_dir, seed))
        last = plain[-1].wall_s
        if traced:
            with Tracer(list(LAYERS) + analysis_targets()) as tracer:
                traced_passes.append(run_pass(cli, workload, configs, out_dir, seed))
            tracers.append(tracer)
            last += traced_passes[-1].wall_s
    return plain, traced_passes, tracers


def layer_metrics(stats: dict) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced pass, as ``name -> (value, unit)``.

    A layer absent from ``stats`` reads as never called, so ``layer_metrics({})``
    lists every name with its unit.
    """
    def get(layer):
        return stats.get(layer) or LayerStats()

    def per_work(layer, scale):
        s = get(layer)
        return s.self_s / s.work * scale if s.work else 0.0

    out = {}
    for target in LAYERS:
        s = get(target.layer)
        out[f"{target.layer}.calls"] = (s.calls, "count")
        out[f"{target.layer}.self_s"] = (s.self_s, "s")
        out[f"{target.layer}.us_per_call"] = (s.total_s / s.calls * 1e6 if s.calls else 0.0, "us")
    out[f"{ANALYSIS_LAYER}.calls"] = (get(ANALYSIS_LAYER).calls, "count")
    out[f"{ANALYSIS_LAYER}.self_s"] = (get(ANALYSIS_LAYER).self_s, "s")
    out["langevin.run_chain.steps"] = (get("langevin.run_chain").work, "count")
    out["langevin.run_chain.self_us_per_step"] = (per_work("langevin.run_chain", 1e6), "us")
    out["langevin.diverged"] = (sum(get(layer).errors.get("ChainDivergedError", 0)
                                    for layer in ("langevin.run_chain", "langevin.gld_step")),
                                "count")
    out["oracle.gaussian_correlation_mc.ns_per_sample"] = (
        per_work("oracle.gaussian_correlation_mc", 1e9), "ns")
    out["langevin.simulate_ou_sq_norms.ns_per_sample"] = (
        per_work("langevin.simulate_ou_sq_norms", 1e9), "ns")
    return out


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    return ([(name, unit) for name, (_, unit) in layer_metrics({}).items()]
            + [("trace_overhead_ratio", "ratio")])


def environment() -> dict:
    """Commit, interpreter, library versions, BLAS and its threads, cores, CPU model."""
    import numpy as np
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or f"unknown ({out.stderr.strip()})"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(np),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _blas_threads(np) -> int | str:
    """Thread count the bundled OpenBLAS reports, when it can be asked."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    from transport_langevin import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's source")
    workload = workload_named(workload_name)
    work_dir = STATE / "work" / f"{workload_name}-{os.getpid()}"
    record = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment()}
    try:
        configs = write_configs(workload, work_dir)
        out_dir = work_dir / "out"
        if trace:
            plain, traced, tracers = timed_passes(cli, workload, configs, out_dir, seed,
                                                  seconds, traced=True)
            passes = plain + traced
        else:
            setup = measure_setup()
            passes, _, _ = timed_passes(cli, workload, configs, out_dir, seed, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = sorted({p for r in passes for p in r.problems})
    if len({r.digest for r in passes}) != 1:
        problems.append("artifacts differ between passes of the same seed")
    if len({(r.attempted, r.failed) for r in passes}) != 1:
        problems.append("criteria differ between passes of the same seed")
    if trace:
        for tracer in tracers:
            problems += [f"tracer found no binding of {name}"
                         for name, n in tracer.bindings.items() if n == 0]
    # every pass repeats the same computation (the digests agree), so its
    # criteria are counted once per run, not once per pass: a run's count then
    # depends on the seed and the code, not on how many passes fit its time
    attempted, failed = passes[0].attempted, passes[0].failed

    if trace:
        per_pass = [layer_metrics(t.stats) for t in tracers]
        metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
                   for name, unit in per_layer_names() if name != "trace_overhead_ratio"}
        metrics["trace_overhead_ratio"] = (
            statistics.median(r.wall_s for r in traced)
            / statistics.median(r.wall_s for r in plain), "ratio")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.wall_s for r in passes),
            "cpu_s": statistics.median(r.cpu_s for r in passes),
            "chain_steps_per_s": statistics.median(workload.chain_steps / r.wall_s
                                                   for r in passes),
            "mc_samples_per_s": statistics.median(workload.mc_samples / r.wall_s
                                                  for r in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
        record["setup_samples_s"] = setup

    record.update({
        "passes": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "attempted": r.attempted,
                    "failed": r.failed} for r in passes],
        "parts": {name: {"wall_s": statistics.median(r.parts[name].wall_s for r in passes),
                         "cpu_s": statistics.median(r.parts[name].cpu_s for r in passes),
                         "chain_steps": PARTS[name].chain_steps,
                         "mc_samples": PARTS[name].mc_samples,
                         "attempted": passes[0].parts[name].attempted,
                         "failed": passes[0].parts[name].failed}
                  for name in passes[0].parts},
        "problems": problems,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "result": {"correct": not problems, "attempted": attempted, "failed": failed,
                   "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}},
    })
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def summary(seed: int, seconds: float) -> int:
    """Run every workload in its own process and print each end-to-end metric."""
    records = {}
    for name in WORKLOADS:
        out = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            print(f"{name}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        records[name] = json.loads((STATE / "results" / f"{name}-seed{seed}-trace0.json")
                                   .read_text(encoding="utf-8"))
    columns = {}
    for name, r in records.items():
        col = {metric: m["value"] for metric, m in r["result"]["metrics"].items()}
        col.update(failed_ratio=r["failed_ratio"], correct=r["result"]["correct"])
        columns[name] = col
    _print_table(columns, [*END_TO_END_UNITS.items(), ("failed_ratio", "ratio"),
                           ("correct", "-")])
    print()
    columns = {}
    for r in records.values():
        for name, part in r["parts"].items():
            columns[name] = {"wall_s": part["wall_s"], "cpu_s": part["cpu_s"],
                             "chain_steps_per_s": part["chain_steps"] / part["wall_s"],
                             "mc_samples_per_s": part["mc_samples"] / part["wall_s"],
                             "failed_ratio": part["failed"] / part["attempted"]}
    print("parts (medians over passes of each part's own time):")
    _print_table(columns, [("wall_s", "s"), ("cpu_s", "s"), ("chain_steps_per_s", "1/s"),
                           ("mc_samples_per_s", "1/s"), ("failed_ratio", "ratio")])
    for name, r in records.items():
        for problem in r["problems"]:
            print(f"{name}: {problem}")
    print("environment:", json.dumps(next(iter(records.values()))["environment"]))
    return 0 if all(r["result"]["correct"] for r in records.values()) else 1


def _print_table(columns: dict, rows: list) -> None:
    width = max(len(n) for n in columns) + 2
    print(f"{'metric':<20}{'unit':<7}" + "".join(f"{n:>{width}}" for n in columns))
    for metric, unit in rows:
        cells = [c[metric] if isinstance(c[metric], bool) else f"{c[metric]:.6g}"
                 for c in columns.values()]
        print(f"{metric:<20}{unit:<7}" + "".join(f"{v!s:>{width}}" for v in cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, *PARTS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "transport_langevin" / "cli.py").is_file():
        print(f"perfbench: no transport_langevin sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return summary(args.seed, args.seconds)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"perfbench: environment {json.dumps(record['environment'])}", file=sys.stderr)
    for problem in record["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
