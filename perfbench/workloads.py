"""The benchmark's workloads: pinned CLI commands and the checks on their outputs.

Commands are grouped in four parts, one per layer they exercise, and the
parts are paired into the two workloads that BENCHMARK.json lists.

Every budget a preset reads is written into the workload's config files, so an
edit to ``PRESET_DEFAULTS`` cannot change what the benchmark runs.  The values
below equal the defaults at the commit that introduced the benchmark.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

POSTERIOR_VALIDATE = dict(n_modes=8, n=50, eta=1e-3, burn_in=20_000, kept=200_000, noise=0.2)
REGRESSION_RATE = dict(n=256, M=8, d=2, R=2.0, noise=0.2, eta=0.05, steps=8000,
                       burn_in=4000, thin=10)
REGRESSION_NS = (64, 128, 256, 512, 1024)
ERGODICITY = dict(n_modes=4, n=24, beta=5.0, lam=1.0, eta=0.05, steps=400, n_pairs=32,
                  gap_floor=1e-9)
CORRELATION_SUITE = dict(n_pairs=20, n_samples=1_000_000, max_dim=6)
OU_MOMENT = dict(steps=200_000, burn_in=20_000)
OU_GRID_SIZE = 10   # configs in the ou-moment preset's fixed grid


@dataclass(frozen=True)
class Command:
    """One CLI call: ``run`` of a preset, or ``sweep`` when ``sweep`` is set."""

    preset: str
    overrides: dict
    criteria: int                               # criteria a crash counts as failed
    sweep: Optional[tuple[str, str]] = None     # (axis, comma-separated values)

    @property
    def label(self) -> str:
        return f"sweep {self.preset} --axis {self.sweep[0]}" if self.sweep else f"run {self.preset}"

    def argv(self, config: Path, out_dir: Path, seed: int) -> list[str]:
        argv = ["sweep" if self.sweep else "run", "--config", str(config),
                "--seed", str(seed), "--out", str(out_dir)]
        if self.sweep:
            argv += ["--axis", self.sweep[0], "--values", self.sweep[1]]
        return argv

    def artifact_dir(self, out_dir: Path) -> Path:
        if self.sweep:
            return out_dir / f"{self.preset}-sweep-{self.sweep[0]}"
        return out_dir / self.preset


@dataclass(frozen=True)
class Part:
    """A fixed list of commands measuring one layer of the package."""

    name: str
    commands: tuple
    chain_steps: int    # chain updates per pass
    mc_samples: int     # Gaussian vector draws per pass


PARTS = {p.name: p for p in (
    Part(
        "posterior-linear",
        (Command("posterior-validate", POSTERIOR_VALIDATE, criteria=2),),
        chain_steps=POSTERIOR_VALIDATE["burn_in"] + POSTERIOR_VALIDATE["kept"],
        mc_samples=POSTERIOR_VALIDATE["burn_in"] + POSTERIOR_VALIDATE["kept"],
    ),
    Part(
        "two-layer-rates",
        (Command("regression-rate", REGRESSION_RATE, criteria=1,
                 sweep=("n", ",".join(str(n) for n in REGRESSION_NS))),),
        chain_steps=len(REGRESSION_NS) * REGRESSION_RATE["steps"],
        mc_samples=len(REGRESSION_NS) * REGRESSION_RATE["steps"],
    ),
    Part(
        "coupled-stepwise",
        (Command("ergodicity", ERGODICITY, criteria=2),),
        chain_steps=2 * ERGODICITY["n_pairs"] * ERGODICITY["steps"],
        mc_samples=2 * ERGODICITY["n_pairs"] * ERGODICITY["steps"],
    ),
    Part(
        "mc-oracle",
        (Command("correlation-suite", CORRELATION_SUITE, criteria=1),
         Command("ou-moment", OU_MOMENT, criteria=2)),
        chain_steps=OU_GRID_SIZE * OU_MOMENT["steps"],
        mc_samples=(CORRELATION_SUITE["n_pairs"] * CORRELATION_SUITE["n_samples"]
                    + OU_GRID_SIZE * OU_MOMENT["steps"]),
    ),
)}


@dataclass(frozen=True)
class Workload:
    """Parts run one after another as one pass.

    Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
    """

    name: str
    parts: tuple

    @property
    def commands(self) -> tuple:
        return tuple(cmd for part in self.parts for cmd in part.commands)

    @property
    def chain_steps(self) -> int:
        return sum(part.chain_steps for part in self.parts)

    @property
    def mc_samples(self) -> int:
        return sum(part.mc_samples for part in self.parts)


# the workloads BENCHMARK.json lists, each pairing two parts so that a run is
# long enough to average out the drift in machine speed
WORKLOADS = {w.name: w for w in (
    Workload("linear-chains", (PARTS["posterior-linear"], PARTS["coupled-stepwise"])),
    Workload("two-layer-oracle", (PARTS["two-layer-rates"], PARTS["mc-oracle"])),
)}


def workload_named(name: str) -> Workload:
    """A workload of BENCHMARK.json, or a single part run on its own."""
    if name in WORKLOADS:
        return WORKLOADS[name]
    return Workload(name, (PARTS[name],))


def write_configs(workload: Workload, work_dir: Path) -> list[Path]:
    """One JSON config file per command, with every budget stated."""
    work_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, cmd in enumerate(workload.commands):
        path = work_dir / f"config-{i}-{cmd.preset}.json"
        path.write_text(json.dumps({"preset": cmd.preset, "overrides": cmd.overrides},
                                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str = ""
    parts: dict = field(default_factory=dict)   # part name -> PassResult of that part

    def add(self, other: "PassResult") -> None:
        self.wall_s += other.wall_s
        self.cpu_s += other.cpu_s
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def run_pass(cli, workload: Workload, configs: list[Path], out_dir: Path,
             seed: int) -> PassResult:
    """Run the workload's commands once through ``cli.main`` and check the outputs.

    ``cli.main`` is looked up on every call so that a tracer installed on the
    module sees it.  Only the commands are timed, not the checks.  The result
    sums its parts, which it also keeps one by one.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    result = PassResult()
    sink = io.StringIO()
    configs = iter(configs)
    for part in workload.parts:
        part_result = PassResult()
        for cmd, config in zip(part.commands, configs):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            with redirect_stdout(sink), redirect_stderr(sink):
                try:
                    code = cli.main(cmd.argv(config, out_dir, seed))
                except SystemExit as exc:        # argparse rejects the arguments
                    code = f"SystemExit({exc.code})"
                except Exception as exc:         # a crash fails the command, not the benchmark
                    code = f"{type(exc).__name__}: {exc}"
            part_result.wall_s += time.perf_counter() - wall0
            part_result.cpu_s += time.process_time() - cpu0
            statuses, problems = check_command(cmd, code, out_dir, seed)
            if statuses is None:
                statuses = [False] * cmd.criteria
            part_result.attempted += len(statuses)
            part_result.failed += statuses.count(False)
            part_result.problems += [f"{cmd.label}: {p}" for p in problems]
        result.parts[part.name] = part_result
        result.add(part_result)
    result.digest = artifact_digest(out_dir)
    return result


def _report_statuses(report: Path) -> tuple[list[bool], list[str]]:
    statuses, overall, problems = [], None, []
    for line in report.read_text(encoding="utf-8").splitlines():
        if line.startswith("[PASS]") or line.startswith("[FAIL]"):
            statuses.append(line.startswith("[PASS]"))
        elif line.startswith("overall: "):
            overall = line[len("overall: "):]
    if overall != ("PASS" if all(statuses) else "FAIL"):
        problems.append(f"{report.name} says overall {overall!r} for statuses {statuses}")
    return statuses, problems


def check_command(cmd: Command, code, out_dir: Path, seed: int):
    """Criterion statuses from the command's artifacts, and what is wrong with them.

    Exit 0 and 1 must come with a consistent report; any other exit or an
    exception leaves the statuses unknown (None), and the caller fails every
    criterion of the command.
    """
    if code not in (0, 1):
        return None, [f"exit {code!r}"]
    adir = cmd.artifact_dir(out_dir)
    try:
        if cmd.sweep:
            statuses, problems = [], []
            runs = sorted(adir.glob(f"{cmd.sweep[0]}=*"))
            if len(runs) != len(cmd.sweep[1].split(",")):
                problems.append(f"{len(runs)} per-value artifact directories")
            for run in runs:
                s, p = _report_statuses(run / "report.txt")
                statuses += s
                problems += p
            fit = (adir / "sweep.csv").read_text(encoding="utf-8").splitlines()[-1].split(",")
            if fit[0] != "fit" or fit[3] not in ("True", "False"):
                problems.append(f"sweep.csv fit row {fit}")
            statuses.append(fit[3] == "True")
        else:
            statuses, problems = _report_statuses(adir / "report.txt")
            provenance = json.loads((adir / "provenance.json").read_text(encoding="utf-8"))
            if provenance.get("seed") != seed or provenance.get("preset") != cmd.preset:
                problems.append(f"provenance.json names seed {provenance.get('seed')!r}, "
                                f"preset {provenance.get('preset')!r}")
            if not (adir / "results.csv").is_file():
                problems.append("results.csv missing")
    except (OSError, ValueError, IndexError) as exc:
        return None, [f"unreadable artifacts: {exc}"]
    if not statuses:
        problems.append("no criteria reported")
    if code != (0 if all(statuses) else 1):
        problems.append(f"exit {code} does not match statuses {statuses}")
    return statuses, problems


def artifact_digest(out_dir: Path) -> str:
    """SHA-256 over every artifact, which the CLI writes byte-reproducibly."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()
