"""Config-driven experiment runner.

Subcommands:

* ``run``    execute one preset, writing results.csv, report.txt and
             provenance.json into the output directory;
* ``sweep``  run a preset across an axis of values and append the fit row;
* ``audit``  print the assumption audit for a preset's setup.

Exit statuses: 0 all criteria passed, 1 criteria failed, 2 configuration
error, 3 runtime divergence.  Artifacts are byte-reproducible for a fixed
(config, seed) pair and carry the config hash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import experiments as ex
from .langevin import ChainDivergedError

_TOP_KEYS = {"preset", "seed", "output_dir", "overrides"}


class ConfigError(ValueError):
    pass


def _load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse failure at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:     # an integer literal past Python's digit limit
        raise ConfigError(f"config parse failure: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
    if "preset" not in cfg:
        raise ConfigError("config must name a preset")
    if cfg["preset"] not in ex.PRESETS:
        raise ConfigError(f"unknown preset {cfg['preset']!r}; use --preset-list")
    overrides = cfg.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError("overrides must be an object")
    _check_overrides(cfg["preset"], overrides)
    return cfg


def _check_overrides(preset: str, overrides: dict):
    """Raise ConfigError unless every override is a key of the preset with a valid value."""
    try:
        ex._merged(preset, overrides)
    except (KeyError, ValueError) as exc:
        raise ConfigError(exc.args[0]) from exc


def _seed(args, cfg: dict) -> int:
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_csv(path, header, rows, config_hash, seed):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={config_hash}\n# seed={seed}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_artifacts(result: ex.ExperimentResult, out_dir: Path, config_hash: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "results.csv", result.table_header, result.table_rows,
               config_hash, result.seed)
    report = "\n".join(result.report_lines()) + "\n"
    (out_dir / "report.txt").write_text(f"# config_hash={config_hash}\n" + report,
                                        encoding="utf-8")
    provenance = {
        "config_hash": config_hash,
        "seed": result.seed,
        "preset": result.preset,
        "package_version": __version__,
        "numpy_version": np.__version__,
    }
    (out_dir / "provenance.json").write_text(
        json.dumps(provenance, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _cmd_run(args) -> int:
    cfg = _resolve_config(args)
    seed = _seed(args, cfg)
    out_dir = Path(args.out or cfg.get("output_dir", "out")) / cfg["preset"]
    try:
        result = ex.run_preset(cfg["preset"], seed=seed, overrides=cfg.get("overrides", {}))
    except ChainDivergedError as exc:
        print(f"runtime divergence: {exc}", file=sys.stderr)
        return 3
    _write_artifacts(result, out_dir, _config_hash({**cfg, "seed": seed}))
    print("\n".join(result.report_lines()))
    return 0 if result.passed else 1


def _cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    if args.axis not in ex.SWEEPABLE_AXES:
        raise ConfigError(f"axis {args.axis!r} not sweepable (choose from {ex.SWEEPABLE_AXES})")
    try:
        values = [float(v) for v in args.values.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values: {exc}") from exc
    if not values:
        raise ConfigError("no sweep values given")
    seed = _seed(args, cfg)
    preset = cfg["preset"]
    base_overrides = cfg.get("overrides", {})
    # every value is checked against the preset's own keys before any run starts
    for value in values:
        _check_overrides(preset, {**base_overrides, args.axis: value})

    try:
        results, fit_row = ex.sweep(preset, args.axis, values, seed, base_overrides)
    except ChainDivergedError as exc:
        print(f"runtime divergence: {exc}", file=sys.stderr)
        return 3

    out_dir = Path(args.out or cfg.get("output_dir", "out")) / f"{preset}-sweep-{args.axis}"
    out_dir.mkdir(parents=True, exist_ok=True)
    config_hash = _config_hash({**cfg, "seed": seed, "sweep": [args.axis, values]})
    keys = [k for k in sorted(results[0].extras) if not isinstance(results[0].extras[k], list)]
    header = [args.axis] + [f"extra_{k}" for k in keys]
    rows = [[v] + [r.extras[k] for k in keys] for v, r in zip(values, results)]
    for v, r in zip(values, results):
        _write_artifacts(r, out_dir / f"{args.axis}={_fmt(v)}", config_hash)
    rows.append(fit_row + [""] * (len(header) - len(fit_row)))
    _write_csv(out_dir / "sweep.csv", header, rows, config_hash, seed)
    print(f"sweep of {preset} over {args.axis}: {values}")
    print("fit:", fit_row)
    # a string verdict (no fit, too few values) fails nothing
    return 0 if all(r.passed for r in results) and fit_row[3] is not False else 1


def _cmd_audit(args) -> int:
    cfg = _resolve_config(args)
    seed = _seed(args, cfg)
    setup = ex._audit_setup(cfg["preset"], seed, cfg.get("overrides", {}))
    if setup is None:
        print(f"no assumption audit defined for preset {cfg['preset']!r} (it fits no model "
              "to labelled data by a squared or logistic loss)", file=sys.stderr)
        return 2
    from . import analysis as an
    model, loss_kind, data, class_probs = setup
    print(an.assumption_audit(model.basis, model, loss_kind, data,
                              class_probs=class_probs).render())
    return 0


def _resolve_config(args) -> dict:
    if args.config:
        return _load_config(args.config)
    if args.preset:
        if args.preset not in ex.PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; use --preset-list")
        return {"preset": args.preset, "seed": 0, "overrides": {}}
    raise ConfigError("either --config or --preset is required")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transport-langevin",
        description="Experiment runner for transport-map Langevin training")
    parser.add_argument("--preset-list", action="store_true",
                        help="list available presets and exit")
    sub = parser.add_subparsers(dest="command")
    for name, help_text in (("run", "run one preset"),
                            ("sweep", "run a preset across an axis"),
                            ("audit", "print the assumption audit for a preset setup")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", help="preset name (instead of a config file)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", help="output directory")
        if name == "sweep":
            p.add_argument("--axis", required=True, help="parameter to sweep")
            p.add_argument("--values", required=True, help="comma-separated values")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.preset_list:
        for name in ex.PRESETS:
            print(name)
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_audit(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
