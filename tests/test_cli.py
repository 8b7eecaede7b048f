import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import transport_langevin
from transport_langevin import cli
from transport_langevin import experiments as ex


def _write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_run_writes_artifacts_and_passes(tmp_path):
    cfg = _write_cfg(tmp_path, {"preset": "bernstein-suite", "seed": 0,
                                "overrides": {"step": 0.02}})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    out = tmp_path / "out" / "bernstein-suite"
    assert (out / "results.csv").exists()
    assert (out / "report.txt").exists()
    prov = json.loads((out / "provenance.json").read_text())
    assert {"config_hash", "seed", "preset", "package_version", "numpy_version"} <= set(prov)
    text = (out / "results.csv").read_text()
    assert text.startswith("# config_hash=")
    assert "PASS" in (out / "report.txt").read_text()


def test_run_is_byte_reproducible(tmp_path):
    cfg = _write_cfg(tmp_path, {"preset": "grad-check", "seed": 3,
                                "overrides": {"n_configs": 5}})
    rc1 = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
    rc2 = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    for name in ("results.csv", "report.txt", "provenance.json"):
        a = (tmp_path / "a" / "grad-check" / name).read_bytes()
        b = (tmp_path / "b" / "grad-check" / name).read_bytes()
        assert a == b, name


# every preset at a reduced budget, for the cross-process reproducibility check; ergodicity's
# two pairs and pac-bayes's two seeds run as stacks of chains, whose batched products must not
# depend on the BLAS thread count either
_REDUCED = {
    "posterior-validate": {"burn_in": 500, "kept": 2000},
    "ou-moment": {"steps": 3000, "burn_in": 500},
    "stepsize-bias": {"kept": 2000, "ref_kept": 4000},
    "ergodicity": {"steps": 50, "n_pairs": 2},
    "grad-check": {"n_configs": 4},
    "lipschitz-suite": {"n_pairs": 20, "n_grid": 64},
    "bernstein-suite": {"step": 0.05},
    "correlation-suite": {"n_pairs": 3, "n_samples": 20_000},
    "regression-rate": {"steps": 400, "burn_in": 200},
    "classification-rate": {"steps": 300, "burn_in": 100, "thin": 10},
    "finite-width-demo": {"max_steps": 500, "check_every": 50},
    "wasserstein-demo": {"steps": 400},
    "pac-bayes": {"n_seeds": 2, "steps": 400, "burn_in": 100, "ref_steps": 400},
}

# runs each config named on the command line through cli.main; prints the exit codes
_RUN_ALL = """
import json, sys
from transport_langevin import cli
out = sys.argv[1]
print(json.dumps([cli.main(["run", "--config", c, "--out", out]) for c in sys.argv[2:]]))
"""


def test_grad_check_is_byte_identical_across_hash_seeds(tmp_path):
    # string hashing is salted per process, and the BLAS may split a product over threads;
    # no draw or sum of any preset may depend on either
    assert set(_REDUCED) == set(ex.PRESETS)
    cfgs = [_write_cfg(tmp_path, {"preset": preset, "seed": 3, "overrides": overrides},
                       name=f"{preset}.json") for preset, overrides in _REDUCED.items()]
    src = str(Path(transport_langevin.__file__).resolve().parents[1])
    codes = []
    for hash_seed, blas_threads in (("0", "1"), ("1", "2")):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src,
                   OPENBLAS_NUM_THREADS=blas_threads)
        proc = subprocess.run([sys.executable, "-c", _RUN_ALL, str(tmp_path / f"h{hash_seed}"),
                               *cfgs], env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        codes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    # some presets fail their criteria at these budgets; both processes must agree
    assert codes[0] == codes[1] and set(codes[0]) <= {0, 1}
    assert codes[0][list(_REDUCED).index("grad-check")] == 0
    for preset in _REDUCED:
        for name in ("results.csv", "report.txt", "provenance.json"):
            a = (tmp_path / "h0" / preset / name).read_bytes()
            assert a == (tmp_path / "h1" / preset / name).read_bytes(), (preset, name)


def test_unknown_top_level_key_is_status_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"preset": "grad-check", "bogus": 1})
    rc = cli.main(["run", "--config", cfg])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_unknown_override_key_is_status_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"preset": "grad-check", "overrides": {"n_cfg": 5}})
    rc = cli.main(["run", "--config", cfg])
    assert rc == 2
    assert "n_cfg" in capsys.readouterr().err


@pytest.mark.parametrize("payload, needle", [
    ({"preset": "regression-rate", "overrides": {"n": 64.7}}, "'n'"),
    ({"preset": "grad-check", "overrides": {"n_configs": 0}}, "'n_configs'"),
    ({"preset": "stepsize-bias", "overrides": {"etas": "abc"}}, "'etas'"),
    ({"preset": "posterior-validate", "overrides": {"eta": "0.1"}}, "'eta'"),
    ({"preset": "bernstein-suite", "seed": -1}, "seed"),
    ({"preset": "posterior-validate", "overrides": {"eta": -1.0}}, "'eta'"),
    ({"preset": "regression-rate", "overrides": {"R": 0.5}}, "'R'"),
    ({"preset": "ergodicity", "overrides": {"lam": float("nan")}}, "'lam'"),
    ({"preset": "stepsize-bias", "overrides": {"etas": [0.1, float("inf")]}}, "'etas'"),
    ({"preset": "ergodicity", "overrides": {"beta": 0.01}}, "'beta' > 'eta'"),
    ({"preset": "posterior-validate", "overrides": {"eta": 60.0}}, "'eta'"),
    ({"preset": "regression-rate", "overrides": {"eta": 300.0}}, "'eta'"),
    ({"preset": "stepsize-bias", "overrides": {"etas": [0.1, 0.05]}}, "'etas'"),
    ({"preset": "regression-rate", "overrides": {"steps": 1000, "burn_in": 1000}},
     "(steps=1000, burn_in=1000, thin=10) record 0 sample(s)"),
    ({"preset": "regression-rate", "overrides": {"steps": 1000, "burn_in": 500, "thin": 600}},
     "(steps=1000, burn_in=500, thin=600) record 0 sample(s)"),
    ({"preset": "classification-rate", "overrides": {"steps": 1000, "burn_in": 1000}},
     "(steps=1000, burn_in=1000, thin=50) record 0 sample(s)"),
    ({"preset": "finite-width-demo", "overrides": {"max_steps": 200, "check_every": 250}},
     "(max_steps=200, check_every=250) record 0 sample(s)"),
    ({"preset": "ou-moment", "overrides": {"steps": 1000, "burn_in": 1000}},
     "(steps=1000, burn_in=1000) record 0 sample(s)"),
    ({"preset": "ou-moment", "overrides": {"steps": 1001, "burn_in": 1000}},
     "record 1 sample(s) of a chain, fewer than the 2 it needs"),
    ({"preset": "posterior-validate", "overrides": {"kept": 1}},
     "(kept=1) record 1 sample(s) of a chain, fewer than the 2"),
    ({"preset": "stepsize-bias", "overrides": {"ref_kept": 1}}, "(ref_kept=1) record 1 sample(s)"),
    ({"preset": "ergodicity", "overrides": {"steps": 2, "n_pairs": 1}},
     "override 'steps' for preset 'ergodicity' must be an integer >= 4"),
    ({"preset": "correlation-suite", "overrides": {"n_samples": 1}},
     "override 'n_samples' for preset 'correlation-suite' must be an integer >= 2"),
    ({"preset": "correlation-suite", "overrides": {"max_dim": 35}},
     "override 'max_dim' for preset 'correlation-suite' must be <= 16"),
    ({"preset": "classification-rate", "overrides": {"n_modes": 1}},
     "override 'n_modes' for preset 'classification-rate' must be an integer >= 2"),
    ({"preset": "wasserstein-demo", "overrides": {"n_modes": 30}},
     "need 'n_modes' <= 'n_source' (its basis is built on the source points), "
     "got n_modes=30 and n_source=24"),
    ({"preset": "regression-rate", "overrides": {"d": 3}},
     "override 'd' for preset 'regression-rate' must be 2"),
    ({"preset": "finite-width-demo", "overrides": {"d": 1}},
     "override 'd' for preset 'finite-width-demo' must be 2"),
    ({"preset": "bernstein-suite", "overrides": {"step": 1e-6}},
     "override 'step' for preset 'bernstein-suite' must give at most 1000 grid values per axis"),
    ({"preset": "bernstein-suite", "overrides": {"step": 0.0}},
     "override 'step' for preset 'bernstein-suite' must be a finite number > 0"),
    ({"preset": "bernstein-suite", "overrides": {"step": -0.01}},
     "override 'step' for preset 'bernstein-suite' must be a finite number > 0"),
    ({"preset": "bernstein-suite", "overrides": {"radii": [0.0]}},
     "override 'radii' for preset 'bernstein-suite' must be a finite number > 0"),
    ({"preset": "bernstein-suite", "overrides": {"radii": [1.0, -1.0]}},
     "override 'radii' for preset 'bernstein-suite' must be a finite number > 0"),
    ({"preset": "grad-check", "overrides": {"step": 0.0}},
     "override 'step' for preset 'grad-check' must be a finite number > 0"),
    ({"preset": "pac-bayes", "overrides": {"eta": 64.0}},
     "need 'n' > 'eta' (the chain runs at beta = n), got n=64 and eta=64.0"),
    ({"preset": "pac-bayes", "overrides": {"ref_eta_factor": 0.0}},
     "override 'ref_eta_factor' for preset 'pac-bayes' must be a finite number > 0"),
    ({"preset": "pac-bayes", "overrides": {"n": 16, "eta": 1.0, "ref_eta_factor": 16.0}},
     "need 'n' > 'eta' * 'ref_eta_factor', got n=16, eta=1.0 and ref_eta_factor=16.0"),
    ({"preset": "pac-bayes", "overrides": {"ref_steps": 4005}},
     "need 'ref_steps' >= 2 * 'burn_in' + 'thin', got ref_steps=4005, burn_in=2000 and "
     "thin=10"),
    ({"preset": "pac-bayes", "overrides": {"steps": 2000, "burn_in": 2000}},
     "(steps=2000, burn_in=2000, thin=10) record 0 sample(s)"),
    ({"preset": "grad-check", "overrides": {"n_configs": 10 ** 400}},
     "override 'n_configs' for preset 'grad-check' must be a finite number >= 1"),
    ({"preset": "grad-check", "overrides": {"tol": 10 ** 400}},
     "override 'tol' for preset 'grad-check' must be a finite number"),
    ({"preset": "bernstein-suite", "overrides": {"step": 1e-310}},
     "override 'step' for preset 'bernstein-suite' must give at most 1000 grid values per axis"),
], ids=["non-integral-int", "zero-count", "string-for-list", "string-for-number",
        "negative-seed", "negative-eta", "clip-radius-below-1", "nan-float",
        "inf-in-list", "beta-not-above-eta", "eta-not-below-n-posterior",
        "eta-not-below-n-regression", "too-few-etas-for-the-bias-fit",
        "regression-burn-in-takes-every-step", "regression-thin-beyond-the-run",
        "classification-burn-in-takes-every-step", "finite-width-check-beyond-the-run",
        "ou-moment-burn-in-takes-every-step", "ou-moment-one-sample-no-stderr",
        "posterior-one-kept-no-stderr", "stepsize-bias-one-reference-sample",
        "ergodicity-too-few-steps-for-the-decay-fit", "correlation-one-sample-no-covariance",
        "correlation-dim-beyond-the-oracle-cap", "classification-one-mode-no-teacher",
        "wasserstein-more-modes-than-source-points", "regression-d-not-2",
        "finite-width-d-not-2", "bernstein-grid-beyond-the-cap", "bernstein-zero-step",
        "bernstein-negative-step", "bernstein-zero-radius", "bernstein-negative-radius",
        "grad-check-zero-step", "pac-bayes-eta-not-below-n", "pac-bayes-zero-ref-eta-factor",
        "pac-bayes-reference-eta-not-below-n", "pac-bayes-reference-records-nothing",
        "pac-bayes-burn-in-takes-every-step", "int-beyond-float-range-for-an-int-key",
        "int-beyond-float-range-for-a-float-key", "bernstein-step-with-infinitely-many-values"])
def test_bad_override_value_is_status_2(tmp_path, capsys, monkeypatch, payload, needle):
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain ran before the overrides were checked")

    monkeypatch.setattr(ex.lg, "run_chain", no_chain)
    monkeypatch.setattr(ex.lg, "run_chains", no_chain)
    cfg = _write_cfg(tmp_path, payload)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in (err := capsys.readouterr().err) and needle in err
    assert not (tmp_path / "o").exists()


def test_ergodicity_with_too_few_gaps_above_the_floor_fails_without_a_traceback(tmp_path):
    # no gap clears the floor, so there is no decay to fit: failed criteria, not a ValueError
    cfg = _write_cfg(tmp_path, {"preset": "ergodicity",
                                "overrides": {"gap_floor": 1e6, "steps": 10, "n_pairs": 1}})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    report = (tmp_path / "o" / "ergodicity" / "report.txt").read_text()
    assert "[FAIL] ergodicity-r2: measured=nan" in report
    assert "[FAIL] ergodicity-rate: measured=nan" in report


def test_internal_key_error_is_not_a_config_error(monkeypatch):
    def broken(seed=0, overrides=None):
        return {}["missing"]

    monkeypatch.setitem(ex.PRESETS, "bernstein-suite", broken)
    with pytest.raises(KeyError, match="missing"):
        cli.main(["run", "--preset", "bernstein-suite"])


def test_threads_is_a_sweep_only_flag():
    # sweeps run serially; no subcommand takes --threads
    for argv in (["run", "--preset", "bernstein-suite"],
                 ["sweep", "--preset", "bernstein-suite", "--axis", "n", "--values", "1"],
                 ["audit", "--preset", "bernstein-suite"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--threads", "2"])
        assert exc.value.code == 2, argv[0]


def test_parse_failure_reports_line_and_column(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"preset": "grad-check",\n  "seed": }')
    rc = cli.main(["run", "--config", str(p)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_an_integer_past_the_digit_limit_is_status_2(tmp_path, capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an integer literal of
    # more digits than int() converts
    p = tmp_path / "huge.json"
    p.write_text('{"preset": "grad-check", "overrides": {"n_configs": 1' + "0" * 5000 + "}}")
    rc = cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error: config parse failure" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_preset_is_status_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"preset": "nope"})
    rc = cli.main(["run", "--config", cfg])
    assert rc == 2


def test_preset_list(capsys):
    rc = cli.main(["--preset-list"])
    assert rc == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(ex.PRESETS)
    assert len(out) == 13


def test_sweep_single_value_flags_insufficient(tmp_path):
    rc = cli.main(["sweep", "--preset", "regression-rate", "--axis", "n",
                   "--values", "64", "--out", str(tmp_path / "s"),
                   "--seed", "0"])
    assert rc == 0
    text = (tmp_path / "s" / "regression-rate-sweep-n" / "sweep.csv").read_text()
    assert "insufficient-points" in text


def test_sweep_bad_axis_is_status_2(tmp_path, capsys):
    # an unknown axis, an axis the preset lacks (stepsize-bias takes its step
    # sizes as one 'etas' list), a value its key rejects and a step size at or
    # above the beta = n the preset runs at all end before anything runs
    for preset, axis, values in (("regression-rate", "color", "1,2"),
                                 ("grad-check", "n", "1,2"),
                                 ("stepsize-bias", "eta", "0.2,0.1,0.05"),
                                 ("regression-rate", "M", "0.5"),
                                 ("regression-rate", "eta", "0.05,300")):
        rc = cli.main(["sweep", "--preset", preset, "--axis", axis, "--values", values,
                       "--out", str(tmp_path / "s")])
        assert rc == 2, (preset, axis)
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


def test_sweep_is_byte_reproducible(tmp_path):
    args = ["sweep", "--preset", "regression-rate", "--axis", "n",
            "--values", "64,128,256",
            "--seed", "2"]
    ov = {"overrides": {"steps": 1500, "burn_in": 500}, "preset": "regression-rate"}
    cfg = _write_cfg(tmp_path, ov)
    rc1 = cli.main(args + ["--config", cfg, "--out", str(tmp_path / "a")])
    rc2 = cli.main(args + ["--config", cfg, "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                   if p.is_file())
    assert files == sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*")
                           if p.is_file())
    assert len(files) == 1 + 3 * 3   # sweep.csv and three artifacts per value
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def _csv_rows(path):
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines if not line.startswith("#")][1:]


def test_cli_sweep_matches_the_library_sweep(tmp_path):
    # the CLI writes the runs and the fit row of experiments.sweep, and exits by the verdict
    overrides = {"steps": 1500, "burn_in": 500}
    ns = (64.0, 128.0, 256.0, 512.0)
    results, fit = ex.sweep("regression-rate", "n", ns, seed=0, overrides=overrides)
    cfg = _write_cfg(tmp_path, {"preset": "regression-rate", "overrides": overrides})
    rc = cli.main(["sweep", "--config", cfg, "--axis", "n", "--seed", "0",
                   "--values", ",".join(map(str, ns)), "--out", str(tmp_path / "s")])
    assert all(r.passed for r in results) and isinstance(fit[3], bool)
    assert rc == (0 if fit[3] else 1)
    rows = _csv_rows(tmp_path / "s" / "regression-rate-sweep-n" / "sweep.csv")
    # sweep.csv columns: n, extra_excess_risk, extra_n
    assert rows[:-1] == [[cli._fmt(n), cli._fmt(r.extras["excess_risk"]), str(r.extras["n"])]
                         for n, r in zip(ns, results)]
    assert rows[-1] == [cli._fmt(v) for v in fit]
    assert fit[1] == "excess-risk-slope"


def test_classification_rate_fails_its_low_noise_audit_below_the_margin(tmp_path):
    # the default margin 4.5 clears the 0.3 gap on the generator grid; a margin of 1 does not
    budget = {"steps": 300, "burn_in": 100, "thin": 10}
    for margin, code, status in ((4.5, 0, "PASS"), (1.0, 1, "FAIL")):
        cfg = _write_cfg(tmp_path, {"preset": "classification-rate", "seed": 0,
                                    "overrides": {**budget, "margin_amp": margin}})
        out = tmp_path / f"m{margin}"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == code
        report = (out / "classification-rate" / "report.txt").read_text()
        assert f"[{status}] classification-low-noise-audit: measured=" in report
    assert "measured=0.0870299 " in report


def test_sweep_zero_error_below_max_beta_is_status_1(tmp_path, monkeypatch):
    # zero error at a smaller beta only fails the exponential-rate fit
    errors = {25.0: 0.5, 50.0: 0.0, 100.0: 0.1, 200.0: 0.05}

    def fake(seed=0, overrides=None):
        beta = float(overrides["beta"])
        return ex.ExperimentResult("classification-rate", seed, [], ["beta", "error_prob"],
                                   [[beta, errors[beta]]],
                                   extras={"error_prob": errors[beta], "beta": beta})

    monkeypatch.setitem(ex.PRESETS, "classification-rate", fake)
    rc = cli.main(["sweep", "--preset", "classification-rate", "--axis", "beta",
                   "--values", "25,50,100,200", "--out", str(tmp_path / "s")])
    assert rc == 1
    fit = _csv_rows(tmp_path / "s" / "classification-rate-sweep-beta" / "sweep.csv")[-1]
    assert fit[:2] == ["fit", "zero-error-below-max-beta"] and fit[3] == "False"


def test_sweep_failed_run_without_a_fit_is_status_1(tmp_path, monkeypatch):
    # a sweep with no fit for its axis still fails when one of its runs fails
    def fake(seed=0, overrides=None):
        crit = ex.CriterionResult("posterior-mean-z", overrides["eta"] < 0.002, 0.0, "<= 3")
        return ex.ExperimentResult("posterior-validate", seed, [crit], ["mode"], [[0]],
                                   extras={"max_z": 0.0})

    monkeypatch.setitem(ex.PRESETS, "posterior-validate", fake)
    rc = cli.main(["sweep", "--preset", "posterior-validate", "--axis", "eta",
                   "--values", "0.001,0.003", "--out", str(tmp_path / "s")])
    assert rc == 1


def test_divergence_is_status_3(tmp_path, capsys):
    # a grossly unstable step size blows the linear chain up to non-finite
    # coefficients; the run must abort with status 3 and say where
    cfg = _write_cfg(tmp_path, {"preset": "posterior-validate",
                                "overrides": {"eta": 10.0, "kept": 5000,
                                              "burn_in": 0}})
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


def test_audit_subcommand(capsys):
    rc = cli.main(["audit", "--preset", "classification-rate", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "strong-low-noise" in out
    # bernstein-suite checks an inequality on a grid; wasserstein-demo trains a transport
    # map between two unlabelled samples: neither fits a model to labelled data
    for preset in ("bernstein-suite", "wasserstein-demo"):
        assert cli.main(["audit", "--preset", preset]) == 2
        assert capsys.readouterr().err == (
            f"no assumption audit defined for preset {preset!r} (it fits no model to "
            "labelled data by a squared or logistic loss)\n")


class _FirstChain(Exception):
    pass


def test_audit_of_pac_bayes_reads_the_first_seed_of_the_preset(capsys, monkeypatch):
    # the audit of pac-bayes at seed s is the audit of the network and training set its
    # first chain, seed s's, trains on: the first member of its first stack
    from transport_langevin import analysis as an

    def first_stack(cfg, models, loss_kind, datasets, seeds, **kwargs):
        assert seeds[0] == 2
        raise _FirstChain(models[0], loss_kind, datasets[0])

    with monkeypatch.context() as m:
        m.setattr(ex.lg, "run_chains", first_stack)
        with pytest.raises(_FirstChain) as caught:
            ex.run_preset("pac-bayes", seed=2)
    model, loss_kind, data = caught.value.args
    assert cli.main(["audit", "--preset", "pac-bayes", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert out == an.assumption_audit(model.basis, model, loss_kind, data).render() + "\n"
    assert cli.main(["audit", "--preset", "pac-bayes", "--seed", "3"]) == 0
    assert capsys.readouterr().out != out


def test_audit_reads_the_setup_of_the_preset_and_its_overrides(tmp_path, capsys):
    def audit(preset, overrides=None):
        cfg = _write_cfg(tmp_path, {"preset": preset, "overrides": overrides or {}})
        assert cli.main(["audit", "--config", cfg]) == 0
        return capsys.readouterr().out

    # ergodicity trains on the linear-Gaussian setup with 4 modes and n = 24: posterior-validate
    # with those two overrides has the same setup, and its own defaults (8 modes, n = 50) another
    ergodicity = audit("ergodicity")
    assert audit("posterior-validate", {"n_modes": 4, "n": 24}) == ergodicity
    assert audit("posterior-validate") != ergodicity
    assert audit("stepsize-bias") != ergodicity                  # 3 modes
    for preset, overrides in (("classification-rate", {"n": 120}),
                              ("regression-rate", {"n": 64}),
                              ("finite-width-demo", {"n": 24}),
                              ("pac-bayes", {"n": 32})):
        assert audit(preset, overrides) != audit(preset), preset


_FOOTPRINT_PROBE = """
import json, sys
from pathlib import Path
import transport_langevin.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": scipy_modules()}
for preset, overrides in json.loads(sys.argv[1]):
    cfg = Path(sys.argv[2]) / (preset + ".json")
    cfg.write_text(json.dumps({"preset": preset, "seed": 0, "overrides": overrides}))
    cli.main(["run", "--config", str(cfg), "--out", sys.argv[2]])
    seen[preset] = scipy_modules()
print(json.dumps(seen))
"""


def test_import_loads_no_thread_pool_module():
    # correlation-suite imports concurrent.futures, and with it logging, when it runs;
    # importing the package, as every benchmark set-up does, loads neither
    src = str(Path(transport_langevin.__file__).resolve().parents[1])
    probe = ("import sys, transport_langevin.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_import_and_squared_loss_presets_load_no_scipy(tmp_path):
    # the package and the benchmark presets run on numpy alone; the logistic
    # loss is the one caller of scipy, which a classification run loads
    runs = [("posterior-validate", {"burn_in": 500, "kept": 2000}),
            ("ergodicity", {"steps": 50, "n_pairs": 2}),
            ("regression-rate", {"steps": 400, "burn_in": 200}),
            ("correlation-suite", {"n_pairs": 3, "n_samples": 20_000}),
            ("ou-moment", {"steps": 3000, "burn_in": 500}),
            ("classification-rate", {"steps": 300, "burn_in": 100, "thin": 10})]
    src = str(Path(transport_langevin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_PROBE, json.dumps(runs),
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(seen) == ["import"] + [preset for preset, _ in runs]
    for step in list(seen)[:-1]:
        assert seen[step] == [], step
    assert "scipy.special" in seen["classification-rate"]
