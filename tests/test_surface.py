"""The package's public surface: each module's ``__all__``, the package exports, and
the names the package no longer has."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import transport_langevin
from transport_langevin import langevin as lg
from transport_langevin import losses as ls
from transport_langevin import models as md
from transport_langevin import oracle as orc
from transport_langevin import spectral as sp

# every submodule but __main__, which runs the command line on import
_MODULES = sorted(m.name for m in pkgutil.iter_modules(transport_langevin.__path__)
                  if m.name != "__main__")

# names deleted with the checkpoint, JSON and i.i.d.-cloud code, criterion 12's own
# entry point, now the pac-bayes preset, and the activation choice; none may come back
_REMOVED = ("save_checkpoint", "load_checkpoint", "map_to_json", "map_from_json",
            "cloud_to_json", "cloud_from_json", "_basis_to_dict", "_basis_from_dict",
            "sample_cloud", "clip_deriv", "RateParams", "pac_bayes_check",
            "_PAC_BAYES_DEFAULTS", "_activation")


def _module(name):
    return importlib.import_module(f"transport_langevin.{name}")


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_exists(name):
    module = _module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, (name, missing)


def test_package_imports_only_what_its_modules_export():
    tree = ast.parse(Path(transport_langevin.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        exported = _module(node.module).__all__
        for alias in node.names:
            assert alias.name in exported, (node.module, alias.name)


def test_removed_names_are_gone():
    for owner in [transport_langevin] + [_module(name) for name in _MODULES]:
        present = [n for n in _REMOVED if hasattr(owner, n)]
        assert not present, (owner.__name__, present)
    assert "mode" not in {f.name for f in dataclasses.fields(md.ParticleCloud)}
    with pytest.raises(TypeError):
        md.ClipConfig(activation="tanh")
    # a chain runs on every mode of its basis: the config sets no mode count
    with pytest.raises(TypeError):
        lg.DynamicsConfig(eta=0.1, beta=1.0, lam=1.0, n_modes=3)
    assert [f.name for f in dataclasses.fields(lg.DynamicsConfig)] == [
        "eta", "beta", "lam", "steps", "burn_in", "thin", "seed"]
    # a basis has exactly the modes of its eigenvalues, and the small-ball oracles draw
    # every mode of their measure: neither takes a mode count
    assert [f.name for f in dataclasses.fields(sp.SpectralBasis)] == [
        "kind", "dim_in", "dim_out", "eigen", "basis_vectors", "anchor_points",
        "anchor_weights", "kernel_bandwidth", "frequencies"]
    with pytest.raises(TypeError):
        sp.SpectralBasis(kind="synthetic-diagonal", dim_in=2, dim_out=1, n_modes=2,
                         eigen=sp.make_eigen_sequence(1.0, 2.0, 2))
    assert list(inspect.signature(orc.small_ball_sq_norms).parameters) == [
        "spec", "n_samples", "rng"]
    assert list(inspect.signature(orc.small_ball_mc).parameters) == [
        "spec", "radius", "n_samples", "rng"]
    # LossBounds keeps the three constants smoothness_audit probes
    assert [f.name for f in dataclasses.fields(ls.LossBounds)] == ["B", "L_lip", "R_bar"]
    for removed in ("C_B", "s", "C_alpha_prime", "alpha_prime", "empirical"):
        with pytest.raises(TypeError):
            ls.LossBounds(B=1.0, L_lip=0.0, R_bar=1.0, **{removed: 1.0})


def _tracer_layers():
    """The targets of the benchmark's tracer, ``perfbench/tracer.py``'s ``LAYERS``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.LAYERS


def test_the_chain_entry_points_are_public_module_functions():
    # one chain, a stack of chains and one step; perfbench's tracer wraps the first and the
    # last by name, with their parameters
    for name in ("run_chain", "run_chains", "gld_step", "simulate_ou_sq_norms"):
        assert name in lg.__all__ and inspect.isfunction(getattr(lg, name)), name
    assert transport_langevin.run_chains is lg.run_chains
    assert list(inspect.signature(lg.run_chain).parameters)[:4] == [
        "cfg", "model", "loss_kind", "dataset"]
    assert list(inspect.signature(lg.run_chains).parameters)[:5] == [
        "cfg", "models", "loss_kind", "datasets", "seeds"]
    # every function the tracer wraps is a public function of its module, and takes the
    # parameter the tracer counts work by
    layers = _tracer_layers()
    assert layers
    for target in layers:
        module = _module(target.module)
        fn = getattr(module, target.function, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, target
        assert not target.function.startswith("_"), target
        assert target.function in getattr(module, "__all__", [target.function]), target
        if target.work_arg:
            assert target.work_arg in inspect.signature(fn).parameters, target
