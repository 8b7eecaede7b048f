"""Per-layer tracer installed from outside the package.

The tracer replaces chosen public functions of ``transport_langevin`` modules
with timing wrappers, on every module namespace that binds the function
object, so calls made through ``from .x import f`` bindings are seen as well
as calls through ``module.f``.  Each wrapper opens a span; a span's self time
is its duration minus the time covered by the spans it caused.  Spans are
aggregated per layer in memory (count, total and self seconds, work units,
exceptions raised) rather than kept one by one, because the chain workloads
open hundreds of thousands of them per pass.

Only functions looked up at call time are seen: a reference captured before
the tracer was installed keeps calling the original.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

PACKAGE = "transport_langevin"


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.function`` counted under ``layer``.

    ``work_arg`` names a parameter whose value (or whose ``.steps``, for a
    dynamics config) is added to the layer's work count on every call.
    """

    module: str
    function: str
    layer: str
    work_arg: Optional[str] = None


# the layers the benchmark reports, in report order
LAYERS = (
    Target("spectral", "eval_basis", "spectral.eval_basis"),
    Target("spectral", "gram_eigenbasis", "spectral.gram_eigenbasis"),
    Target("spectral", "resolvent_S_eta", "spectral.resolvent_S_eta"),
    Target("models", "gradient", "models.gradient"),
    Target("models", "forward", "models.forward"),
    Target("models", "empirical_risk", "models.empirical_risk"),
    Target("losses", "loss_eval_derivs", "losses.loss_eval_derivs"),
    Target("langevin", "run_chain", "langevin.run_chain", work_arg="cfg"),
    Target("langevin", "gld_step", "langevin.gld_step"),
    Target("langevin", "simulate_ou_sq_norms", "langevin.simulate_ou_sq_norms",
           work_arg="n_steps"),
    Target("oracle", "gaussian_correlation_mc", "oracle.gaussian_correlation_mc",
           work_arg="n_samples"),
    Target("oracle", "batch_means_stderr", "oracle.batch_means_stderr"),
    Target("oracle", "conjugate_posterior", "oracle.conjugate_posterior"),
    Target("experiments", "run_preset", "experiments.run_preset"),
    Target("cli", "main", "cli.main"),
)

ANALYSIS_LAYER = "analysis"


def analysis_targets() -> list[Target]:
    """Every public function defined in ``analysis``, counted as one layer."""
    mod = sys.modules[f"{PACKAGE}.analysis"]
    return [Target("analysis", name, ANALYSIS_LAYER)
            for name, fn in vars(mod).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == mod.__name__]


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0
    errors: dict = field(default_factory=dict)   # exception class name -> count


def _work_counter(fn: Callable, arg: str) -> Callable:
    sig = inspect.signature(fn)

    def count(args, kwargs) -> int:
        value = sig.bind(*args, **kwargs).arguments[arg]
        return int(getattr(value, "steps", value))

    return count


class Tracer:
    """Install with ``with Tracer(targets) as t:``; read ``t.stats`` after."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.stats: dict[str, LayerStats] = {}
        self.bindings: dict[str, int] = {}   # "module.function" -> namespaces patched
        self._open: list[float] = []         # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, stats: LayerStats, count: Optional[Callable]) -> Callable:
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                name = type(exc).__name__
                stats.errors[name] = stats.errors.get(name, 0) + 1
                raise
            finally:
                span = clock() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += span
                stats.calls += 1
                stats.total_s += span
                stats.self_s += span - child
                if count is not None:
                    stats.work += count(args, kwargs)

        return traced

    def install(self):
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for target in self.targets:
            module = sys.modules[f"{PACKAGE}.{target.module}"]
            original = getattr(module, target.function)
            stats = self.stats.setdefault(target.layer, LayerStats())
            count = _work_counter(original, target.work_arg) if target.work_arg else None
            wrapper = self._wrap(original, stats, count)
            patched = 0
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
                        patched += 1
            self.bindings[f"{target.module}.{target.function}"] = patched
        return self

    def uninstall(self):
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    def __enter__(self):
        try:
            return self.install()
        except BaseException:
            self.uninstall()
            raise

    def __exit__(self, *exc):
        self.uninstall()
        return False
