"""Spans around the calls into each bolm layer, recorded from outside.

The tracer replaces public functions in the namespaces of the modules
that call them (``estimator.eta_to_pi_batch``, ``inference.fit``, ...)
with wrappers that append a span: name, start, end, the index of the
enclosing span and a small detail value.  Spans stay in memory until the
run ends.  Nothing under ``src/`` is edited; ``restore`` puts every
original back.

A name the program no longer has is skipped, so the layer reads as zero
work instead of breaking the benchmark when a later change renames it.
"""

from __future__ import annotations

import functools
import json
import statistics
from pathlib import Path
from time import perf_counter

# span fields
NAME, START, END, PARENT, DETAIL = range(5)

FIT = "estimator.fit"
ETA = "link_map.eta_to_pi"
JACOBIAN = "link_map.jacobian"
MASK = "link_map.compatible_mask"
DESIGN = "model_core.design"
OPERATOR = "penalties.operator"
ORDERING = "penalties.ordering"
LRP = "inference.lrp_statistic"
SAMPLE = "simulation.sample_dataset"
CLI = "cli.main"
PASS = "workload.pass"

TIMED_LAYERS = (ETA, JACOBIAN, MASK, DESIGN, OPERATOR, ORDERING, LRP, SAMPLE)


def _rows(args, kwargs, result):
    eta = args[0] if args else kwargs["eta"]
    return int(eta.shape[0]) if getattr(eta, "ndim", 1) > 1 else 1


def failure_class(reason: str | None) -> str | None:
    """Map a public ``FitResult.failure_reason`` to a short class."""
    if reason is None:
        return None
    if reason.startswith("no acceptable step"):
        return "no_step"
    if "rank deficient" in reason:
        return "singular"
    if reason.startswith("gradient tolerance not reached"):
        return "max_iter"
    return "other"


def _fit_detail(args, kwargs, result):
    return (int(result.iterations), failure_class(result.failure_reason)
            if result.fisher_scoring_failed else None)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        # a class keeps methods in its own __dict__; modules are read directly
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        wrapper = make(original)
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def wrap(self, owner, attr: str, name: str, detail=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``detail(args, kwargs, result)`` stores a value on the span; a call
        that raises stores the exception's class name instead.
        """
        spans, stack = self.spans, self._stack

        def make(original):
            def traced(*args, **kwargs):
                index = len(spans)
                record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
                spans.append(record)
                stack.append(index)
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    record[DETAIL] = type(exc).__name__
                    raise
                finally:
                    record[END] = perf_counter()
                    stack.pop()
                if detail is not None:
                    record[DETAIL] = detail(args, kwargs, result)
                return result
            return traced

        self._patch(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span."""
        counts = self.counts
        counts.setdefault(name, 0)

        def make(original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return counted

        self._patch(owner, attr, make)

    def span(self, name: str, detail=None):
        """Context manager for a span the benchmark opens itself."""
        return _ManualSpan(self, name, detail)

    def install(self) -> None:
        """Wrap the public entry points of every layer where they are used."""
        from bolm import cli, estimator, inference, model_core, penalties, simulation

        for mod in (estimator, simulation):
            self.wrap(mod, "eta_to_pi_batch", ETA, _rows)
        self.wrap(estimator, "d_pi_d_eta_batch", JACOBIAN)
        self.wrap(simulation, "compatible_eta_mask", MASK)
        for mod in (estimator, penalties):
            self.wrap(mod, "design_matrices", DESIGN)
        self.count(model_core.ParamLayout, "__init__", "model_core.layout.builds")
        for method in ("tau", "grad", "matrix"):
            self.wrap(penalties.PenaltyOperator, method, OPERATOR)
        self.wrap(estimator, "ordering_state", ORDERING)
        for mod in (inference, simulation, cli):
            self.wrap(mod, "fit", FIT, _fit_detail)
        self.wrap(inference, "lrp_statistic", LRP)
        for mod in (simulation, inference):
            self.wrap(mod, "sample_dataset", SAMPLE)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, detail."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics from the recorded spans and counts."""
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        child_time = [0.0] * len(spans)
        fit_of = [-1] * len(spans)  # nearest enclosing fit span
        for i, s in enumerate(spans):
            parent = s[PARENT]
            if parent >= 0:
                child_time[parent] += dur[i]
                fit_of[i] = parent if spans[parent][NAME] == FIT else fit_of[parent]

        out: dict[str, float] = {}
        for name in TIMED_LAYERS:
            idx = [i for i, s in enumerate(spans) if s[NAME] == name]
            out[f"{name}.calls"] = len(idx)
            out[f"{name}.busy_s"] = sum(dur[i] for i in idx)
        eta = [s for s in spans if s[NAME] == ETA]
        out[f"{ETA}.rows"] = sum(s[DETAIL] for s in eta if isinstance(s[DETAIL], int))
        out[f"{ETA}.incompatible"] = sum(1 for s in eta if s[DETAIL] == "IncompatibleEta")
        out["model_core.layout.builds"] = self.counts.get("model_core.layout.builds", 0)

        fits = [i for i, s in enumerate(spans) if s[NAME] == FIT]
        fit_ms = sorted(1e3 * dur[i] for i in fits)
        out[f"{FIT}.calls"] = len(fits)
        out[f"{FIT}.busy_s"] = sum(dur[i] for i in fits)
        out[f"{FIT}.self_s"] = sum(dur[i] - child_time[i] for i in fits)
        out[f"{FIT}.p50_ms"] = statistics.median(fit_ms) if fit_ms else 0.0
        out[f"{FIT}.p90_ms"] = _percentile(fit_ms, 0.9)

        evals: dict[int, int] = {}
        for i, s in enumerate(spans):
            if s[NAME] == ETA and fit_of[i] >= 0:
                evals[fit_of[i]] = evals.get(fit_of[i], 0) + 1
        iterations = sum(spans[i][DETAIL][0] for i in fits if isinstance(spans[i][DETAIL], tuple))
        trials = sum(max(n - 1, 0) for n in evals.values())  # beyond the start evaluation
        out["estimator.iterations"] = iterations
        out["estimator.trials"] = trials
        out["estimator.accept_ratio"] = iterations / trials if trials else 0.0

        failed = [i for i in fits if _failed_fit(spans[i][DETAIL])]
        out["estimator.failed.count"] = len(failed)
        out["estimator.failed.busy_s"] = sum(dur[i] for i in failed)
        for cls in ("no_step", "singular", "max_iter"):
            out[f"estimator.failed.{cls}"] = sum(
                1 for i in failed
                if isinstance(spans[i][DETAIL], tuple) and spans[i][DETAIL][1] == cls
            )

        mains = [i for i, s in enumerate(spans) if s[NAME] == CLI]
        out[f"{CLI}.calls"] = len(mains)
        out[f"{CLI}.busy_s"] = sum(dur[i] for i in mains)
        out["cli.self_s"] = sum(dur[i] - child_time[i] for i in mains)

        per_pass = max(passes, 1)
        return {
            k: v / per_pass if not k.endswith(("_ms", "accept_ratio")) else v
            for k, v in out.items()
        }


def _failed_fit(detail) -> bool:
    # a fit that raised stores the exception name; one that returned stores
    # (iterations, failure class or None)
    return isinstance(detail, str) or (isinstance(detail, tuple) and detail[1] is not None)


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=10, method="inclusive")[int(q * 10) - 1]


class _ManualSpan:
    def __init__(self, tracer: Tracer, name: str, detail):
        self.tracer, self.name, self.detail = tracer, name, detail

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, perf_counter(), 0.0, t._stack[-1] if t._stack else -1, self.detail])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][END] = perf_counter()
        t._stack.pop()
        return False
