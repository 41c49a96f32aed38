"""Span recording around the package's public functions, from outside it.

``install`` replaces each traced function at every ``fracsource`` module
where it is bound (``forward`` and ``inverse`` import ``singular_convolve``
by name, so wrapping ``fractional`` alone would miss their calls) and returns
a ``Tracer``.  Spans (name, start, end, parent, operation, extra counts) stay
in memory until ``Tracer.dump``.  ``Tracer.uninstall`` restores every
original binding.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

# Per-layer metrics, in the order BENCHMARK.json lists them, with their units.
LAYER_UNITS = {
    "spectral.project.calls": "count",
    "spectral.project.s": "s",
    "spectral.synthesize.s": "s",
    "catalog.coeff_series.s": "s",
    "mlf.eval_kernel_grid.points": "count",
    "mlf.eval_kernel_grid.s": "s",
    "mlf.series.points": "count",
    "mlf.contour.points": "count",
    "mlf.series_refusals": "count",
    "mlf.contour.s": "s",
    "fractional.singular_convolve.calls": "count",
    "fractional.singular_convolve.self_s": "s",
    "fractional.kernel_table.builds": "count",
    "fractional.kernel_table.s": "s",
    "fractional.kernel_table.hit_ratio": "1",
    "fractional.caputo_multiterm.s": "s",
    "forward.mode_solves": "count",
    "forward.solve_forward.s": "s",
    "inverse.recover_source.s": "s",
    "inverse.flux_iterations": "count",
    "inverse.flux_convolutions": "count",
    "oracle.fdm_forward.s": "s",
    "oracle.fd_step.s": "s",
    "oracle.compare.s": "s",
    "oracle.history_bytes": "B",
    "cli.overhead.s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    extra: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = -1  # spans outside a benchmark operation are not kept

    # recording ---------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span.  ``before(args, kwargs)`` and
        ``after(result)`` may return counts for ``span.extra``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
            if before is not None:
                span.extra.update(before(args, kwargs))
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                span.extra.update(after(result))
            return result

        return traced

    def replace_everywhere(self, fn, wrapper) -> None:
        """Rebind every module-level name in ``fracsource`` that is ``fn``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fracsource" or mod_name.startswith("fracsource.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def replace_attr(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def dump(self, path, summary: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"summary": summary, "spans": [asdict(s) for s in self.spans]}, fh)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out


def install() -> Tracer:
    """Wrap the layer boundaries of ``fracsource`` named in the README."""
    from fracsource import catalog, cli, forward, fractional, inverse, mlf, oracle, spectral

    tracer = Tracer()

    def wrap_fn(module, attr, name=None, **hooks):
        fn = getattr(module, attr)
        tracer.replace_everywhere(fn, tracer.wrap(name or f"{module.__name__.split('.')[-1]}.{attr}", fn, **hooks))

    # Points the series may serve: the dispatcher sends a point to the
    # contour when its largest argument m t^xi exceeds this threshold
    # (mlf._REGIME_THRESHOLD) or when the series refuses it.
    threshold = getattr(mlf, "_REGIME_THRESHOLD", 2.0)

    def kernel_points(args, kwargs):
        spec = (args[0] if args else kwargs["spec"]).reduced()
        ts = np.asarray(args[1] if len(args) > 1 else kwargs["ts"], dtype=float)
        eligible = 0
        if spec.terms:
            eff = np.zeros_like(ts)
            for m, xi in spec.terms:
                np.maximum(eff, m * ts**xi, out=eff)
            eligible = int(np.count_nonzero(eff <= threshold))
        return {"points": int(ts.size), "eligible": eligible, "closed": int(not spec.terms)}

    wrap_fn(spectral, "project")
    wrap_fn(spectral, "synthesize")
    wrap_fn(mlf, "eval_kernel_grid", before=kernel_points)
    wrap_fn(mlf, "ml_contour_grid", name="mlf.contour",
            before=lambda a, k: {"points": int(np.size(a[1] if len(a) > 1 else k["ts"]))})
    wrap_fn(fractional, "singular_convolve")
    wrap_fn(fractional, "caputo_multiterm")
    for attr in ("mode_zero", "mode_even", "mode_odd"):
        wrap_fn(forward, attr, name="forward.mode_solve")
    wrap_fn(forward, "solve_forward")
    wrap_fn(inverse, "recover_source",
            after=lambda r: {"flux_iterations": int(r.metadata.get("flux_iterations", 0))})
    wrap_fn(inverse, "solve_inverse")

    def fd_sizes(args, kwargs):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        dof = grid.Mx * (grid.My + 1)
        # the stored field (N+1, Mx+1, My+1) plus the L1 history (N+1, dof)
        return {"steps": grid.N, "history_bytes": 8 * (grid.N + 1) * ((grid.Mx + 1) * (grid.My + 1) + dof)}

    wrap_fn(oracle, "fdm_forward", before=fd_sizes)
    wrap_fn(oracle, "compare")
    wrap_fn(cli, "main")

    cls = catalog.SpaceTimeField
    tracer.replace_attr(cls, "coeff_series", tracer.wrap("catalog.coeff_series", cls.coeff_series))
    table = getattr(fractional, "SmoothKernelFactor", None)
    if table is not None:
        tracer.replace_attr(table, "__init__", tracer.wrap("fractional.kernel_table", table.__init__))
        get = table.__dict__["get"].__func__
        tracer.replace_attr(table, "get", classmethod(tracer.wrap("fractional.kernel_table.get", get)))
    return tracer


def layer_metrics(tracer: Tracer, ops: list[int], count_ops: list[int]) -> dict[str, float]:
    """Per-operation layer figures.  Times are means over ``ops``; counts are
    means over ``count_ops`` (the first round, which the seed alone fixes, so
    counts repeat exactly between runs of one seed)."""
    spans = tracer.spans
    n_t = max(len(ops), 1)
    n_c = max(len(count_ops), 1)
    timed = set(ops)
    counted = set(count_ops)

    def total(name, key=None, over=timed):
        acc = 0.0
        for s in spans:
            if s.name == name and s.op in over:
                acc += (s.end - s.start) if key is None else s.extra.get(key, 0)
        return acc

    def calls(name):
        return sum(1 for s in spans if s.name == name and s.op in counted)

    self_times = tracer.self_times()

    def self_total(name):
        return sum(self_times[i] for i, s in enumerate(spans) if s.name == name and s.op in timed)

    def under(child, parent, over):
        return sum(1 for s in spans if s.name == child and s.op in over
                   and s.parent is not None and spans[s.parent].name == parent)

    def contour_under_kernel(over):
        return sum(s.extra["points"] for s in spans if s.name == "mlf.contour" and s.op in over
                   and s.parent is not None and spans[s.parent].name == "mlf.eval_kernel_grid")

    pts = total("mlf.eval_kernel_grid", "points", counted)
    closed = sum(s.extra["points"] for s in spans if s.name == "mlf.eval_kernel_grid"
                 and s.op in counted and s.extra["closed"])
    eligible = total("mlf.eval_kernel_grid", "eligible", counted)
    via_contour = contour_under_kernel(counted)
    series = pts - closed - via_contour
    gets = calls("fractional.kernel_table.get")
    builds = calls("fractional.kernel_table")
    steps = total("oracle.fdm_forward", "steps", timed)

    return {
        "spectral.project.calls": calls("spectral.project") / n_c,
        "spectral.project.s": total("spectral.project") / n_t,
        "spectral.synthesize.s": total("spectral.synthesize") / n_t,
        "catalog.coeff_series.s": total("catalog.coeff_series") / n_t,
        "mlf.eval_kernel_grid.points": pts / n_c,
        "mlf.eval_kernel_grid.s": total("mlf.eval_kernel_grid") / n_t,
        "mlf.series.points": series / n_c,
        "mlf.contour.points": total("mlf.contour", "points", counted) / n_c,
        "mlf.series_refusals": (eligible - series) / n_c,
        "mlf.contour.s": total("mlf.contour") / n_t,
        "fractional.singular_convolve.calls": calls("fractional.singular_convolve") / n_c,
        "fractional.singular_convolve.self_s": self_total("fractional.singular_convolve") / n_t,
        "fractional.kernel_table.builds": builds / n_c,
        "fractional.kernel_table.s": total("fractional.kernel_table") / n_t,
        "fractional.kernel_table.hit_ratio": (gets - builds) / gets if gets else 0.0,
        "fractional.caputo_multiterm.s": total("fractional.caputo_multiterm") / n_t,
        "forward.mode_solves": calls("forward.mode_solve") / n_c,
        "forward.solve_forward.s": total("forward.solve_forward") / n_t,
        "inverse.recover_source.s": total("inverse.recover_source") / n_t,
        "inverse.flux_iterations": total("inverse.recover_source", "flux_iterations", counted) / n_c,
        "inverse.flux_convolutions": under("fractional.singular_convolve", "inverse.recover_source", counted) / n_c,
        "oracle.fdm_forward.s": total("oracle.fdm_forward") / n_t,
        "oracle.fd_step.s": total("oracle.fdm_forward") / steps if steps else 0.0,
        "oracle.compare.s": total("oracle.compare") / n_t,
        "oracle.history_bytes": total("oracle.fdm_forward", "history_bytes", counted) / n_c,
        "cli.overhead.s": (total("cli.main") - total("inverse.solve_inverse")) / n_t,
    }
