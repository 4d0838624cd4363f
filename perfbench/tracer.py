"""Outside-in layer tracing for the benchmark.

The tracer replaces the public entry points of the ``lehmann`` modules
with timing wrappers at run time and puts the originals back afterwards.
Nothing under ``src/`` knows it is being traced. Because the library
imports many names by value (``from .estimate import loglik``), a target
function is replaced in *every* ``lehmann`` module that binds it, found by
object identity; methods are replaced on the class that defines them.

Each wrapper records one span: name, start, end, parent span and the
benchmark operation it belongs to. Spans live in flat typed arrays while
the run is traced and are written out once, when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

# (span name, module, attribute) for module-level functions
FUNCTION_TARGETS = (
    ("rng.substream", "lehmann.rng", "substream"),
    ("rng.open_uniform", "lehmann.rng", "open_uniform"),
    ("extend.sample", "lehmann.extend", "sample"),
    ("extend.sample_to_csv", "lehmann.extend", "sample_to_csv"),
    ("extend.sample_from_csv", "lehmann.extend", "sample_from_csv"),
    ("quadrature.integrate_unit", "lehmann._quadrature", "integrate_unit"),
    ("estimate.loglik", "lehmann.estimate", "loglik"),
    ("estimate.mle_lambda", "lehmann.estimate", "mle_lambda"),
    ("estimate.fit_restricted", "lehmann.estimate", "fit_restricted"),
    ("estimate.fit_full", "lehmann.estimate", "fit_full"),
    ("estimate.golden_max", "lehmann.estimate", "_golden_max"),
    ("infotheory.kl_numeric", "lehmann.infotheory", "kl_numeric"),
    ("lrt_sim.run_power_study", "lehmann.lrt_sim", "run_power_study"),
    ("lrt_sim.calibrate", "lehmann.lrt_sim", "calibrate"),
    ("lrt_sim.lrt_statistics", "lehmann.lrt_sim", "lrt_statistics"),
    ("descriptors.parse_distribution", "lehmann.descriptors", "parse_distribution"),
)

# (span name, module, class, method) for methods and classmethods
METHOD_TARGETS = (
    ("base_dist.from_theta", "lehmann.base_dist", "BaseDistribution", "from_theta"),
    ("extend.quantile", "lehmann.extend", "ExtendedDistribution", "quantile"),
    ("extend.moment", "lehmann.extend", "ExtendedDistribution", "moment"),
)

INTEGRAND = "quadrature.integrand"
CLI_COMMAND = "cli.command"
FIT_SPANS = ("estimate.fit_full", "estimate.fit_restricted")


def _lehmann_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lehmann" or name.startswith("lehmann."))]


def binding_snapshot() -> dict:
    """Identity of every attribute the tracer may touch, for restore checks."""
    snap = {}
    for mod in _lehmann_modules():
        for attr, val in vars(mod).items():
            snap[(mod.__name__, attr)] = id(val)
    for _span, modname, cls_name, meth in METHOD_TARGETS:
        cls = getattr(sys.modules[modname], cls_name)
        snap[(modname, f"{cls_name}.{meth}")] = id(cls.__dict__[meth])
    cli = sys.modules.get("lehmann.cli")
    if cli is not None:
        for name, cmd in cli.main.commands.items():
            snap[("lehmann.cli", f"main.{name}.callback")] = id(cmd.callback)
    return snap


@dataclass
class Tracer:
    """Installs span-recording wrappers; ``op`` tags spans with an operation."""

    op: int = 0
    names: list = field(default_factory=list)
    _name_ids: dict = field(default_factory=dict)
    _restore: list = field(default_factory=list)
    _stack: list = field(default_factory=lambda: [-1])
    # flat span store, one entry per span
    s_name: array = field(default_factory=lambda: array("H"))
    s_parent: array = field(default_factory=lambda: array("i"))
    s_op: array = field(default_factory=lambda: array("i"))
    s_start: array = field(default_factory=lambda: array("d"))
    s_end: array = field(default_factory=lambda: array("d"))
    s_error: array = field(default_factory=lambda: array("b"))
    # facts read off return values at the layer boundary
    fit_spreads: list = field(default_factory=list)
    fit_boundary_hits: int = 0
    nesting_violations: int = 0
    lrt_returns: int = 0
    csv_bytes: int = 0

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name, fn, on_result=None, wrap_arg0=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        s_name, s_parent, s_op = self.s_name, self.s_parent, self.s_op
        s_start, s_end, s_error = self.s_start, self.s_end, self.s_error

        def traced(*args, **kwargs):
            if wrap_arg0 is not None:
                args = (wrap_arg0(args[0]),) + args[1:]
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_op.append(self.op)
            s_error.append(0)
            s_start.append(0.0)
            s_end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                s_error[idx] = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                s_start[idx] = t0
                s_end[idx] = t1
            if on_result is not None:
                on_result(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _on_fit(self, fit) -> None:
        values = [v for _theta, v in (fit.profile_trace or ()) if np.isfinite(v)]
        if len(values) >= 2:
            self.fit_spreads.append(max(values) - min(values))
        self.fit_boundary_hits += bool(fit.warnings)

    def _on_lrt(self, stats) -> None:
        full, misspec = stats
        self.lrt_returns += 1
        if not full >= misspec >= 0.0:
            self.nesting_violations += 1

    def _on_csv(self, text) -> None:
        self.csv_bytes += len(text.encode("utf-8"))

    def _integrand(self, f):
        return self._wrap(INTEGRAND, f)

    def install(self) -> None:
        hooks = {
            "estimate.fit_full": {"on_result": self._on_fit},
            "estimate.fit_restricted": {"on_result": self._on_fit},
            "lrt_sim.lrt_statistics": {"on_result": self._on_lrt},
            "extend.sample_to_csv": {"on_result": self._on_csv},
            "quadrature.integrate_unit": {"wrap_arg0": self._integrand},
        }
        self._name_id(INTEGRAND)
        self._name_id(CLI_COMMAND)
        modules = _lehmann_modules()
        for span, modname, attr in FUNCTION_TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(span, original, **hooks.get(span, {}))
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, name, val))
                        setattr(mod, name, wrapper)
        for span, modname, cls_name, meth in METHOD_TARGETS:
            cls = getattr(sys.modules[modname], cls_name)
            original = cls.__dict__[meth]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(span, original.__func__))
            else:
                wrapper = self._wrap(span, original)
            self._restore.append((cls, meth, original))
            setattr(cls, meth, wrapper)
        cli = sys.modules["lehmann.cli"]
        for cmd in cli.main.commands.values():
            self._restore.append((cmd, "callback", cmd.callback))
            cmd.callback = self._wrap(CLI_COMMAND, cmd.callback)

    def remove(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- read-out ------------------------------------------------------------

    def spans(self) -> dict:
        """The span store as numpy arrays (plus the name table)."""
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.s_name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.s_parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.s_op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.s_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.s_end, dtype=np.float64).copy(),
            "error": np.frombuffer(self.s_error, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, **self.spans())


def tail_percentile(count: int) -> float | None:
    """Highest percentile with at least ten samples beyond it.

    None below 20 samples, where that percentile would sit under the
    median; the tail is then reported as the maximum.
    """
    if count < 20:
        return None
    return 100.0 * (1.0 - 10.0 / count)


def latency_summary(durations_s) -> dict:
    """Median and tail (ms) of a list of durations, with sample counts."""
    d = np.sort(np.asarray(durations_s, dtype=float)) * 1e3
    if d.size == 0:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_percentile": None, "samples": 0}
    pct = tail_percentile(d.size)
    tail = float(np.percentile(d, pct)) if pct is not None else float(d[-1])
    return {"p50_ms": float(np.median(d)), "tail_ms": tail,
            "tail_percentile": pct, "samples": int(d.size)}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values (name -> number) from the recorded spans."""
    sp = tracer.spans()
    names = list(sp["names"])
    name, parent = sp["name"].astype(np.int64), sp["parent"].astype(np.int64)
    dur = sp["end"] - sp["start"]
    n = name.size
    # child time per span: spans are recorded in start order on one
    # thread, so the direct children of a span never overlap
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child[:n]

    def ids(span):
        return names.index(span) if span in names else -1

    def mask(span):
        return name == ids(span)

    # nearest enclosing fit span (or -1), found by walking up parent links
    is_fit = np.isin(name, [ids(s) for s in FIT_SPANS])
    anc = parent.copy()
    for _ in range(64):
        settled = (anc < 0) | is_fit[np.maximum(anc, 0)]
        if settled.all():
            break
        anc = np.where(settled, anc, parent[np.maximum(anc, 0)])
    in_fit = anc >= 0
    fits = int(is_fit.sum())

    out = {}
    for span in names:
        m = mask(span)
        out[f"{span}.calls"] = int(m.sum())
        out[f"{span}.busy_s"] = float(dur[m].sum())
        out[f"{span}.self_s"] = float(self_time[m].sum())
    lrt = latency_summary(dur[mask("lrt_sim.lrt_statistics")])
    out["lrt_sim.lrt_statistics.p50_ms"] = lrt["p50_ms"]
    out["lrt_sim.lrt_statistics.tail_ms"] = lrt["tail_ms"]
    loglik_in_fits = int((mask("estimate.loglik") & in_fit).sum())
    golden_in_fits = int((mask("estimate.golden_max") & in_fit).sum())
    out["estimate.objective_evals_per_fit"] = loglik_in_fits / fits if fits else 0.0
    out["estimate.golden_per_fit"] = golden_in_fits / fits if fits else 0.0
    out["estimate.multistart_spread_nats"] = (
        float(np.median(tracer.fit_spreads)) if tracer.fit_spreads else 0.0
    )
    out["estimate.boundary_hits"] = tracer.fit_boundary_hits
    integrals = out.get("quadrature.integrate_unit.calls", 0)
    calls = out.get(f"{INTEGRAND}.calls", 0)
    out[f"{INTEGRAND}.us_per_call"] = (
        out[f"{INTEGRAND}.busy_s"] / calls * 1e6 if calls else 0.0
    )
    out[f"{INTEGRAND}.calls_per_integral"] = calls / integrals if integrals else 0.0
    out["extend.sample_to_csv.bytes"] = tracer.csv_bytes
    return out
