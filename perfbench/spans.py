"""In-memory span tracer for the traced benchmark run.

The tracer replaces module attributes with timing wrappers, at the place
where each caller looks the name up (``lsepkit.cli.qabs_transient`` is
the name ``cmd_transient`` calls, ``lsepkit.bloch.integrate`` the one
``evolve_lab`` calls).  Each call records a span (name, parent, start,
end); spans stay in memory until the run ends.  A layer's self time is
its span duration minus the time its child spans cover, so the self
times of all spans in one pass add up to the root span, which covers
the pass.

A target that no longer exists is recorded as absent, and every metric
that depends on it is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from collections import Counter, defaultdict

ROOT = "bench.pass"

# (module, attribute, span name).  Several attributes may share one span
# name when two callers look the same function up in different modules.
SPAN_TARGETS = [
    ("lsepkit.cli", "main", "cli.main"),
    ("lsepkit.medium", "read_spectrum_csv", "medium.read_spectrum_csv"),
    ("lsepkit.medium", "fit_material", "medium.fit_material"),
    ("lsepkit.medium", "epsilon_steady", "medium.epsilon_steady"),
    ("lsepkit.medium", "epsilon_transient", "medium.epsilon_transient"),
    ("lsepkit.medium", "lorentz_epsilon", "medium.lorentz_epsilon"),
    ("lsepkit.medium", "evolve_rwa", "bloch.evolve_rwa"),
    ("lsepkit.bloch", "evolve_rwa", "bloch.evolve_rwa"),
    ("lsepkit.bloch", "evolve_lab", "bloch.evolve_lab"),
    ("lsepkit.bloch", "integrate", "numerics.ode"),
    ("lsepkit.bloch", "rotating_frame", "bloch.rotating_frame"),
    ("lsepkit.bloch", "cycle_average", "bloch.cycle_average"),
    ("lsepkit.cli", "qabs_spectrum", "mie.qabs"),
    ("lsepkit.cli", "qabs_transient", "mie.qabs"),
    ("lsepkit.cli", "mie_coefficients", "mie.mie_coefficients"),
    ("lsepkit.cli", "near_field_grid", "mie.near_field_grid"),
    ("lsepkit.mie.fields", "near_field_grid", "mie.near_field_grid"),
    ("lsepkit.cli", "poynting_streamlines", "mie.poynting_streamlines"),
    ("lsepkit.film", "read_rt_csv", "film.read_rt_csv"),
    ("lsepkit.film", "extract_nk", "film.extract_nk"),
    ("lsepkit.film", "residual", "film.residual"),
    ("lsepkit.film", "select_physical_branch", "film.select_physical_branch"),
    ("lsepkit.film", "close_with_kk", "film.close_with_kk"),
    ("lsepkit.film", "kramers_kronig_real", "numerics.kk"),
]

# Called too often, or too cheap, for a span: counted only.
COUNT_TARGETS = [
    ("lsepkit.mie.scatter", "efficiencies", "mie.efficiencies"),
    ("lsepkit.film", "_residual_map", "film.residual_map"),
]


def _grid_points(args, kwargs, result):
    grid = args[0] if args else kwargs["grid"]
    return grid.n_values.size * grid.kappa_values.size


def _qabs_inputs(args, kwargs, result):
    spectrum = args[0]
    radius = kwargs.get("radius", args[1] if len(args) > 1 else None)
    host = kwargs.get("host_epsilon", args[2] if len(args) > 2 else 1.0)
    return spectrum.energies, radius, host


# Facts read from a call's arguments or result, keyed by counter name:
# (span or count name, extractor).  Extractors only read attributes, so
# they cost well under a microsecond inside the parent span.
FACTS = {
    "film.grid_points": ("film.residual_map", _grid_points),
    "mie.qabs.samples": ("mie.qabs", lambda a, k, r: r.q_abs.size),
    "mie.qabs.inputs": ("mie.qabs", _qabs_inputs),
    "mie.near_field_grid.points": ("mie.near_field_grid", lambda a, k, r: r.positions.shape[0]),
    "mie.streamline.points": (
        "mie.poynting_streamlines", lambda a, k, r: sum(len(ln.points) for ln in r)
    ),
    "mie.streamline.absorbed": (
        "mie.poynting_streamlines",
        lambda a, k, r: sum(ln.terminated.name == "ABSORBED" for ln in r),
    ),
    "medium.fit_material.nfev": ("medium.fit_material", lambda a, k, r: r.n_evaluations),
    "medium.epsilon_steady.samples": ("medium.epsilon_steady", lambda a, k, r: r.energies.size),
    "bloch.evolve_lab.samples": ("bloch.evolve_lab", lambda a, k, r: r.times.size),
    "numerics.ode.steps_accepted": ("numerics.ode", lambda a, k, r: r.step_stats.accepted),
    "numerics.ode.steps_rejected": ("numerics.ode", lambda a, k, r: r.step_stats.rejected),
}


class Tracer:
    """Patches the targets while installed and keeps every span in memory."""

    def __init__(self):
        # one row per span: [name, parent index or -1, start_ns, end_ns]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.facts: defaultdict = defaultdict(list)
        self.absent: set[str] = set()
        self.broken_facts: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        facts_by_name = defaultdict(list)
        for fact, (name, extract) in FACTS.items():
            facts_by_name[name].append((fact, extract))
        for targets, timed in ((SPAN_TARGETS, True), (COUNT_TARGETS, False)):
            for module_name, attr, name in targets:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.add(name)
                    continue
                wrapper = self._wrap(original, name, timed, facts_by_name[name])
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _record_facts(self, facts, args, kwargs, result):
        for fact, extract in facts:
            try:
                self.facts[fact].append(extract(args, kwargs, result))
            except (AttributeError, KeyError, IndexError, TypeError):
                self.broken_facts.add(fact)

    def _wrap(self, original, name, timed, facts):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        if not timed:
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                counts[name] += 1
                if facts:
                    self._record_facts(facts, args, kwargs, result)
                return result
            return counted

        def traced(*args, **kwargs):
            row = [name, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(row)
            row[2] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                row[3] = clock()
                stack.pop()
            if facts:
                self._record_facts(facts, args, kwargs, result)
            return result

        return traced

    def root(self, fn):
        """Run ``fn`` inside the pass's root span; return its result."""
        return self._wrap(fn, ROOT, True, [])()

    # ------------------------------------------------------------ per pass
    def take_pass(self) -> dict:
        """Summarise and clear the spans and counters of the pass just run."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        busy = Counter()
        own = Counter()
        calls = Counter()
        for i, (name, parent, start, end) in enumerate(spans):
            busy[name] += end - start
            own[name] += end - start - child_ns[i]
            calls[name] += 1
        summary = {
            "busy_s": {k: v * 1e-9 for k, v in busy.items()},
            "self_s": {k: v * 1e-9 for k, v in own.items()},
            "calls": dict(calls),
            "counts": dict(self.counts),
            "facts": {k: list(v) for k, v in self.facts.items()},
            "spans": [list(s) for s in spans],
        }
        spans.clear()
        self.counts.clear()
        self.facts.clear()
        return summary


def _orders(inputs) -> int:
    """Sum over Mie samples of the series truncation order the package uses."""
    from lsepkit.constants import ev_to_vacuum_wavelength_m
    from lsepkit.mie import multipole_cutoff

    total = 0
    for energies, radius, host in inputs:
        for energy in energies:
            x = 2.0 * math.pi * math.sqrt(host) * radius / ev_to_vacuum_wavelength_m(energy)
            total += multipole_cutoff(x)
    return total


# Each metric is (unit, needs, compute): ``needs`` lists the targets and
# facts it reads, so a target that no longer exists, or a result that no
# longer carries a fact, makes the metric absent rather than wrong.
# Layers that a workload bypasses read 0.
def _busy(name):
    return [name], lambda p: p["busy_s"].get(name, 0.0)


def _self(name):
    return [name], lambda p: p["self_s"].get(name, 0.0)


def _calls(name):
    return [name], lambda p: p["calls"].get(name, 0) + p["counts"].get(name, 0)


def _fact_sum(fact):
    return [FACTS[fact][0], fact], lambda p: sum(p["facts"].get(fact, []))


def _ratio(num, den, scale=1.0):
    (num_needs, n), (den_needs, d) = num, den
    return num_needs + den_needs, lambda p: scale * n(p) / d(p) if d(p) else 0.0


def _orders_metric():
    needs, _ = _fact_sum("mie.qabs.inputs")
    return needs, lambda p: _orders(p["facts"].get("mie.qabs.inputs", []))


LAYER_METRICS = {
    "film.extract_nk.busy_s": ("s", *_busy("film.extract_nk")),
    "film.extract_nk.self_s": ("s", *_self("film.extract_nk")),
    "film.grid_points": ("count", *_fact_sum("film.grid_points")),
    "film.grid_points_per_s": (
        "1/s", *_ratio(_fact_sum("film.grid_points"), _busy("film.extract_nk"))
    ),
    "film.residual.calls": ("count", *_calls("film.residual")),
    "film.residual.busy_s": ("s", *_busy("film.residual")),
    "film.select_physical_branch.busy_s": ("s", *_busy("film.select_physical_branch")),
    "numerics.kk.busy_s": ("s", *_busy("numerics.kk")),
    "mie.qabs.busy_s": ("s", *_busy("mie.qabs")),
    "mie.qabs.samples": ("count", *_fact_sum("mie.qabs.samples")),
    "mie.qabs.us_per_sample": (
        "us", *_ratio(_busy("mie.qabs"), _fact_sum("mie.qabs.samples"), 1e6)
    ),
    "mie.efficiencies.calls": ("count", *_calls("mie.efficiencies")),
    "mie.orders": ("count", *_orders_metric()),
    "mie.near_field_grid.busy_s": ("s", *_busy("mie.near_field_grid")),
    "mie.near_field_grid.points": ("count", *_fact_sum("mie.near_field_grid.points")),
    "mie.poynting_streamlines.self_s": ("s", *_self("mie.poynting_streamlines")),
    "mie.streamline.points": ("count", *_fact_sum("mie.streamline.points")),
    "mie.streamline.absorbed": ("count", *_fact_sum("mie.streamline.absorbed")),
    "medium.fit_material.busy_s": ("s", *_busy("medium.fit_material")),
    "medium.fit_material.nfev": ("count", *_fact_sum("medium.fit_material.nfev")),
    "medium.epsilon_steady.calls": ("count", *_calls("medium.epsilon_steady")),
    "medium.epsilon_steady.samples": ("count", *_fact_sum("medium.epsilon_steady.samples")),
    "medium.epsilon_steady.busy_s": ("s", *_busy("medium.epsilon_steady")),
    "medium.epsilon_transient.busy_s": ("s", *_busy("medium.epsilon_transient")),
    "bloch.evolve_rwa.busy_s": ("s", *_busy("bloch.evolve_rwa")),
    "bloch.evolve_lab.busy_s": ("s", *_busy("bloch.evolve_lab")),
    "bloch.evolve_lab.samples": ("count", *_fact_sum("bloch.evolve_lab.samples")),
    "numerics.ode.steps_accepted": ("count", *_fact_sum("numerics.ode.steps_accepted")),
    "numerics.ode.steps_rejected": ("count", *_fact_sum("numerics.ode.steps_rejected")),
    "bloch.cycle_average.busy_s": ("s", *_busy("bloch.cycle_average")),
    "cli.self_s": ("s", *_self("cli.main")),
}


def layer_metrics(tracer: Tracer, passes: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics as medians over traced passes, plus absent ones.

    Returns ``(metrics, absent)``: metrics maps name to value and unit,
    absent maps name to the reason it could not be measured.
    """
    metrics, absent = {}, {}
    for name, (unit, needs, compute) in LAYER_METRICS.items():
        missing = [n for n in needs if n in tracer.absent]
        broken = [n for n in needs if n in tracer.broken_facts]
        if missing:
            absent[name] = f"target no longer exists: {', '.join(missing)}"
            continue
        if broken:
            absent[name] = f"result no longer carries {', '.join(broken)}"
            continue
        try:
            values = [compute(p) for p in passes]
        except (ImportError, AttributeError) as exc:
            absent[name] = f"cannot be computed: {exc}"
            continue
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics, absent


def layer_self_times(summary: dict) -> dict:
    """Self time per layer (first component of the span name) in one pass."""
    out = Counter()
    for name, value in summary["self_s"].items():
        out[name.split(".", 1)[0]] += value
    return dict(out)
