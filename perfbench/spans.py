"""Timing wrappers for isicap's public functions, and the per-layer metrics
derived from the spans they record.

The wrappers live here, not in the package: ``Tracer.install`` rebinds every
public isicap function in every ``isicap`` namespace that holds it, so a call
is traced whichever name it goes through.  ``cli`` imports
``capacity_curve`` and ``achievable_rate_detail`` by name, ``gibbs.solve_beta``
calls ``avg_energy`` through its module globals, ``markov`` imports
``integrate_periodic`` and ``simulate`` imports ``apply_channel``; each of
these sees the same wrapper object.

A span is ``[name, start, end, parent, request, attrs]`` with ``name`` as
``<module>.<function>``; the module is the layer.  Spans stay in memory until
the pass ends.
"""

import functools
import math
import statistics
import sys
import time
import types
from collections import defaultdict


def _enumerate_attrs(args, kwargs, result):
    ops = args[0]
    return {"n": ops.n, "dd": bool(ops.dd_flag), "taps": list(ops.spec.taps)}


def _rate_attrs(args, kwargs, result):
    model = kwargs.get("power_model", args[2] if len(args) > 2 else "asymptotic")
    return {"model": model}


# Per-span data some metrics need, read from the call's arguments and result.
_ATTRS = {
    "energy.enumerate_profile": _enumerate_attrs,
    "energy.energy": lambda a, k, r: {"energy": r.energy, "gap": r.gap},
    "markov.achievable_rate_detail": _rate_attrs,
    "spectral.integrate_periodic": lambda a, k, r: {"grid": r.grid_size},
    "simulate.simulate_zero_forcing": lambda a, k, r: {"symbols": r.num_symbols},
}


class Tracer:
    """Records a span per call of a public isicap function while installed."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []
        self._saved = []

    def install(self):
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "isicap" and not modname.startswith("isicap."):
                continue
            for name, obj in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or not obj.__module__.startswith("isicap.")
                ):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj)
                self._saved.append((module, name, obj))
                setattr(module, name, wrappers[id(obj)])

    def uninstall(self):
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        attrs_of = _ATTRS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs_of is not None:
                span[5] = attrs_of(args, kwargs, result)
            return result

        return traced


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, covered)]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced pass that took wall_s seconds."""
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    layer_own = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        name = span[0]
        calls[name] += 1
        total[name] += span[2] - span[1]
        own[name] += self_s
        layer_own[name.split(".")[0]] += self_s

    def attrs(name):
        # A call that raised has no attrs.
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    enumerated = attrs("energy.enumerate_profile")
    points = attrs("energy.energy")
    finite_points = [a for a in points if math.isfinite(a["energy"])]
    patterns = sum(1 << a["n"] for a in enumerated)
    rates = defaultdict(lambda: [0, 0.0])
    for s in spans:
        if s[0] == "markov.achievable_rate_detail" and s[5] is not None:
            rates[s[5]["model"]][0] += 1
            rates[s[5]["model"]][1] += s[2] - s[1]
    fft_names = ("channel.apply_channel", "channel.apply_inverse")
    top_level = sum(s[2] - s[1] for s in spans if s[3] < 0)

    m = {}
    for layer in ("cli", "channel", "energy", "gibbs", "markov", "spectral"):
        m[f"{layer}.self_s"] = layer_own[layer]
    m.update({
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": own["cli.main"],
        "channel.build_operators.calls": calls["channel.build_operators"],
        "channel.build_operators.s": total["channel.build_operators"],
        "channel.fft_actions.calls": sum(calls[n] for n in fft_names),
        "channel.fft_actions.s": sum(total[n] for n in fft_names),
        "energy.enumerate_profile.self_s": own["energy.enumerate_profile"],
        "energy.patterns": patterns,
        "energy.qp_patterns": sum(1 << a["n"] for a in enumerated if not a["dd"]),
        "energy.patterns_per_s": _ratio(patterns, total["energy.enumerate_profile"]),
        "energy.profile_bytes": max((8 << a["n"] for a in enumerated), default=0),
        "energy.point.calls": calls["energy.energy"],
        "energy.point.s_per_call": _ratio(total["energy.energy"], calls["energy.energy"]),
        "energy.point.max_rel_gap": max(
            (a["gap"] / max(1.0, a["energy"]) for a in finite_points), default=0.0
        ),
        # Solves that returned a non-finite energy instead of raising.
        "energy.point.nonfinite": len(points) - len(finite_points),
        "gibbs.capacity_curve.self_s": own["gibbs.capacity_curve"],
        "gibbs.solve_beta.calls": calls["gibbs.solve_beta"],
        "gibbs.solve_beta.s_per_point": _ratio(
            total["gibbs.solve_beta"], calls["gibbs.solve_beta"]
        ),
        "gibbs.avg_energy.calls": calls["gibbs.avg_energy"],
        "gibbs.log_partition.calls": calls["gibbs.log_partition"],
        "markov.power_finite_n.calls": calls["markov.power_finite_n"],
        "markov.power_asymptotic.calls": calls["markov.power_asymptotic"],
        "spectral.integrate_periodic.calls": calls["spectral.integrate_periodic"],
        "spectral.integrate_periodic.grid_points": sum(
            a["grid"] for a in attrs("spectral.integrate_periodic")
        ),
        "simulate.simulate_zero_forcing.self_s": own["simulate.simulate_zero_forcing"],
        "simulate.symbols_per_s": _ratio(
            sum(a["symbols"] for a in attrs("simulate.simulate_zero_forcing")),
            total["simulate.simulate_zero_forcing"],
        ),
        "trace.spans": len(spans),
        "trace.unattributed_s": wall_s - top_level,
    })
    for model in ("asymptotic", "finite"):
        count, seconds = rates[model]
        m[f"markov.rate.calls.{model}"] = count
        m[f"markov.rate.s_per_point.{model}"] = _ratio(seconds, count)
    return m


def median_metrics(per_pass):
    """Metric-by-metric median over passes (counts repeat, so stay exact)."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
