"""Correctness checks on request outputs.

They run after the timed region of a pass.  A request whose output fails its
check counts as failed.  ``prepare`` fills in, once per run, the reference
values a check compares against; ``Checker.check`` then judges one output.
The dense linear algebra here is independent of isicap's spectral code.
"""

import importlib.util
import math

import numpy as np

from workloads import DELTA

# Tolerances of the acceptance gate (tests/test_acceptance.py): c03 for the
# two-tap capacity, c02 for the two-tap Markov rate, c05 for the three-tap
# curves.  The reference ordinates are digitized to four decimals.
FIG3_TOL = {"C_eps0.2": 0.02, "Rm_eps0.2": 2e-3}
FIG4_TOL = {"C": 0.05, "Rm": 0.03}
# Two-tap abscissas: the 16-point linspace against its published rounding.
FIG3_X_TOL = 1e-3

# Grid points this close (relative) to a regime boundary may take either side.
REGIME_SLACK = 1e-6

FEAS_TOL = 1e-8
GAP_TOL = 1e-8

# The validate request must agree with its own 3-sigma verdict; its deviation
# must also lie within 5 sigma, which a correct simulator misses with
# probability 6e-7 (a 3-sigma miss has probability 0.27% per seed).
SANITY_SIGMAS = 5.0


def _load_reference(root):
    spec = importlib.util.spec_from_file_location(
        "reference_data", root / "tests" / "reference_data.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def prepare(requests, root, isicap):
    """Add to each request's check the reference values it compares against:
    the published curves, and e_min/e_mean from the library for capacity."""
    ref = _load_reference(root)
    profiles = {}
    for req in requests:
        check = req["check"]
        if check["type"] == "fig3":
            check["series"] = {
                "C_eps0.2": list(zip(ref.TWO_TAP_X, ref.TWO_TAP_CAPACITY)),
                "Rm_eps0.2": list(zip(ref.TWO_TAP_X, ref.TWO_TAP_MARKOV)),
            }
        elif check["type"] == "fig4":
            check["series"] = {"C": ref.THREE_TAP_CAPACITY, "Rm": ref.THREE_TAP_MARKOV}
        elif check["type"] == "capacity":
            key = (tuple(check["taps"]), check["n"])
            if key not in profiles:
                spec = isicap.ChannelSpec(key[0], DELTA, key[1])
                profiles[key] = isicap.enumerate_profile(isicap.build_operators(spec))
            check["e_min"] = profiles[key].e_min
            check["e_mean"] = profiles[key].e_mean


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _h2(a):
    if a <= 0.0 or a >= 1.0:
        return 0.0
    return -a * math.log2(a) - (1 - a) * math.log2(1 - a)


def _nondecreasing(values):
    return all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class Checker:
    """Judges request outputs; caches the dense operators it builds."""

    def __init__(self):
        self._dense = {}

    def check(self, req, out):
        """None when the output is right, else the reason it is not."""
        if out.get("error"):
            return out["error"]
        kind = req["check"]["type"]
        code = out["code"]
        if kind != "validate" and code != 0:
            return f"exit code {code}"
        return getattr(self, "_" + kind)(req, out)

    def _figure_series(self, check, text, tol, x_tol):
        """Series named in tol are the verified ones and must match the
        published curves; the others must carry verified=false."""
        header, rows = _csv_rows(text)
        if header != ["series", "p_over_delta2", "bits", "verified"]:
            return f"header {header}"
        series = {}
        for name, x, bits, verified in rows:
            series.setdefault(name, []).append((float(x), float(bits), verified))
        for name, points in series.items():
            flag = "true" if name in tol else "false"
            if any(v != flag for _, _, v in points):
                return f"{name}: verified flag is not {flag}"
            if not all(0.0 <= b <= 1.0 for _, b, _ in points):
                return f"{name}: bits outside [0, 1]"
        for name, ref in check["series"].items():
            points = series.get(name, [])
            if len(points) != len(ref):
                return f"{name}: {len(points)} rows, expected {len(ref)}"
            for i, ((x, bits, _), (rx, rbits)) in enumerate(zip(points, ref)):
                if abs(x - rx) > x_tol:
                    return f"{name}[{i}]: x={x} vs {rx}"
                if name == "C" and i == 0:
                    # c05: (0.5644, 0) marks where the published curve starts;
                    # the length-12 floor lies below it, so capacity is positive.
                    if not bits > 0.0:
                        return "C[0]: capacity is not positive above the floor"
                elif abs(bits - rbits) > tol[name]:
                    return f"{name}[{i}] at x={x}: {bits} vs {rbits}"
        return None

    def _fig3(self, req, out):
        return self._figure_series(req["check"], out["text"], FIG3_TOL, FIG3_X_TOL)

    def _fig4(self, req, out):
        return self._figure_series(req["check"], out["text"], FIG4_TOL, 0.0)

    def _capacity(self, req, out):
        check = req["check"]
        header, rows = _csv_rows(out["text"])
        if header != ["p_over_delta2", "capacity_bits", "regime", "gibbs_beta"]:
            return f"header {header}"
        if [float(r[0]) for r in rows] != check["grid"]:
            return "rows do not echo the grid"
        caps = [float(r[1]) for r in rows]
        if not all(0.0 <= c <= 1.0 for c in caps):
            return "capacity outside [0, 1]"
        if not _nondecreasing(caps):
            return "capacity decreases along the grid"
        n, e_min, e_mean = check["n"], check["e_min"], check["e_mean"]
        for x, row in zip(check["grid"], rows):
            budget = n * (x * DELTA**2)
            allowed = set()
            if budget < e_min * (1 + REGIME_SLACK):
                allowed.add("INFEASIBLE")
            if abs(budget - e_min) <= REGIME_SLACK * e_min:
                allowed.add("MIN_ENERGY_BOUNDARY")
            if e_min * (1 - REGIME_SLACK) < budget < e_mean * (1 + REGIME_SLACK):
                allowed.add("GIBBS_INTERIOR")
            if budget >= e_mean * (1 - REGIME_SLACK):
                allowed.add("SATURATED")
            if row[2] not in allowed:
                return f"regime {row[2]} at x={x}, expected one of {sorted(allowed)}"
        return None

    def _markov(self, req, out):
        check = req["check"]
        header, rows = _csv_rows(out["text"])
        if header != ["p_over_delta2", "rate_bits", "alpha_star"]:
            return f"header {header}"
        if [float(r[0]) for r in rows] != check["grid"]:
            return "rows do not echo the grid"
        rates = [float(r[1]) for r in rows]
        if not _nondecreasing(rates) or not all(0.0 <= r <= 1.0 for r in rates):
            return "rate outside [0, 1] or decreasing along the grid"
        for rate, row in zip(rates, rows):
            alpha = float(row[2])
            if not (math.isnan(alpha) and rate == 0.0) and abs(_h2(alpha) - rate) > 1e-12:
                return f"rate {rate} is not H2(alpha*={alpha})"
        return None

    def _dense_ops(self, taps, n):
        key = (tuple(taps), n)
        if key not in self._dense:
            col = np.zeros(n)
            col[: len(taps)] = taps
            idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
            m = col[idx]
            self._dense[key] = (m, np.linalg.inv(m @ m.T))
        return self._dense[key]

    def _energy(self, req, out):
        sol = out["value"]
        s = np.asarray(req["signs"], dtype=float)
        m, gram = self._dense_ops(req["taps"], req["n"])
        e = sol.energy
        if not sol.gap <= GAP_TOL * max(1.0, e):
            return f"gap {sol.gap:.3e} above {GAP_TOL:g}*max(1, E)"
        if not np.all(sol.dual >= 0.0):
            return f"negative dual entry {sol.dual.min():.3e}"
        margin = float(np.min(s * (m @ sol.x_star)))
        if not margin >= DELTA * (1 - FEAS_TOL):
            return f"margin {margin!r} below delta"
        if abs(float(sol.x_star @ sol.x_star) - e) > 1e-9 * e:
            return "E is not the energy of x*"
        # The closed form is feasible, so the optimum lies below it; a
        # certified E may exceed the optimum by at most its gap.
        closed = DELTA**2 * float(s @ gram @ s)
        if not e <= closed * (1 + 1e-12) + sol.gap:
            return f"E={e!r} above the closed-form bound {closed!r}"
        return None

    def _convergence(self, req, out):
        for taps, alpha, rows, p_asym, pbar in out["value"]:
            errs = [abs(p - p_asym) / p_asym for _, p in rows]
            if not (errs[-1] <= 2e-2 and errs[-1] <= errs[0] + 1e-12):
                return f"taps {taps} alpha {alpha}: finite-N power does not converge {errs}"
            if alpha == 0.5 and abs(p_asym - pbar) > 1e-9 * pbar:
                return f"taps {taps}: iid power {p_asym!r} is not Pbar {pbar!r}"
        return None

    def _validate(self, req, out):
        check = req["check"]
        fields = dict(
            ln.split("=", 1) for ln in out["text"].splitlines() if not ln.startswith("#")
        )
        n = int(fields["num_symbols"])
        p_hat = float(fields["empirical_flip_rate"])
        q = float(fields["theoretical_bound"])
        expected_q = 0.5 * math.erfc(DELTA / check["sigma"] / math.sqrt(2.0))
        if n != check["symbols"] or abs(q - expected_q) > 1e-12 * expected_q:
            return f"num_symbols {n} or bound {q!r} is wrong"
        se = math.sqrt(q * (1 - q) / n)
        within = abs(p_hat - q) <= 3.0 * se
        if fields["within_3sigma"] != ("true" if within else "false"):
            return "within_3sigma disagrees with the printed rates"
        if out["code"] != (0 if within else 2):
            return f"exit code {out['code']} disagrees with within_3sigma"
        if abs(p_hat - q) > SANITY_SIGMAS * se:
            return f"flip rate {p_hat!r} is {abs(p_hat - q) / se:.1f} sigma from {q!r}"
        return None
