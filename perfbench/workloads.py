"""The benchmark's workloads as seeded lists of requests.

A request is plain data: a CLI invocation (``kind="cli"``) run in-process
through ``isicap.cli.main``, or a library call (``kind="energy"`` or
``kind="convergence"``).  Each carries a ``check`` entry naming the test its
output must pass.  The same seed gives the same requests; isicap receives
only these generated inputs.

Why these four, each stressing a different layer:

- ``paper-figures``: the "reproduce the paper" path.  Most of it is the
  asymptotic zero-forcing rate in ``markov``/``spectral`` plus the QP profile
  of taps (1, 0.8).  Its inputs are fixed by the paper, so it ignores the seed.
- ``qp-profile``: QP enumeration in ``energy`` on two non-dominant channels
  whose patterns pass the closed-form KKT test at very different rates
  (about 60% for (-0.3, 1, 0.6), 1.5% for (1, 0.8)).
- ``gibbs-n20``: a dominant channel at N = 20, where the energies are closed
  form and the time goes to ``gibbs.solve_beta`` over 2^20 energies; it
  bypasses the QP and ``markov``.
- ``large-block``: N = 128..256, beyond the enumeration cap: certified
  single-pattern QP solves, the finite-N Markov power, and the AWGN simulator
  with its FFT channel actions.
"""

import numpy as np

DELTA = 0.3
TWO_TAP = (1.0, 0.2)
STRONG_TWO_TAP = (1.0, 0.8)
THREE_TAP = (-0.3, 1.0, 0.6)


def _taps_flag(taps):
    # The --taps=... form also accepts a leading negative tap.
    return "--taps=" + ",".join(repr(float(t)) for t in taps)


def _shifted_grid(rng, lo, hi, count):
    """count evenly spaced points from lo to hi, all moved by one seeded
    offset of at most half a step."""
    step = (hi - lo) / (count - 1)
    offset = float(rng.uniform(-0.5, 0.5)) * step
    return [lo + offset + i * step for i in range(count)]


def _markov_signs(rng, n, alpha):
    first = 1 if rng.random() < 0.5 else -1
    steps = np.where(rng.random(n - 1) < alpha, 1, -1)
    return [int(v) for v in np.cumprod(np.concatenate([[first], steps]))]


def _capacity(taps, n, grid):
    argv = ["capacity", _taps_flag(taps), "--n", str(n), "--grid", ",".join(map(repr, grid))]
    check = {"type": "capacity", "taps": list(taps), "n": n, "grid": grid}
    return {"kind": "cli", "argv": argv, "check": check}


def paper_figures(rng):
    return [
        {"kind": "cli", "argv": ["figures", "fig3"], "check": {"type": "fig3"}},
        {"kind": "cli", "argv": ["figures", "fig4"], "check": {"type": "fig4"}},
    ]


def qp_profile(rng):
    return [
        _capacity(THREE_TAP, 14, _shifted_grid(rng, 0.54, 0.87, 16)),
        _capacity(THREE_TAP, 16, _shifted_grid(rng, 0.54, 0.87, 16)),
        _capacity(STRONG_TWO_TAP, 12, _shifted_grid(rng, 0.30, 1.80, 16)),
    ]


def gibbs_n20(rng):
    # Every point lies strictly between the floor (0.694) and the mean (1.042)
    # in P/delta^2, so each one runs the interior beta solve.
    return [_capacity(TWO_TAP, 20, _shifted_grid(rng, 0.72, 1.00, 8))]


def large_block(rng):
    requests = []
    # No point queries on (1, 0.8): isicap.energy() returns E = inf there,
    # uncertified and without raising, on about a quarter of Markov patterns
    # (its stop test reads inf <= inf as converged when the first iterate is
    # infeasible).  The three-tap channel showed no such pattern in 64000.
    for _ in range(64):
        signs = _markov_signs(rng, 256, float(rng.uniform(0.2, 0.8)))
        requests.append({
            "kind": "energy", "taps": list(THREE_TAP), "n": 256, "signs": signs,
            "check": {"type": "energy"},
        })
    grid = _shifted_grid(rng, 0.60, 0.84, 8)
    requests.append({
        "kind": "cli",
        "argv": ["markov", _taps_flag(THREE_TAP), "--n", "256", "--power-model", "finite",
                 "--grid", ",".join(map(repr, grid))],
        "check": {"type": "markov", "grid": grid},
    })
    alphas = [0.5] + sorted(float(a) for a in rng.uniform(0.2, 0.85, 3))
    for taps in (TWO_TAP, THREE_TAP, STRONG_TWO_TAP):
        requests.append({
            "kind": "convergence", "taps": list(taps), "ns": [16, 32, 64, 128, 256],
            "alphas": alphas, "check": {"type": "convergence"},
        })
    sim_seed = int(rng.integers(0, 1 << 31))
    requests.append({
        "kind": "cli",
        "argv": ["validate", _taps_flag(THREE_TAP), "--n", "256", "--alpha", "0.8",
                 "--sigma", "0.1", "--symbols", "10000000", "--seed", str(sim_seed)],
        "check": {"type": "validate", "sigma": 0.1, "symbols": 10_000_000},
    })
    return requests


# name -> (request maker, channels (taps, N) the workload's users build)
WORKLOADS = {
    "paper-figures": (paper_figures, [(TWO_TAP, 12), (STRONG_TWO_TAP, 12), (THREE_TAP, 12)]),
    "qp-profile": (qp_profile, [(THREE_TAP, 14), (THREE_TAP, 16), (STRONG_TWO_TAP, 12)]),
    "gibbs-n20": (gibbs_n20, [(TWO_TAP, 20)]),
    "large-block": (large_block, [(THREE_TAP, 256), (STRONG_TWO_TAP, 128)]),
}


def build(name, seed):
    """The request list and setup channels of workload `name` for `seed`."""
    make_requests, channels = WORKLOADS[name]
    return make_requests(np.random.default_rng(seed)), [[list(t), n] for t, n in channels]
