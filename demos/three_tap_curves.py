"""
A channel without the analytic shortcut
=======================================

h = (-0.3, 1, 0.6) has a Gram inverse that is not diagonally dominant, so
the quadratic form is the minimum energy only for the patterns whose dual
2*d*diag(s)*G*s is nonnegative; the active-set QP solver finds the lower
optimum of the others.  This script prints the energy-profile summary and a
capacity / Markov-rate table, with the Markov power evaluated at the same
finite block length as the capacity so the two are comparable.
"""

import numpy as np

from isicap import (
    ChannelSpec,
    achievable_rate_curve,
    build_operators,
    capacity_curve,
    enumerate_profile,
    mean_energy_trace,
    pbar_asymptotic,
)

TAPS = (-0.3, 1.0, 0.6)
DELTA = 0.3
N = 12

spec = ChannelSpec(TAPS, DELTA, N)
ops = build_operators(spec)
profile = enumerate_profile(ops)

print(f"channel {TAPS}, delta={DELTA}, block length {N}")
print(f"diagonally dominant: {ops.dd_flag}")
print(f"E_min/(N d^2) = {profile.e_min / (N * DELTA**2):.6f}"
      f"   ({profile.min_count} minimizing patterns)")
print(f"E_bar/(N d^2) = {profile.e_mean / (N * DELTA**2):.6f}"
      f"   (trace identity gives {mean_energy_trace(ops) / (N * DELTA**2):.6f})")
print(f"asymptotic i.i.d. power Pbar/d^2 = {pbar_asymptotic(spec) / DELTA**2:.6f}")
print()

floor = profile.e_min / (N * DELTA**2)
ceiling = profile.e_mean / (N * DELTA**2)
grid = np.linspace(floor, ceiling, 10)
rows = capacity_curve(ops, list(grid * DELTA**2))
rates = achievable_rate_curve(spec, [float(x) * DELTA**2 for x in grid], power_model="finite")

print(f"{'P/d^2':>8}  {'C (N=12)':>9}  {'R_markov':>9}")
for x, (_, sol), (rate, _) in zip(grid, rows, rates):
    print(f"{x:8.4f}  {sol.entropy_bits_per_use:9.4f}  {rate:9.4f}")

print()
print("The Markov scheme needs noticeably more power here: zero-forcing")
print("through three taps is expensive, so its curve lags the capacity.")
