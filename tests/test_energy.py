"""Energy QP: analytic path, active-set solver, exhaustive profiles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from isicap import (
    ChannelSpec,
    NoConvergence,
    NotDiagonallyDominant,
    TooLarge,
    analytic_energy,
    build_operators,
    code_from_pattern,
    energy,
    enumerate_profile,
    mean_energy_trace,
    pattern_from_code,
    solve_energy_qp,
)
from isicap.channel import DENSE_GRAM_CAP
from isicap.energy import _CHUNK, ENUMERATION_CAP, MIN_TIE_TOL, _necklaces, _orbits
from tests.test_acceptance import _nnls_energy
from tests.test_channel import circulant_matrix

DELTA = 0.3


def test_pattern_code_roundtrip():
    for n in (1, 3, 8):
        for code in range(1 << n):
            s = pattern_from_code(code, n)
            assert set(np.unique(s)) <= {-1.0, 1.0}
            assert code_from_pattern(s) == code


def test_pattern_code_convention():
    # Big-endian: bit N-1 is entry 0, a 1-bit is +1.
    np.testing.assert_array_equal(pattern_from_code(0b100, 3), [1.0, -1.0, -1.0])
    np.testing.assert_array_equal(pattern_from_code(0, 3), [-1.0, -1.0, -1.0])


def test_analytic_requires_dd(three_tap_ops):
    with pytest.raises(NotDiagonallyDominant):
        analytic_energy(three_tap_ops, np.ones(12))


def test_analytic_against_quadratic_form(two_tap_ops):
    rng = np.random.default_rng(0)
    m = circulant_matrix((1.0, 0.2), 12)
    g = np.linalg.inv(m @ m.T)
    for _ in range(25):
        s = np.where(rng.random(12) < 0.5, 1.0, -1.0)
        sol = analytic_energy(two_tap_ops, s)
        assert sol.energy == pytest.approx(DELTA**2 * s @ g @ s, rel=1e-12)
        assert sol.gap == 0.0
        # KKT: x* meets every constraint with equality on DD channels.
        np.testing.assert_allclose(s * (m @ sol.x_star), DELTA, atol=1e-10)
        assert sol.dual.min() >= -1e-14


def test_qp_agrees_with_analytic_on_dd(two_tap_ops):
    rng = np.random.default_rng(1)
    for _ in range(10):
        s = np.where(rng.random(12) < 0.5, 1.0, -1.0)
        ref = analytic_energy(two_tap_ops, s).energy
        sol = solve_energy_qp(two_tap_ops, s, gap_tol=1e-10)
        assert sol.energy == pytest.approx(ref, rel=1e-7)


def test_qp_against_slsqp_oracle(three_tap_ops):
    """Independent solver check on the non-DD channel."""
    m = circulant_matrix((-0.3, 1.0, 0.6), 12)
    rng = np.random.default_rng(2)
    for _ in range(8):
        s = np.where(rng.random(12) < 0.5, 1.0, -1.0)
        sol = solve_energy_qp(three_tap_ops, s, gap_tol=1e-10)
        cons = {"type": "ineq", "fun": lambda x, s=s: s * (m @ x) - DELTA}
        ref = minimize(
            lambda x: x @ x,
            x0=DELTA * np.linalg.solve(m, s),
            jac=lambda x: 2 * x,
            constraints=[cons],
            method="SLSQP",
            options={"maxiter": 400, "ftol": 1e-14},
        )
        assert ref.success
        assert sol.energy == pytest.approx(ref.fun, rel=1e-5)


def test_qp_certificates(three_tap_ops):
    rng = np.random.default_rng(3)
    m = circulant_matrix((-0.3, 1.0, 0.6), 12)
    for _ in range(10):
        s = np.where(rng.random(12) < 0.5, 1.0, -1.0)
        sol = solve_energy_qp(three_tap_ops, s)
        assert sol.gap <= 1e-8 * max(1.0, sol.energy)
        assert sol.dual.min() >= 0.0  # projected iterates stay in the cone
        margins = s * (m @ sol.x_star)
        assert margins.min() >= DELTA * (1 - 1e-8)
        assert sol.energy == pytest.approx(sol.x_star @ sol.x_star, rel=1e-12)


def test_qp_nonconvergence_surfaces():
    # This pattern's closed-form dual has a negative entry, so it needs a
    # pivot; with no pivot budget the gap cannot meet the tolerance.
    ops = build_operators(ChannelSpec((-0.3, 1.0, 0.6), DELTA, 12))
    s = pattern_from_code(0b000101010101, 12)
    with pytest.raises(NoConvergence) as err:
        solve_energy_qp(ops, s, gap_tol=1e-16, max_iter=0)
    assert err.value.gap is not None and err.value.gap > 1e-16


def test_energy_dispatcher(two_tap_ops, three_tap_ops):
    # delta^2 s'Gs is E(s) exactly when its dual 2*delta*diag(s)*G*s is
    # nonnegative; otherwise the certified optimum lies strictly below it.
    g = three_tap_ops.gram_inverse()
    rule_holds = 0
    for code in range(0, 1 << 12, 7):
        s = pattern_from_code(code, 12)
        closed = DELTA**2 * float(s @ g @ s)
        sol = energy(three_tap_ops, s)
        assert sol.gap <= 1e-8 * max(1.0, sol.energy)
        if np.all(2.0 * DELTA * s * (g @ s) >= 0.0):
            rule_holds += 1
            assert sol.energy == pytest.approx(closed, rel=1e-12)
        else:
            assert sol.energy < closed
    assert 0 < rule_holds < len(range(0, 1 << 12, 7))
    for code in (0, 1234, (1 << 12) - 1):
        s = pattern_from_code(code, 12)
        ref = analytic_energy(two_tap_ops, s)
        sol = energy(two_tap_ops, s)
        assert sol.energy == pytest.approx(ref.energy, rel=1e-12)
        np.testing.assert_allclose(sol.x_star, ref.x_star, rtol=1e-12, atol=1e-15)


def _markov_patterns(rng, count, n):
    """Sign sequences that repeat the previous sign with a probability drawn
    from [0.2, 0.8] per sequence."""
    alphas = rng.uniform(0.2, 0.8, size=count)
    flips = rng.random((count, n)) >= alphas[:, None]
    flips[:, 0] = False
    return np.where(np.cumsum(flips, axis=1) % 2 == 0, 1.0, -1.0)


def _assert_certified(ops, m, g, s, sol):
    assert np.isfinite(sol.energy)
    assert sol.gap <= 1e-8 * max(1.0, sol.energy)
    assert sol.dual.min() >= 0.0
    assert (s * (m @ sol.x_star)).min() >= ops.delta * (1 - 1e-8)
    assert sol.energy == pytest.approx(sol.x_star @ sol.x_star, rel=1e-12)
    assert sol.energy <= ops.delta**2 * float(s @ g @ s) * (1 + 1e-12)


def test_markov_patterns_certified_on_strong_two_tap():
    # On taps (1, 0.8) at N = 128 about a quarter of these patterns used to
    # come back as E = inf and gap = inf without an error.
    n = 128
    ops = build_operators(ChannelSpec((1.0, 0.8), DELTA, n))
    m = circulant_matrix((1.0, 0.8), n)
    g = np.linalg.inv(m @ m.T)
    for s in _markov_patterns(np.random.default_rng(11), 200, n):
        _assert_certified(ops, m, g, s, energy(ops, s))


def test_markov_patterns_certified_at_large_block():
    # The N = 256 point queries of the benchmark's large-block workload.
    n, taps = 256, (-0.3, 1.0, 0.6)
    ops = build_operators(ChannelSpec(taps, DELTA, n))
    m = circulant_matrix(taps, n)
    g = np.linalg.inv(m @ m.T)
    for s in _markov_patterns(np.random.default_rng(37), 32, n):
        sol = energy(ops, s)
        _assert_certified(ops, m, g, s, sol)
        assert sol.energy == pytest.approx(_nnls_energy(g, s, DELTA), rel=1e-9)


# Channels with 0.1 <= |f| <= 10 |f|_min, so G is finite and well conditioned.
@st.composite
def _channels(draw):
    taps = tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=3)))
    n = draw(st.integers(max(3, len(taps)), 10))
    gains = np.abs(np.fft.fft(np.pad(taps, (0, n - len(taps)))))
    assume(gains.min() >= max(0.1, 0.1 * gains.max()))
    code = draw(st.integers(0, (1 << n) - 1))
    return taps, n, pattern_from_code(code, n)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_channels(), st.integers(1, 9))
def test_qp_property_against_nnls(case, shift):
    taps, n, s = case
    ops = build_operators(ChannelSpec(taps, DELTA, n))
    m = circulant_matrix(taps, n)
    g = np.linalg.inv(m @ m.T)
    sol = solve_energy_qp(ops, s)
    _assert_certified(ops, m, g, s, sol)
    assert sol.energy == pytest.approx(_nnls_energy(g, s, DELTA), rel=1e-9)
    for other in (np.roll(s, shift), -s):
        moved = solve_energy_qp(ops, other)
        _assert_certified(ops, m, g, other, moved)
        assert moved.energy == pytest.approx(sol.energy, rel=1e-12)


def test_pattern_validation(two_tap_ops, two_tap_profile):
    with pytest.raises(ValueError):
        solve_energy_qp(two_tap_ops, np.zeros(12))
    with pytest.raises(ValueError):
        analytic_energy(two_tap_ops, np.ones(5))
    for bad in (np.zeros(12), np.ones(3)):
        with pytest.raises(ValueError):
            two_tap_profile.energy_of(bad)


def test_two_tap_profile_facts(two_tap_profile):
    # Minimizers are the two constant patterns; floor is delta^2*N/(1+eps)^2.
    n = 12
    assert two_tap_profile.min_count == 2
    assert sorted(two_tap_profile.minimizer_codes()) == [0, (1 << n) - 1]
    assert two_tap_profile.e_min / (n * DELTA**2) == pytest.approx(25 / 36, abs=1e-12)
    assert two_tap_profile.e_max >= two_tap_profile.e_mean >= two_tap_profile.e_min
    assert two_tap_profile.n == n


def test_profile_energy_of_matches_array(two_tap_profile, two_tap_ops):
    s = pattern_from_code(1234, 12)
    direct = analytic_energy(two_tap_ops, s).energy
    assert two_tap_profile.energy_of(s) == pytest.approx(direct, rel=1e-12)


def test_mean_matches_trace(two_tap_ops, two_tap_profile):
    assert two_tap_profile.e_mean == pytest.approx(mean_energy_trace(two_tap_ops), rel=1e-12)


def test_single_tap_profile_flat():
    ops = build_operators(ChannelSpec((1.0,), DELTA, 4))
    prof = enumerate_profile(ops)
    assert prof.min_count == 16
    for val in (prof.e_min, prof.e_mean, prof.e_max):
        assert val == pytest.approx(4 * DELTA**2, rel=1e-12)


def test_sign_symmetry_exhaustive():
    ops = build_operators(ChannelSpec((1.0, 0.2), DELTA, 8))
    prof = enumerate_profile(ops)
    for code in range(1 << 8):
        flipped = (~code) & 0xFF
        assert prof.energies[code] == pytest.approx(prof.energies[flipped], rel=1e-12)


def test_enumeration_cap():
    ops = build_operators(ChannelSpec((1.0, 0.2), DELTA, ENUMERATION_CAP + 1))
    with pytest.raises(TooLarge):
        enumerate_profile(ops)


def test_dense_gram_covers_enumeration():
    # enumerate_profile forms diag(s) G s with the dense G up to the cap.
    assert DENSE_GRAM_CAP >= ENUMERATION_CAP


def test_profile_at_cap_matches_certified_energy():
    n = ENUMERATION_CAP
    ops = build_operators(ChannelSpec((-0.3, 1.0, 0.6), DELTA, n))
    prof = enumerate_profile(ops)
    assert prof.orbit_codes.size == 26272 > _CHUNK
    rng = np.random.default_rng(20)
    picks = np.concatenate([
        rng.choice(_CHUNK, 100, replace=False),
        rng.choice(np.arange(_CHUNK, prof.orbit_codes.size), 100, replace=False),
    ])
    gram = ops.gram_inverse()
    for chunk in np.split(picks, 2):
        pats = [pattern_from_code(int(c), n) for c in prof.orbit_codes[chunk]]
        certified = np.array([energy(ops, s).energy for s in pats])
        np.testing.assert_allclose(prof.orbit_energies[chunk], certified, rtol=1e-12, atol=0)
        # Each chunk's sample holds closed-form orbits and orbits the QP lowered.
        closed = np.array([DELTA**2 * s @ gram @ s for s in pats])
        lowered = certified < closed * (1 - 1e-9)
        assert lowered.any() and not lowered.all()


def test_profile_near_null_channel_matches_exact():
    # |f| dips to 1e-3 at N = 12, so cond(G) is about 4e6.  The closed-form
    # energies must not lose digits to cancellation in s'Gs.
    a, n = 0.999, 12
    ops = build_operators(ChannelSpec((1.0, a), DELTA, n))
    prof = enumerate_profile(ops)
    # M_h^{-1} = sum_k (-a P)^k / (1 - (-a)^N) for the cyclic shift P, in exact
    # rationals of the float taps.
    fa, fd = Fraction(a), Fraction(DELTA)
    closed_form = []
    for code in prof.orbit_codes:
        s = [int(v) for v in pattern_from_code(int(code), n)]
        x = [sum((-fa) ** k * s[i - k] for k in range(n)) / (1 - (-fa) ** n) for i in range(n)]
        closed_form.append(float(fd**2 * sum(v * v for v in x)))
    closed_form = np.array(closed_form)
    certified = np.array([
        energy(ops, pattern_from_code(int(c), n)).energy for c in prof.orbit_codes
    ])
    np.testing.assert_allclose(prof.orbit_energies, certified, rtol=1e-12, atol=0)
    optimal = certified >= closed_form * (1 - 1e-9)
    assert optimal.any() and not optimal.all()
    np.testing.assert_allclose(prof.orbit_energies[optimal], closed_form[optimal], rtol=1e-12, atol=0)


def test_delta_scaling_profile():
    base = enumerate_profile(build_operators(ChannelSpec((-0.3, 1.0, 0.6), DELTA, 8)))
    scaled = enumerate_profile(build_operators(ChannelSpec((-0.3, 1.0, 0.6), 2 * DELTA, 8)))
    np.testing.assert_allclose(scaled.energies, 4.0 * base.energies, rtol=1e-6)


def test_profile_energies_read_only(two_tap_profile):
    with pytest.raises(ValueError):
        two_tap_profile.energies[0] = -1.0


@pytest.mark.parametrize(
    "n, count", [(12, 180), (14, 596), (16, 2068), (20, 26272), (22, 95420), (24, 349716)]
)
def test_orbit_counts_match_burnside(n, count):
    codes, mult = _orbits(n)
    assert codes.size == count
    assert int(mult.sum()) == 1 << n
    assert np.all(np.diff(codes) > 0)


def _fkm_necklaces(n):
    """Binary necklaces of length n and their periods by the iterative
    Fredricksen-Kessler-Maiorana loop, one word at a time: raise the last 0 of
    the current prenecklace to 1 and repeat the prefix that ends there, of
    length p, periodically to length n; the result is a necklace exactly when
    p divides n, and then p is its period."""
    mask = (1 << n) - 1
    reps = [-(-n // p) for p in range(1, n + 1)]
    repunit = [0] + [((1 << (r * p)) - 1) // ((1 << p) - 1) for p, r in enumerate(reps, 1)]
    excess = [0] + [r * p - n for p, r in enumerate(reps, 1)]
    codes, periods, word = [0], [1], 0
    while word != mask:
        ones = (word ^ (word + 1)).bit_length() - 1  # trailing 1s
        p = n - ones
        word = (((word >> ones) + 1) * repunit[p]) >> excess[p]
        if n % p == 0:
            codes.append(word)
            periods.append(p)
    return np.array(codes, dtype=np.int64), np.array(periods, dtype=np.int64)


@pytest.mark.parametrize("n", range(1, 21))
def test_necklaces_match_fkm_loop(n):
    codes, periods = _necklaces(n)
    ref_codes, ref_periods = _fkm_necklaces(n)
    assert codes.dtype == periods.dtype == np.int64
    np.testing.assert_array_equal(codes, ref_codes)
    np.testing.assert_array_equal(periods, ref_periods)


@pytest.mark.parametrize("n", range(1, 11))
def test_orbits_against_brute_force(n):
    # Least code of each orbit under rotation and negation, and orbit sizes.
    mask = (1 << n) - 1
    sizes = {}
    for code in range(1 << n):
        rotations = [((code << k) | (code >> (n - k))) & mask for k in range(n)]
        least = min(rotations + [r ^ mask for r in rotations])
        sizes[least] = sizes.get(least, 0) + 1
    codes, mult = _orbits(n)
    assert codes.tolist() == sorted(sizes)
    assert mult.tolist() == [sizes[c] for c in sorted(sizes)]


@pytest.mark.parametrize("taps", [(1.0, 0.2), (1.0, 0.8), (-0.3, 1.0, 0.6)])
@pytest.mark.parametrize("n", [5, 8, 10])
def test_orbit_profile_matches_per_code_enumeration(taps, n):
    ops = build_operators(ChannelSpec(taps, DELTA, n))
    brute = np.array([energy(ops, pattern_from_code(c, n)).energy for c in range(1 << n)])
    prof = enumerate_profile(ops)
    tied = np.flatnonzero(brute <= brute.min() * (1 + MIN_TIE_TOL))
    np.testing.assert_array_equal(prof.minimizer_codes(), tied)
    # The minimizers come from the tied orbits, not from the 2^N energies.
    assert "energies" not in prof.__dict__
    assert prof.n == n
    np.testing.assert_allclose(prof.energies, brute, rtol=1e-12)
    assert prof.e_min == pytest.approx(brute.min(), rel=1e-12)
    assert prof.e_max == pytest.approx(brute.max(), rel=1e-12)
    assert prof.e_mean == pytest.approx(math.fsum(brute.tolist()) / (1 << n), rel=1e-12)
    assert prof.min_count == tied.size
    # e_mean is the correctly rounded mean of the expanded energies.
    assert prof.e_mean == math.fsum(prof.energies.tolist()) / (1 << n)
    for code in range(0, 1 << n, 3):
        assert prof.energy_of(pattern_from_code(code, n)) == prof.energies[code]
