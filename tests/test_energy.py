"""Energy QP: analytic path, active-set solver, exhaustive profiles."""

import functools
import importlib
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
from isicap.channel import _block_energies
from isicap.energy import (
    _CHUNK,
    ENUMERATION_CAP,
    MIN_TIE_TOL,
    _necklaces,
    _orbits,
    _reversed,
    _rotations,
)
from tests.test_acceptance import _nnls_energy
from tests.test_channel import circulant_matrix

DELTA = 0.3

# Orbits of {-1, +1}^N under rotation, negation and reversal (OEIS A000011).
ORBIT_COUNTS = {12: 122, 14: 362, 16: 1162, 20: 13648, 22: 48734, 24: 176906}

# The package exports a function named energy, which hides the submodule.
energy_module = importlib.import_module("isicap.energy")


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


def test_pattern_code_arrays():
    # An array of codes decodes row by row, as each code does alone.
    for n in (1, 7, 20):
        codes = np.random.default_rng(n).integers(0, 1 << n, size=50)
        np.testing.assert_array_equal(
            pattern_from_code(codes, n), [pattern_from_code(int(c), n) for c in codes]
        )
    np.testing.assert_array_equal(pattern_from_code((1 << 64) - 1, 64), np.ones(64))
    assert pattern_from_code(np.zeros((2, 3), dtype=np.int64), 4).shape == (2, 3, 4)
    with pytest.raises(ValueError):
        pattern_from_code(1, 65)


@pytest.mark.parametrize("n", [1, 63, 64])
def test_pattern_code_roundtrip_with_top_bit(n):
    top = 1 << (n - 1)
    for code in (top, top | 1, top | (top >> 1), (1 << n) - 1, 0):
        got = code_from_pattern(pattern_from_code(code, n))
        assert type(got) is int and got == code


def test_code_from_pattern_rejects_above_64_bits():
    with pytest.raises(ValueError, match="64 bits"):
        code_from_pattern(np.ones(65))


@pytest.mark.parametrize("signs", [np.ones((2, 3)), [[1.0]], 1.0])
def test_code_from_pattern_rejects_non_1d_patterns(signs):
    # Once read as the flat pattern: np.ones((2, 3)) as code 63.
    with pytest.raises(ValueError, match="1-D"):
        code_from_pattern(signs)


@pytest.mark.parametrize(
    "code, n",
    [
        (8, 3),
        (-1, 3),
        (1 << 64, 64),
        (-1, 64),
        (np.array([0, 5, 8]), 3),
        (np.array([[1, 2], [-1, 3]]), 3),
        (np.array([1 << 20]), 20),
        (np.array([-1, 0], dtype=np.int64), 64),
        ([0, 1 << 64], 64),
    ],
)
def test_pattern_from_code_rejects_codes_outside_range(code, n):
    with pytest.raises(ValueError, match="codes must lie in"):
        pattern_from_code(code, n)


@pytest.mark.parametrize(
    "code",
    [5.5, True, np.array([5.5]), np.array([True]), [1, 2.0], np.array([5.0]), np.float64(5.0)],
)
def test_pattern_from_code_rejects_non_integer_codes(code):
    # Once truncated: 5.5 decoded as code 5 and True as code 1.
    with pytest.raises(ValueError, match="code"):
        pattern_from_code(code, 3)


@pytest.mark.parametrize("n", [3.5, True, np.float64(3.0), "3"])
def test_pattern_from_code_rejects_non_integer_n(n):
    # Once a TypeError for 3.5, and True read as N = 1.
    with pytest.raises(ValueError, match="N must be an int"):
        pattern_from_code(1, n)


def test_pattern_from_code_accepts_numpy_integers():
    np.testing.assert_array_equal(pattern_from_code(np.int64(5), 3), pattern_from_code(5, 3))
    np.testing.assert_array_equal(
        pattern_from_code([np.uint8(4), 1], 3), [pattern_from_code(4, 3), pattern_from_code(1, 3)]
    )


def test_pattern_from_code_accepts_top_bit_at_64():
    top = 1 << 63
    np.testing.assert_array_equal(
        pattern_from_code(np.array([top, top - 1], dtype=np.uint64), 64)[:, 0], [1, -1]
    )
    # A list of Python ints is decoded exactly, not through float64.
    np.testing.assert_array_equal(pattern_from_code([1, (1 << 64) - 2], 64)[:, -1], [1, -1])


@pytest.mark.parametrize("signs", [[0, 1], [1, 2], [-1.0, 0.5], [1.0, math.nan], np.zeros(64)])
def test_code_from_pattern_rejects_entries_other_than_pm1(signs):
    with pytest.raises(ValueError, match="exactly \\+-1"):
        code_from_pattern(signs)


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


def test_analytic_energy_is_the_profile_energy(two_tap_ops, two_tap_profile):
    # The closed-form energy has one implementation, so it keeps its bits.
    codes = two_tap_profile.orbit_codes
    for s, want in zip(pattern_from_code(codes, 12), two_tap_profile.orbit_energies):
        assert analytic_energy(two_tap_ops, s).energy == want


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


def test_qp_nonconvergence_surfaces(monkeypatch):
    # This pattern's closed-form dual has a negative entry, so it needs a
    # pivot; with no pivot budget the gap cannot meet the tolerance.
    ops = build_operators(ChannelSpec((-0.3, 1.0, 0.6), DELTA, 12))
    s = pattern_from_code(0b000101010101, 12)
    inner = energy_module._active_set
    monkeypatch.setattr(energy_module, "_active_set", lambda ops, s, budget: inner(ops, s, 0))
    with pytest.raises(NoConvergence) as err:
        solve_energy_qp(ops, s, gap_tol=1e-16)
    assert err.value.gap is not None and err.value.gap > 1e-16


@pytest.mark.parametrize("gap_tol", [math.nan, -1.0, -math.inf, "x", 1j])
def test_bad_gap_tol_rejected(two_tap_ops, gap_tol):
    # A tolerance no gap can meet is a bad argument, not a solver failure.
    with pytest.raises(ValueError, match="gap_tol"):
        energy(two_tap_ops, np.ones(12), gap_tol=gap_tol)


@pytest.mark.parametrize("gap_tol", [1e-10, 1, np.float32(1e-6), math.inf])
def test_gap_tol_accepts_nonnegative_reals(two_tap_ops, gap_tol):
    assert energy(two_tap_ops, np.ones(12), gap_tol=gap_tol).energy == pytest.approx(0.75)


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


def reference_free_set_optimum(ops, s, gs, free):
    """The free-set step with padding: each row's free indices are moved to the
    front by an argsort over N, and the k x k systems are padded with identity
    rows to the widest row in the batch."""
    k = int(free.sum(axis=1).max())
    ri = np.arange(s.shape[0])[:, None]
    order = np.argsort(~free, axis=1, kind="stable")[:, :k]
    valid = free[ri, order]
    sub = ops.gram_generator[(order[:, :, None] - order[:, None, :]) % ops.n]
    sub = np.where(valid[:, :, None] & valid[:, None, :], sub, np.eye(k))
    rhs = np.where(valid, -ops.delta * gs[ri, order], 0.0)
    w = np.zeros(s.shape)
    w[ri, order] = np.linalg.solve(sub, rhs[..., None])[..., 0]
    return ops.delta + s * w


def reference_active_set(ops, s, budget):
    """Plain Lawson-Hanson from the closed form: every pivot frees the one index
    with the most negative multiplier, and a step back binds every free entry
    that reached delta."""
    delta, tol = ops.delta, energy_module._dual_tol(ops)
    gs = energy_module._gram_apply(ops, s)
    z = np.full(s.shape, delta)
    free = np.zeros(s.shape, dtype=bool)
    mu = np.empty(s.shape)
    live = np.arange(s.shape[0])
    for pivot in range(budget + 1):
        s_live = s[live]
        mu[live] = np.where(
            free[live], 0.0, 2.0 * s_live * energy_module._gram_apply(ops, s_live * z[live])
        )
        j = np.argmin(mu[live], axis=1)
        keep = mu[live, j] < -tol
        live, j = live[keep], j[keep]
        if pivot == budget or live.size == 0:
            break
        free[live, j] = True
        step = live
        while True:
            zp = reference_free_set_optimum(ops, s[step], gs[step], free[step])
            done = np.all((zp > delta) | ~free[step], axis=1)
            z[step[done]] = zp[done]
            if done.all():
                break
            step, zp = step[~done], zp[~done]
            zs, fs, rows = z[step], free[step], np.arange(step.size)
            low = fs & (zp <= delta)
            span = np.where(low, np.maximum(zs - zp, energy_module._TINY), 1.0)
            ratio = (zs - delta) / span
            first = np.argmin(np.where(low, ratio, np.inf), axis=1)
            zs += ratio[rows, first][:, None] * (zp - zs)
            fs[rows, first] = False
            fs &= zs > delta
            z[step], free[step] = np.where(fs, zs, delta), fs
    return z, mu


def _reference_solve(monkeypatch, ops, s):
    """_solve's x*, E, dual and gap with the plain Lawson-Hanson active set."""
    with monkeypatch.context() as patch:
        patch.setattr(energy_module, "_active_set", reference_active_set)
        return energy_module._solve(ops, s)


def _assert_same_solutions(got, want):
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def _qp_orbit_patterns(ops):
    """The orbit patterns whose closed-form multiplier has a negative entry."""
    codes, _ = energy_module._orbits(ops.n)
    pats = pattern_from_code(codes, ops.n)
    sgs = (pats @ ops.gram_inverse()) * pats
    return pats[2.0 * ops.delta * sgs.min(axis=1) < -energy_module._dual_tol(ops)]


def test_large_block_patterns_match_reference_exactly(monkeypatch):
    n = 256
    ops = build_operators(ChannelSpec((-0.3, 1.0, 0.6), DELTA, n))
    for s in _markov_patterns(np.random.default_rng(12), 64, n):
        _assert_same_solutions(
            energy_module._solve(ops, s[None, :]), _reference_solve(monkeypatch, ops, s[None, :])
        )


@pytest.mark.parametrize(
    "taps, n",
    [((1.0, 0.8), 12), ((1.0, 0.8), 16), ((-0.3, 1.0, 0.6), 12), ((-0.3, 1.0, 0.6), 14),
     ((-0.3, 1.0, 0.6), 16)],
)
def test_qp_orbits_match_reference_exactly(monkeypatch, taps, n):
    ops = build_operators(ChannelSpec(taps, DELTA, n))
    pats = _qp_orbit_patterns(ops)
    assert pats.shape[0] > 0
    _assert_same_solutions(energy_module._solve(ops, pats), _reference_solve(monkeypatch, ops, pats))
    with monkeypatch.context() as patch:
        patch.setattr(energy_module, "_active_set", reference_active_set)
        reference = enumerate_profile(ops)
    np.testing.assert_array_equal(enumerate_profile(ops).orbit_energies, reference.orbit_energies)


def test_random_channels_match_reference_exactly(monkeypatch):
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 300:
        n = int(rng.choice([16, 32, 64, 128]))
        taps = tuple(rng.uniform(-1.0, 1.0, int(rng.integers(2, 6))))
        gains = np.abs(np.fft.fft(np.pad(taps, (0, n - len(taps)))))
        if gains.min() < max(0.05, 0.05 * gains.max()):
            continue
        ops = build_operators(ChannelSpec(taps, DELTA, n))
        pats = np.concatenate([
            _markov_patterns(rng, 10, n), np.where(rng.random((10, n)) < 0.5, 1.0, -1.0)
        ])
        for s in pats:
            _assert_same_solutions(
                energy_module._solve(ops, s[None, :]), _reference_solve(monkeypatch, ops, s[None, :])
            )
        checked += pats.shape[0]


@pytest.mark.parametrize(
    "taps, n",
    [((1.0, 0.8), 12), ((-0.3, 1.0, 0.6), 16), ((1.0, 0.2), 12), ((1.0, 0.2), 16),
     ((-0.3, 1.0, 0.6), 12), ((1.0, 0.8), 16)],
)
def test_profile_energy_equals_single_pattern_solve(taps, n):
    # A free-set step never pads a row to its batch, and the closed form and
    # the QP take E from the same Parseval sum, so every orbit's energy inside
    # the profile is bit for bit its energy solved alone.
    ops = build_operators(ChannelSpec(taps, DELTA, n))
    prof = enumerate_profile(ops)
    for s, want in zip(pattern_from_code(prof.orbit_codes, n), prof.orbit_energies):
        assert energy(ops, s).energy == want


def test_negative_set_start_takes_one_solve(monkeypatch):
    # Where the closed form's negative-multiplier set is the optimal free set,
    # pivot 0 frees it whole and one free-set solve finishes the pattern.
    n = 256
    ops = build_operators(ChannelSpec((-0.3, 1.0, 0.6), DELTA, n))
    tol = energy_module._dual_tol(ops)
    calls = []
    inner = energy_module._free_set_optimum

    def spy(ops, s, gs, free):
        calls.append(free.copy())
        return inner(ops, s, gs, free)

    monkeypatch.setattr(energy_module, "_free_set_optimum", spy)
    one_solve = 0
    for s in _markov_patterns(np.random.default_rng(37), 32, n):
        gs = energy_module._gram_apply(ops, s[None, :])[0]
        negative = 2.0 * DELTA * s * gs < -tol
        z, _ = reference_active_set(ops, s[None, :], 3 * n)
        if not negative.any() or not np.array_equal(z[0] > DELTA, negative):
            continue
        calls.clear()
        energy(ops, s)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0][0], negative)
        one_solve += 1
    assert one_solve >= 25


def test_first_step_back_binds_every_falling_index(monkeypatch):
    # From z = delta the step back has length 0: the next solve keeps exactly
    # the entries the first solve raised.
    ops = build_operators(ChannelSpec((1.0, 0.8), DELTA, 12))
    pats = _qp_orbit_patterns(ops)
    calls = []
    inner = energy_module._free_set_optimum

    def spy(ops, s, gs, free):
        zp = inner(ops, s, gs, free)
        calls.append((free.copy(), zp))
        return zp

    monkeypatch.setattr(energy_module, "_free_set_optimum", spy)
    stepped = 0
    for s in pats:
        calls.clear()
        energy_module._solve(ops, s[None, :])
        (free, zp), rest = calls[0], calls[1:]
        falling = free & (zp <= DELTA)
        if falling.any():
            np.testing.assert_array_equal(rest[0][0], free & ~falling)
            stepped += 1
    assert stepped > 0


def test_primal_infeasibility_surfaces(monkeypatch, three_tap_ops):
    inner = energy_module._active_set

    def lowered(ops, s, budget):
        z, mu = inner(ops, s, budget)
        z[0, 5] = ops.delta * (1.0 - 1e-6)
        return z, mu

    monkeypatch.setattr(energy_module, "_active_set", lowered)
    with pytest.raises(NoConvergence, match="below delta") as err:
        solve_energy_qp(three_tap_ops, pattern_from_code(0b000101010101, 12))
    assert err.value.gap is not None


def test_screened_chunks_skip_the_solver(monkeypatch, two_tap_ops):
    # Every pattern of a diagonally dominant channel passes the screen.
    def fail(*args, **kwargs):
        raise AssertionError("the QP ran on a chunk that passed the screen")

    monkeypatch.setattr(energy_module, "_solve", fail)
    assert enumerate_profile(two_tap_ops).orbit_energies.size == 122


def _profile_fields(prof):
    return prof.orbit_energies.tobytes(), prof.e_mean, prof.min_count


# (1, 0.8) at N = 14 sends orbits to the QP; (1, 0.2) at N = 17 has 2,056
# orbits, in 514 chunks of 4 or in two of 2^10 and a partial last one.
# Chunks of 3001 and 3449 rows (4k + 1) split the 13,648 orbits at N = 20
# with a ragged last chunk, which rounded its last rows differently when the
# energies went through a BLAS matrix-vector product.
@pytest.mark.parametrize("taps, n", [((1.0, 0.8), 14), ((1.0, 0.2), 17), ((1.0, 0.2), 20)])
def test_profile_bits_do_not_depend_on_chunk_size(monkeypatch, taps, n):
    ops = build_operators(ChannelSpec(taps, DELTA, n))
    want = _profile_fields(enumerate_profile(ops))
    for chunk in (4, 1 << 10, 3001, 3449, 1 << 14):
        monkeypatch.setattr(energy_module, "_CHUNK", chunk)
        assert _profile_fields(enumerate_profile(ops)) == want


@pytest.mark.parametrize("n", [20, 21])
def test_chunked_energies_equal_one_call_over_all_orbits(monkeypatch, n):
    monkeypatch.setattr(energy_module, "ENUMERATION_CAP", n)
    ops = build_operators(ChannelSpec((1.0, 0.2), DELTA, n))
    prof = enumerate_profile(ops)
    whole = _block_energies(ops, pattern_from_code(prof.orbit_codes, n))
    assert prof.orbit_codes.size > 3 * _CHUNK
    assert prof.orbit_energies.tobytes() == whole.tobytes()


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
    for other in (np.roll(s, shift), -s, s[::-1]):
        moved = solve_energy_qp(ops, other)
        _assert_certified(ops, m, g, other, moved)
        assert moved.energy == pytest.approx(sol.energy, rel=1e-12)


def test_pattern_validation(two_tap_ops):
    # solve_energy_qp is another name for energy, not a second solver.
    assert solve_energy_qp is energy
    for bad in (np.zeros(12), np.ones(3)):
        with pytest.raises(ValueError):
            energy(two_tap_ops, bad)
    with pytest.raises(ValueError):
        analytic_energy(two_tap_ops, np.ones(5))


def test_two_tap_profile_facts(two_tap_profile):
    # Minimizers are the two constant patterns; floor is delta^2*N/(1+eps)^2.
    n = 12
    assert two_tap_profile.min_count == 2
    tied = two_tap_profile.energies <= two_tap_profile.e_min * (1 + MIN_TIE_TOL)
    assert np.flatnonzero(tied).tolist() == [0, (1 << n) - 1]
    assert two_tap_profile.e_min / (n * DELTA**2) == pytest.approx(25 / 36, abs=1e-12)
    assert two_tap_profile.e_max >= two_tap_profile.e_mean >= two_tap_profile.e_min
    assert two_tap_profile.n == n


def test_profile_energy_of_matches_array(two_tap_profile, two_tap_ops):
    s = pattern_from_code(1234, 12)
    direct = analytic_energy(two_tap_ops, s).energy
    assert two_tap_profile.energies[code_from_pattern(s)] == pytest.approx(direct, rel=1e-12)


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


def test_profile_at_cap_matches_certified_energy():
    n = ENUMERATION_CAP
    ops = build_operators(ChannelSpec((-0.3, 1.0, 0.6), DELTA, n))
    prof = enumerate_profile(ops)
    assert prof.orbit_codes.size == ORBIT_COUNTS[n] > _CHUNK
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


@pytest.mark.parametrize("n, count", ORBIT_COUNTS.items())
def test_orbit_counts_match_burnside(n, count):
    # Entry 0 of each representative is -1, and the sign-change words
    # s_i xor s_{i+1} of the representatives are, in increasing order, the
    # even-weight necklaces not above the least rotation of their reversal.
    # An orbit is twice its word's period in size when the word is that
    # rotation, else four times.
    codes, mult = _orbits(n)
    assert codes.size == count
    assert int(mult.sum()) == 1 << n
    assert np.all(codes < 1 << (n - 1))
    words = codes ^ (((codes << 1) | (codes >> (n - 1))) & ((1 << n) - 1))
    necklaces, periods = _fkm_necklaces(n)
    even = np.bitwise_count(necklaces) % 2 == 0
    necklaces, periods = necklaces[even], periods[even]
    mirror = _least_rotation(_mirrored(necklaces, n), n)
    kept = necklaces <= mirror
    np.testing.assert_array_equal(words, necklaces[kept])
    sizes = np.where(necklaces == mirror, 2, 4) * periods
    np.testing.assert_array_equal(mult, sizes[kept])


@functools.cache
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


@pytest.mark.parametrize("n", range(1, 25))
def test_necklaces_match_fkm_loop(n):
    codes, periods = _necklaces(n)
    ref_codes, ref_periods = _fkm_necklaces(n)
    assert codes.dtype == periods.dtype == np.int64
    np.testing.assert_array_equal(codes, ref_codes)
    np.testing.assert_array_equal(periods, ref_periods)


def _shifted_rotations(codes, n):
    """Rotation k of each code as ((c << k) | (c >> (n - k))) & mask, k < n."""
    mask = (1 << n) - 1
    return np.array([((codes << k) | (codes >> (n - k))) & mask for k in range(n)])


def _mirrored(codes, n):
    """Each n-bit code with its bits in reverse order, one bit at a time."""
    return sum(((codes >> i) & 1) << (n - 1 - i) for i in range(n))


def _least_rotation(codes, n):
    """The least rotation of each n-bit code, by a running minimum."""
    least = codes.copy()
    for turned in _shifted_rotations(codes, n):
        np.minimum(least, turned, out=least)
    return least


def _canonical(codes, n):
    """The least of the 4n images of each code under rotation, negation and
    reversal."""
    rotations = np.concatenate(
        [_shifted_rotations(codes, n), _shifted_rotations(_mirrored(codes, n), n)]
    )
    return np.minimum(rotations, rotations ^ ((1 << n) - 1)).min(axis=0)


@pytest.mark.parametrize("n", range(1, 17))
def test_orbits_against_brute_force(n):
    # The representatives' canonical forms are those of all 2^n codes, each
    # once, and each orbit size is the number of codes with that form.
    ref_forms, ref_sizes = np.unique(
        _canonical(np.arange(1 << n, dtype=np.int64), n), return_counts=True
    )
    codes, mult = _orbits(n)
    assert codes.dtype == mult.dtype == np.int64
    forms = _canonical(codes, n)
    order = np.argsort(forms)
    np.testing.assert_array_equal(forms[order], ref_forms)
    np.testing.assert_array_equal(mult[order], ref_sizes)


@pytest.mark.parametrize("n", range(1, 13))
def test_rotations_and_least_rotation_match_shifts(n):
    codes = np.arange(1 << n, dtype=np.int64)
    ref = _shifted_rotations(codes, n)
    np.testing.assert_array_equal(list(_rotations(codes, n)), ref)


@pytest.mark.parametrize("n", [1, 2, 7, 12, 20, 31, 32])
def test_reversed_matches_bit_by_bit_reversal(n):
    codes = np.random.default_rng(n).integers(0, 1 << n, 4096, dtype=np.int64)
    codes[:2] = 0, (1 << n) - 1
    np.testing.assert_array_equal(_reversed(codes, n), _mirrored(codes, n))


def test_palindromic_and_chiral_orbit_sizes():
    # Sign-change words of length 8: 00010001 (period 4) is its own reversal
    # up to rotation, 00010111 (period 8) is not (its reversal's least
    # rotation is 00011101).  Their orbits hold 2 * 4 and 4 * 8 patterns.
    n = 8
    codes, mult = _orbits(n)
    forms = _canonical(codes, n)
    for word, size in ((0b00010001, 8), (0b00010111, 32)):
        steps = [1 - 2 * ((word >> (n - 1 - i)) & 1) for i in range(n - 1)]
        s = np.cumprod([-1] + steps)
        images = {
            tuple(sign * np.roll(p, k)) for p in (s, s[::-1]) for k in range(n) for sign in (1, -1)
        }
        assert len(images) == size
        code = np.array([code_from_pattern(s)])
        assert mult[forms == _canonical(code, n)[0]].tolist() == [size]


@pytest.mark.parametrize(
    "taps, n",
    [((1.0, 0.2), 12), ((-0.3, 1.0, 0.6), 14), ((1.0, 0.8), 16), ((0.5, -1.0, 0.9, 0.3), 13)],
)
def test_certified_energy_is_reversal_symmetric(taps, n):
    ops = build_operators(ChannelSpec(taps, DELTA, n))
    rng = np.random.default_rng(n)
    for s in rng.choice([-1.0, 1.0], size=(300, n)):
        e = energy(ops, s).energy
        assert abs(e - energy(ops, s[::-1]).energy) <= 1e-14 * e


def _rotation_negation_orbits(n):
    """Orbits under rotation and negation only: the even-weight necklaces of
    the sign-change word, each as its inverse-Gray member with entry 0 = -1,
    of twice the necklace's period in size."""
    words, periods = _fkm_necklaces(n)
    even = np.bitwise_count(words) % 2 == 0
    codes = words[even]
    for shift in (1, 2, 4, 8, 16):
        codes ^= codes >> shift
    return codes >> 1, 2 * periods[even]


def rotation_negation_profile(ops):
    """The profile with one solve per orbit under rotation and negation, the
    group the profile used before reversal."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(energy_module, "_orbits", _rotation_negation_orbits)
        return enumerate_profile(ops)


@pytest.mark.parametrize("taps", [(1.0, 0.2), (1.0, 0.8), (-0.3, 1.0, 0.6)])
@pytest.mark.parametrize("n", [12, 14, 16])
def test_energies_equal_rotation_negation_profile(taps, n):
    ops = build_operators(ChannelSpec(taps, DELTA, n))
    old = rotation_negation_profile(ops)
    want = np.full(1 << n, np.nan)
    for rotated in _shifted_rotations(old.orbit_codes, n):
        want[rotated] = old.orbit_energies
        want[rotated ^ ((1 << n) - 1)] = old.orbit_energies
    prof = enumerate_profile(ops)
    np.testing.assert_allclose(prof.energies, want, rtol=1e-14, atol=0)
    for field in ("e_min", "e_max", "e_mean"):
        assert getattr(prof, field) == pytest.approx(getattr(old, field), rel=1e-14, abs=0)
    assert prof.min_count == old.min_count


@pytest.mark.parametrize("taps", [(1.0, 0.2), (1.0, 0.8), (-0.3, 1.0, 0.6)])
@pytest.mark.parametrize("n", [5, 8, 10])
def test_orbit_profile_matches_per_code_enumeration(taps, n):
    ops = build_operators(ChannelSpec(taps, DELTA, n))
    brute = np.array([energy(ops, pattern_from_code(c, n)).energy for c in range(1 << n)])
    prof = enumerate_profile(ops)
    tied = np.flatnonzero(brute <= brute.min() * (1 + MIN_TIE_TOL))
    np.testing.assert_array_equal(
        np.flatnonzero(prof.energies <= prof.e_min * (1 + MIN_TIE_TOL)), tied
    )
    assert prof.n == n
    np.testing.assert_allclose(prof.energies, brute, rtol=1e-12)
    assert prof.e_min == pytest.approx(brute.min(), rel=1e-12)
    assert prof.e_max == pytest.approx(brute.max(), rel=1e-12)
    assert prof.e_mean == pytest.approx(math.fsum(brute.tolist()) / (1 << n), rel=1e-12)
    assert prof.min_count == tied.size
    # e_mean is the correctly rounded mean of the expanded energies.
    assert prof.e_mean == math.fsum(prof.energies.tolist()) / (1 << n)
    np.testing.assert_array_equal(prof.energies[prof.orbit_codes], prof.orbit_energies)
