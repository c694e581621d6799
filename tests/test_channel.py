"""Channel construction, FFT application, and inversion."""

import numpy as np
import pytest

from isicap import (
    ChannelSpec,
    DimensionMismatch,
    SingularChannel,
    apply_channel,
    apply_inverse,
    build_operators,
    frequency_response,
    pattern_from_code,
    quantize,
)
from isicap.channel import _block_energies


def circulant_matrix(taps, n):
    """Dense circulant with the taps down the first column."""
    col = np.zeros(n)
    col[: len(taps)] = taps
    m = np.empty((n, n))
    for j in range(n):
        m[:, j] = np.roll(col, j)
    return m


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec((), 0.3, 8)
    with pytest.raises(ValueError):
        ChannelSpec((1.0,), -0.1, 8)
    with pytest.raises(ValueError):
        ChannelSpec((1.0, 0.2, 0.1), 0.3, 2)  # more taps than block length


@pytest.mark.parametrize("block_len", [12.0, True, None, "12"])
def test_non_integer_block_len_rejected(block_len):
    with pytest.raises(ValueError, match="block_len must be an int"):
        ChannelSpec((1.0, 0.2), 0.3, block_len)


def test_numpy_block_len_accepted():
    spec = ChannelSpec((1.0, 0.2), 0.3, np.int64(12))
    assert spec.block_len == 12 and type(spec.block_len) is int
    assert build_operators(spec).n == 12


def test_taps_coerced_to_floats():
    spec = ChannelSpec((1, 0.2), 0.3, 8)
    assert spec.taps == (1.0, 0.2)
    assert all(isinstance(t, float) for t in spec.taps)


@pytest.mark.parametrize("taps", [(1.0,), (1.0, 0.2), (-0.3, 1.0, 0.6), (0.9, -0.4, 0.25, 0.1)])
@pytest.mark.parametrize("n", [4, 7, 12])
def test_gains_match_dense_eigenvalues(taps, n):
    if len(taps) > n:
        pytest.skip("taps longer than block")
    ops = build_operators(ChannelSpec(taps, 0.3, n))
    m = circulant_matrix(taps, n)
    # Circulant eigenvalues in DFT order, computed from the dense matrix.
    eig = np.fft.fft(m[:, 0])
    np.testing.assert_allclose(np.conj(ops.dft_gains), eig, atol=1e-12)


@pytest.mark.parametrize("taps", [(1.0, 0.2), (-0.3, 1.0, 0.6)])
def test_apply_matches_dense(taps):
    n = 10
    ops = build_operators(ChannelSpec(taps, 0.3, n))
    m = circulant_matrix(taps, n)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal(n)
        np.testing.assert_allclose(apply_channel(ops, x), m @ x, atol=1e-12)
        np.testing.assert_allclose(apply_inverse(ops, x), np.linalg.solve(m, x), atol=1e-10)


def test_apply_batched_rows():
    ops = build_operators(ChannelSpec((1.0, 0.2), 0.3, 8))
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((5, 8))
    single = np.stack([apply_channel(ops, row) for row in xs])
    np.testing.assert_allclose(apply_channel(ops, xs), single, atol=1e-13)


def test_inverse_roundtrip():
    ops = build_operators(ChannelSpec((-0.3, 1.0, 0.6), 0.3, 16))
    rng = np.random.default_rng(11)
    x = rng.standard_normal(16)
    np.testing.assert_allclose(apply_inverse(ops, apply_channel(ops, x)), x, atol=1e-12)


def test_gram_inverse_against_dense():
    # N = 32 lies past the exhaustive profile's cap: the dense G has none.
    taps = (1.0, 0.2)
    for n in (9, 32):
        ops = build_operators(ChannelSpec(taps, 0.3, n))
        m = circulant_matrix(taps, n)
        g = np.linalg.inv(m @ m.T)
        np.testing.assert_allclose(ops.gram_inverse(), g, atol=1e-12)
        np.testing.assert_allclose(ops.gram_generator, g[:, 0], atol=1e-12)


def test_frequency_response_scalar_and_array():
    spec = ChannelSpec((1.0, 0.2), 0.3, 8)
    val = frequency_response(spec, 0.0)
    assert isinstance(val, complex)
    assert val == pytest.approx(1.2)
    lam = np.linspace(0, 2 * np.pi, 5)
    arr = frequency_response(spec, lam)
    assert arr.shape == (5,)
    assert arr[0] == pytest.approx(val)


def test_singular_channel_rejected():
    # f(pi) = 1 - 1 = 0 at even N: inverse does not exist.
    with pytest.raises(SingularChannel):
        build_operators(ChannelSpec((1.0, 1.0), 0.3, 8))


@pytest.mark.parametrize(
    "taps, delta",
    [((1.0, float("nan")), 0.3), ((float("inf"), 0.2), 0.3), ((1.0, 0.2), float("inf")),
     ((1.0, 0.2), float("nan"))],
)
def test_non_finite_spec_rejected(taps, delta):
    with pytest.raises(ValueError):
        ChannelSpec(taps, delta, 8)


@pytest.mark.parametrize("delta", [1e200, 1e155, 10**200, 1e-170, 1e-155])
def test_delta_square_must_be_normal(delta):
    # delta^2 overflows to inf, underflows to 0 or is subnormal.
    with pytest.raises(ValueError, match="delta\\^2 must be a normal float"):
        ChannelSpec((1.0, 0.2), delta, 8)


@pytest.mark.parametrize("delta", [1e-150, 1e150])
def test_delta_square_normal_accepted(delta):
    assert ChannelSpec((1.0, 0.2), delta, 8).delta == delta


def test_overflowing_gram_rejected():
    # |f|^2 underflows, so 1/|f|^2 is inf although the taps are finite.
    with pytest.raises(SingularChannel):
        build_operators(ChannelSpec((0.0, 1e-160), 0.3, 4))


def test_dd_flag_cases():
    assert build_operators(ChannelSpec((1.0, 0.2), 0.3, 12)).dd_flag
    assert not build_operators(ChannelSpec((-0.3, 1.0, 0.6), 0.3, 12)).dd_flag


def test_dimension_mismatch():
    ops = build_operators(ChannelSpec((1.0, 0.2), 0.3, 8))
    with pytest.raises(DimensionMismatch):
        apply_channel(ops, np.ones(7))


@pytest.mark.parametrize("apply", [apply_channel, apply_inverse])
@pytest.mark.parametrize("value", [1.0, np.float64(2.0), np.array(3.0)])
def test_scalar_input_is_a_dimension_mismatch(apply, value):
    ops = build_operators(ChannelSpec((1.0, 0.2), 0.3, 8))
    with pytest.raises(DimensionMismatch, match="shape \\(\\)"):
        apply(ops, value)


def test_quantize_sign_convention():
    # Zero maps to +1.
    assert quantize(0.0) == 1
    assert quantize(-0.0) == 1
    assert quantize(3.5) == 1
    assert quantize(-1e-300) == -1
    np.testing.assert_array_equal(quantize(np.array([-2.0, 0.0, 0.7])), [-1, 1, 1])


def test_operators_are_frozen():
    ops = build_operators(ChannelSpec((1.0, 0.2), 0.3, 8))
    with pytest.raises(ValueError):
        ops.gram_generator[0] = 99.0


@pytest.mark.parametrize("n", range(1, 10))
def test_block_energies_match_dense_inverse(n):
    # Odd and even N, so the unpaired rfft bin N/2 is covered.
    taps = (-0.3, 1.0, 0.6)[:n]
    ops = build_operators(ChannelSpec(taps, 0.3, n))
    signs = pattern_from_code(np.arange(1 << n), n)
    x = 0.3 * np.linalg.solve(circulant_matrix(taps, n), signs.T).T
    np.testing.assert_allclose(_block_energies(ops, signs), np.sum(x * x, axis=1), rtol=1e-13)
