"""Noisy-channel Monte Carlo: determinism, statistics, power accounting."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri

from isicap import (
    ChannelSpec,
    MarkovScheme,
    NoisySimConfig,
    SimReport,
    apply_channel,
    apply_inverse,
    build_operators,
    power_finite_n,
    q_function,
    quantize,
    simulate_zero_forcing,
)
import isicap.simulate as simulate
from isicap.simulate import (
    _BLOCK_CHUNK,
    _positive_signs,
    _quiet_band,
    _tails,
    _words_at,
)


def normal_tail(x):
    val, _ = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), x, np.inf)
    return val


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.0, 3.0, 4.5])
def test_q_function_against_tail_integral(x):
    assert q_function(x) == pytest.approx(normal_tail(x), abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        NoisySimConfig(sigma=0.0, num_symbols=100)
    with pytest.raises(ValueError):
        NoisySimConfig(sigma=0.1, num_symbols=0)
    with pytest.raises(ValueError):
        NoisySimConfig(sigma=0.1, num_symbols=100, alpha=1.5)


@pytest.mark.parametrize("seed", [-1, 1.5, True, False, "3", None])
def test_bad_seed_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        NoisySimConfig(sigma=0.1, num_symbols=100, seed=seed)


@pytest.mark.parametrize("count", [True, 1500.5, None, "1500"])
def test_non_integer_num_symbols_rejected(count):
    with pytest.raises(ValueError, match="num_symbols must be an int"):
        NoisySimConfig(sigma=0.1, num_symbols=count)


def test_numpy_integers_accepted(two_tap_ops):
    cfg = NoisySimConfig(sigma=0.1, num_symbols=np.int64(5000), seed=np.uint32(7))
    assert type(cfg.num_symbols) is int and type(cfg.seed) is int
    plain = NoisySimConfig(sigma=0.1, num_symbols=5000, seed=7)
    assert simulate_zero_forcing(two_tap_ops, cfg) == simulate_zero_forcing(two_tap_ops, plain)


def test_large_seed_accepted():
    assert NoisySimConfig(sigma=0.1, num_symbols=100, seed=2**70).seed == 2**70


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_non_finite_sigma_rejected(sigma):
    with pytest.raises(ValueError):
        NoisySimConfig(sigma=sigma, num_symbols=100)


def test_deterministic_reruns(two_tap_ops):
    cfg = NoisySimConfig(sigma=0.12, num_symbols=50_000, seed=42)
    a = simulate_zero_forcing(two_tap_ops, cfg)
    b = simulate_zero_forcing(two_tap_ops, cfg)
    assert a == b  # dataclass equality covers every float field


def test_seed_changes_outcome(two_tap_ops):
    base = NoisySimConfig(sigma=0.12, num_symbols=50_000, seed=0)
    other = NoisySimConfig(sigma=0.12, num_symbols=50_000, seed=1)
    assert simulate_zero_forcing(two_tap_ops, base) != simulate_zero_forcing(
        two_tap_ops, other
    )


def test_negligible_noise_never_flips(two_tap_ops):
    rep = simulate_zero_forcing(
        two_tap_ops, NoisySimConfig(sigma=1e-9, num_symbols=10_000, seed=3)
    )
    assert rep.empirical_flip_rate == 0.0
    assert rep.std_error == 0.0


def test_flip_rate_tracks_q(two_tap_ops):
    # delta/sigma = 1.5: Q is large enough that 2e5 symbols give a sharp test.
    cfg = NoisySimConfig(sigma=0.2, num_symbols=200_000, seed=7)
    rep = simulate_zero_forcing(two_tap_ops, cfg)
    q = q_function(1.5)
    assert rep.theoretical_bound == pytest.approx(q, rel=1e-12)
    se = math.sqrt(q * (1 - q) / cfg.num_symbols)
    assert abs(rep.empirical_flip_rate - q) <= 4 * se


def test_measured_power_iid(two_tap_ops):
    """Average transmit power converges on the exact length-N value."""
    cfg = NoisySimConfig(sigma=0.1, num_symbols=240_000, seed=5)
    rep = simulate_zero_forcing(two_tap_ops, cfg)
    predicted = power_finite_n(two_tap_ops, MarkovScheme(0.5))
    assert rep.measured_power_per_use == pytest.approx(predicted, rel=2e-2)


def test_measured_power_markov_source(two_tap_ops):
    cfg = NoisySimConfig(sigma=0.1, num_symbols=240_000, seed=6, alpha=0.85)
    rep = simulate_zero_forcing(two_tap_ops, cfg)
    predicted = power_finite_n(two_tap_ops, MarkovScheme(0.85))
    assert rep.measured_power_per_use == pytest.approx(predicted, rel=2e-2)
    # Correlated signs are cheaper on this channel than iid ones.
    assert predicted < power_finite_n(two_tap_ops, MarkovScheme(0.5))


def test_flip_rate_independent_of_alpha(two_tap_ops):
    # Zero-forcing makes each sample's margin exactly delta, so the source
    # law cannot move the flip probability.
    q = q_function(3.0)
    for alpha in (0.5, 0.95):
        rep = simulate_zero_forcing(
            two_tap_ops,
            NoisySimConfig(sigma=0.1, num_symbols=400_000, seed=11, alpha=alpha),
        )
        se = math.sqrt(q * (1 - q) / rep.num_symbols)
        assert abs(rep.empirical_flip_rate - q) <= 4 * se


def test_partial_final_block_counted(two_tap_ops):
    rep = simulate_zero_forcing(
        two_tap_ops, NoisySimConfig(sigma=0.2, num_symbols=1001, seed=2)
    )
    assert rep.num_symbols == 1001
    flips = rep.empirical_flip_rate * 1001
    assert abs(flips - round(flips)) < 1e-9  # integer count underneath


def test_small_budget_warns(two_tap_ops):
    with pytest.warns(UserWarning):
        simulate_zero_forcing(
            two_tap_ops, NoisySimConfig(sigma=0.2, num_symbols=100, seed=0)
        )


def _markov_signs(rng: np.random.Generator, nblocks: int, n: int, alpha: float) -> np.ndarray:
    """The sign stream in its plain chunk-wide form; the simulator forms the
    same signs slice by slice from the same words."""
    first = np.where(rng.random(size=(nblocks, 1)) < 0.5, 1.0, -1.0)
    if n == 1:
        return first
    stay = rng.random(size=(nblocks, n - 1)) < alpha
    steps = np.where(stay, 1.0, -1.0)
    return np.cumprod(np.concatenate([first, steps], axis=1), axis=1)


def test_markov_sign_stream_statistics():
    rng = np.random.Generator(np.random.Philox(123))
    signs = _markov_signs(rng, 4000, 12, alpha=0.8)
    assert set(np.unique(signs)) == {-1.0, 1.0}
    # Lag-1 product mean inside blocks estimates rho = 0.6.
    prods = signs[:, :-1] * signs[:, 1:]
    assert prods.mean() == pytest.approx(0.6, abs=0.01)
    # Initial signs are unbiased across blocks.
    assert abs(signs[:, 0].mean()) < 0.05


def _run_chunks(ops, config):
    """The run's chunks in their plain chunk-wide form, in order: each chunk's
    signs b (take x N), noise lattice draws k (take x N) and counted samples."""
    n = ops.n
    nblocks = -(-config.num_symbols // n)
    rng = np.random.Generator(np.random.Philox(config.seed))
    remaining = config.num_symbols
    for done in range(0, nblocks, _BLOCK_CHUNK):
        take = min(_BLOCK_CHUNK, nblocks - done)
        b = _markov_signs(rng, take, n, config.alpha)
        k = rng.integers(0, 1 << 53, size=(take, n), dtype=np.int64)
        count = min(remaining, take * n)
        yield b, k, count
        remaining -= count


def reference_simulation(ops, config):
    """The simulator in its plain form: chunk-wide signs and FFT actions, and
    ndtri applied to every noise draw before quantizing.  Each full block's
    energy is the Parseval sum over the rfft of its signs; the partial last
    block's is the sum of x^2 over its counted samples."""
    n = ops.n
    half = ops.spec_weight[: n // 2 + 1]
    mirrored = np.arange(half.size) * 2 % n != 0  # bins k with N - k != k
    weight = np.where(mirrored, 2.0 * half, half) * (ops.delta * ops.delta / n)
    flips = 0
    energy = 0.0
    for b, k, count in _run_chunks(ops, config):
        x = ops.delta * apply_inverse(ops, b)
        noise = config.sigma * ndtri((k + 0.5) * 2.0**-53)
        decided = quantize(apply_channel(ops, x) + noise)
        disagreements = (decided != b).astype(np.int64)
        flips += int(disagreements.ravel()[:count].sum())
        energies = np.vecdot(np.fft.rfft(b).view(np.float64) ** 2, np.repeat(weight, 2))
        full, rest = divmod(count, n)
        if rest:
            energies[full] = np.sum(x[full, :rest] ** 2)
        energy += float(np.sum(energies))
    p_hat = flips / config.num_symbols
    return SimReport(
        empirical_flip_rate=p_hat,
        theoretical_bound=q_function(ops.delta / config.sigma),
        std_error=math.sqrt(p_hat * (1.0 - p_hat) / config.num_symbols),
        measured_power_per_use=energy / config.num_symbols,
        num_symbols=config.num_symbols,
    )


@pytest.mark.parametrize(
    "taps, n, symbols, sigma, alpha",
    [
        ((1.0,), 1, 5_000, 0.12, 0.5),
        ((1.0, 0.2), 12, 1_001, 0.12, 0.7),
        # Two chunks of blocks, the second partial, and a partial last block.
        ((1.0, 0.2), 12, 50_003, 0.12, 0.5),
        ((1.0, 0.2), 12, 20_000, 0.12, 0.0),
        ((1.0, 0.2), 12, 20_000, 0.12, 1.0),
        # Every draw screened; most draws in the tails; an empty band.
        ((1.0, 0.2), 12, 20_000, 1e-9, 0.5),
        ((1.0, 0.2), 12, 20_000, 1.0, 0.5),
        ((1.0, 0.2), 12, 20_000, 1e9, 0.5),
        # Two row slices, the second partial, and a partial last block.
        ((-0.3, 1.0, 0.6), 256, 256 * 300 + 17, 0.1, 0.6),
    ],
)
def test_matches_reference_loop(taps, n, symbols, sigma, alpha):
    ops = build_operators(ChannelSpec(taps, 0.3, n))
    cfg = NoisySimConfig(sigma=sigma, num_symbols=symbols, seed=17, alpha=alpha)
    assert simulate_zero_forcing(ops, cfg) == reference_simulation(ops, cfg)


def _spy_on(monkeypatch, action):
    """Record the number of blocks each simulator call to `action` (the name
    of a channel action) gets."""
    blocks = []
    apply = getattr(simulate, action)

    def spy(ops, v):
        blocks.append(v.shape[0] if v.ndim == 2 else 1)
        return apply(ops, v)

    monkeypatch.setattr(simulate, action, spy)
    return blocks


def _margin_at(monkeypatch, ops, fraction):
    """Set the rounding margin of a run on ops to fraction * delta."""
    mags = np.abs(ops.dft_gains)
    scale = mags.max() / mags.min() * math.log2(2 * ops.n)
    monkeypatch.setattr(simulate, "_ROUNDING_MARGIN", fraction / scale)


@pytest.mark.parametrize(
    "taps, n, symbols, sigma",
    [
        ((1.0, 0.2), 12, 50_003, 0.12),
        ((-0.3, 1.0, 0.6), 256, 256 * 300 + 17, 0.1),
    ],
)
def test_near_tails_fall_back_to_channel_action(monkeypatch, taps, n, symbols, sigma):
    # A margin of delta/10 puts some tails within 2*margin of 0, and their
    # blocks take y from the channel action; the others are decided on delta*s.
    ops = build_operators(ChannelSpec(taps, 0.3, n))
    cfg = NoisySimConfig(sigma=sigma, num_symbols=symbols, seed=19, alpha=0.6)
    blocks = _spy_on(monkeypatch, "apply_channel")
    _margin_at(monkeypatch, ops, 0.1)
    assert simulate_zero_forcing(ops, cfg) == reference_simulation(ops, cfg)
    assert 0 < sum(blocks) < -(-symbols // n)


@pytest.mark.parametrize("taps, n", [((1.0, 0.2), 12), ((-0.3, 1.0, 0.6), 256)])
def test_margin_above_delta_empties_the_band(monkeypatch, taps, n):
    ops = build_operators(ChannelSpec(taps, 0.3, n))
    _margin_at(monkeypatch, ops, 1.5)
    lo, hi = _quiet_band((ops.delta - simulate._rounding_margin(ops)) / 0.1)
    assert lo > hi
    blocks = _spy_on(monkeypatch, "apply_channel")
    cfg = NoisySimConfig(sigma=0.1, num_symbols=n * 200 + 5, seed=29, alpha=0.6)
    assert simulate_zero_forcing(ops, cfg) == reference_simulation(ops, cfg)
    assert sum(blocks) > 0


def test_normal_run_never_applies_the_channel(monkeypatch, two_tap_ops):
    blocks = _spy_on(monkeypatch, "apply_channel")
    cfg = NoisySimConfig(sigma=0.12, num_symbols=50_003, seed=17, alpha=0.6)
    assert simulate_zero_forcing(two_tap_ops, cfg) == reference_simulation(two_tap_ops, cfg)
    assert blocks == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_count_leaves_report_unchanged(monkeypatch, workers):
    # Ten chunks, so that the order of the energy sum shows; the last chunk
    # partial, a partial last block, and odd N.
    ops = build_operators(ChannelSpec((1.0, 0.2), 0.3, 13))
    symbols = 9 * _BLOCK_CHUNK * 13 + 1000 * 13 + 5
    cfg = NoisySimConfig(sigma=0.1, num_symbols=symbols, seed=23, alpha=0.7)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the workers finely
    try:
        report = simulate_zero_forcing(ops, cfg)
    finally:
        sys.setswitchinterval(interval)
    assert report == reference_simulation(ops, cfg)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize(
    "taps, n, symbols",
    [
        ((0.7,), 1, 3 * _BLOCK_CHUNK + 7),
        ((1.0, 0.2), 12, _BLOCK_CHUNK * 12 + 600),
        ((1.0, 0.2), 12, 5_003),
        ((1.0, 0.8), 13, 2 * _BLOCK_CHUNK * 13 + 13 * 40 + 6),
        ((-0.3, 1.0, 0.6), 256, 256 * 300),
        ((-0.3, 1.0, 0.6), 256, 256 * 300 + 17),
    ],
)
def test_power_is_the_sum_of_x_squared(monkeypatch, taps, n, symbols, alpha):
    # The Parseval energies of the sign spectra add up to sum (delta M^{-1} s)^2
    # over the counted samples.  x is formed only for a partial last block.
    ops = build_operators(ChannelSpec(taps, 0.3, n))
    cfg = NoisySimConfig(sigma=0.1, num_symbols=symbols, seed=37, alpha=alpha)
    blocks = _spy_on(monkeypatch, "apply_inverse")
    report = simulate_zero_forcing(ops, cfg)
    energy = 0.0
    for b, _, count in _run_chunks(ops, cfg):
        x = ops.delta * apply_inverse(ops, b)
        energy += math.fsum(x.ravel()[:count] ** 2)
    assert report.measured_power_per_use == pytest.approx(energy / symbols, rel=1e-14, abs=0)
    assert blocks == ([1] if symbols % n else [])


def _chunk_start(chunk, n):
    return chunk * 2 * _BLOCK_CHUNK * n


@pytest.mark.parametrize(
    "offset",
    [0, 1, 2, 3, 4, 17, 1022, _chunk_start(1, 13) - 3, _chunk_start(2, 13) + 1],
)
def test_words_at_reads_the_generator_stream(offset):
    seed = 31
    key = np.random.Philox(seed).state["state"]["key"]
    count = 9  # across the chunk boundary from the offsets just before one

    rng = np.random.Generator(np.random.Philox(seed))
    rng.random(offset)  # one word per uniform
    words = _words_at(key, offset).random_raw(count)
    uniforms = rng.random(count)
    assert np.array_equal((words >> np.uint64(11)) * 2.0**-53, uniforms)
    assert np.array_equal(words < np.uint64(1 << 63), uniforms < 0.5)

    rng = np.random.Generator(np.random.Philox(seed))
    rng.integers(0, 1 << 53, size=offset, dtype=np.int64)
    lattice = rng.integers(0, 1 << 53, size=count, dtype=np.int64)
    assert np.array_equal((words >> np.uint64(11)).view(np.int64), lattice)


def test_words_at_reads_on_sequentially():
    key = np.random.Philox(5).state["state"]["key"]
    stream = _words_at(key, 3)
    head = stream.random_raw(2)
    tail = stream.random_raw(6)
    assert np.array_equal(
        np.concatenate([head, tail]), np.random.Philox(5).random_raw(11)[3:]
    )


@pytest.mark.parametrize("alpha", [0.0, 5e-324, 0.3, 0.5, 0.7, 1.0 - 2**-53, 1.0])
def test_step_flips_match_uniforms(alpha):
    # Step words whose 53-bit integers sit on and around alpha * 2^53.
    edge = math.floor(alpha * 2**53)
    k = np.array(
        [edge + d for d in range(-2, 3) if 0 <= edge + d < 1 << 53] + [0, (1 << 53) - 1],
        dtype=np.uint64,
    )
    words = (k << np.uint64(11)) | np.uint64(0x5A5)
    positive = _positive_signs(np.zeros(len(k), dtype=np.uint64), words[:, None], alpha)
    assert positive[:, 0].all()  # word 0 is a uniform below 1/2
    uniforms = (words >> np.uint64(11)) * 2.0**-53
    assert np.array_equal(~positive[:, 1], uniforms >= alpha)


@pytest.mark.parametrize("x", [1e-3, 0.5, 1.0, 3.0, 8.0])
def test_quiet_band_edges(x):
    lo, hi = _quiet_band(x)
    assert 0 < lo <= hi < 1 << 53
    edges = ndtri((np.array([lo, hi]) + 0.5) * 2.0**-53)
    assert np.all(np.abs(edges) < x)
    # Only the margin and the rounding up separate the band from Q(x).
    tail = q_function(x) * 2.0**53
    assert tail <= lo <= tail * (1.0 + 1e-8) + 1.0


def test_quiet_band_empty_at_zero():
    lo, hi = _quiet_band(0.0)
    assert lo > hi


@pytest.mark.parametrize("x", [0.0, 1e-3, 3.0, 1e9])
def test_tails_at_the_band_edges(x):
    # x = 0 empties the band; x = 1e9 (sigma tiny) puts its lower edge at 0.
    lo, hi = _quiet_band(x)
    assert (lo == 0) == (x == 1e9)
    low, high = lo << 11, (hi << 11) | 0x7FF
    edges = [low - 1, low, low + 1, high - 1, high, high + 1, 0, (1 << 64) - 1]
    words = np.array([w % (1 << 64) for w in edges], dtype=np.uint64)
    k = (words >> np.uint64(11)).astype(object)
    expected = [i for i, ki in enumerate(k) if ki < lo or ki > hi]
    assert _tails(words, (lo, hi)).tolist() == expected
    # Just off each edge is a tail, and so is word 0 unless the band starts at 0.
    if lo <= hi:
        assert expected == ([0, 5, 7] if lo == 0 else [0, 5, 6, 7])


def test_import_leaves_scipy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, isicap; print(sorted(m for m in sys.modules"
        " if m.startswith('scipy') or m == 'concurrent.futures'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), check=True,
    )
    assert proc.stdout.strip() == "[]"
