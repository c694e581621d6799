"""Command-line front end.

Subcommands: capacity (Gibbs capacity curve over a power grid), markov
(zero-forcing Markov rates), energy (exhaustive min-energy profile), validate
(noisy Monte-Carlo check of the flip-rate bound), figures (reference CSV data
for the two standard channels).  Output is CSV on stdout or --out, with
'#'-prefixed metadata lines, a header row, and shortest round-trip float
formatting so identical configs reproduce identical bytes.

Exit codes: 0 success, 1 usage/config error, 2 validation failure,
3 numerical failure.
"""

import argparse
import functools
import sys

import numpy as np

from .channel import ChannelSpec, build_operators
from .energy import enumerate_profile
from .exceptions import (
    InfeasiblePower,
    IsicapError,
    NoConvergence,
    QuadratureFailure,
)
from .gibbs import Regime, capacity_curve
from .markov import achievable_rate_curve
from .simulate import NoisySimConfig, simulate_zero_forcing
from .spectral import pbar_two_tap, pmin_two_tap

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# Channels the figures subcommand reproduces.
_FIG3_EPSILONS = (0.2, 0.8)
_FIG4_TAPS = (-0.3, 1.0, 0.6)
_FIG_DELTA = 0.3

# Published abscissas (P/delta^2) for the three-tap figure.
_FIG4_CAPACITY_X = (
    0.5644, 0.5744, 0.5856, 0.5967, 0.6078, 0.6189, 0.6300, 0.6400, 0.6511,
    0.6622, 0.6733, 0.6844, 0.6956, 0.7056, 0.7167, 0.7278, 0.7389, 0.7500,
    0.7611, 0.7711, 0.7822, 0.7933, 0.8044, 0.8156, 0.8267, 0.8367,
)
_FIG4_MARKOV_X = (
    0.5922, 0.6022, 0.6133, 0.6244, 0.6356, 0.6467, 0.6578, 0.6678, 0.6789,
    0.6900, 0.7011, 0.7122, 0.7233, 0.7333, 0.7444, 0.7556, 0.7667, 0.7778,
    0.7889, 0.7989, 0.8100, 0.8211, 0.8322,
)


def _fmt(x) -> str:
    return repr(float(x))


def _parse_taps(text: str) -> tuple:
    try:
        taps = tuple(float(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"could not parse taps {text!r}") from None
    if not taps:
        raise ValueError("taps must be nonempty")
    return taps


def _parse_grid(text: str) -> tuple:
    if not text:
        raise ValueError("grid must be nonempty")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be min:max:count, got {text!r}")
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
        if count < 1:
            raise ValueError("grid count must be >= 1")
        # hi - lo is finite only when both ends are and their span does not
        # overflow, and then np.linspace raises no RuntimeWarning.
        if not np.isfinite(hi - lo):
            raise ValueError(f"grid values must be finite, got {text!r}")
        values = tuple(float(v) for v in np.linspace(lo, hi, count))
    else:
        values = tuple(float(t) for t in text.split(","))
    if not np.all(np.isfinite(values)):
        raise ValueError(f"grid values must be finite, got {text!r}")
    if any(b < a for a, b in zip(values, values[1:])):
        raise ValueError("grid must be ascending")
    return values


def _config_lines(cmd: str, spec: ChannelSpec, seed: int, extra: str = "") -> list:
    line = (
        f"# isicap {cmd} taps={','.join(_fmt(t) for t in spec.taps)}"
        f" delta={_fmt(spec.delta)} n={spec.block_len} seed={seed}"
    )
    if extra:
        line += " " + extra
    return [line]


def _gridded_spec(args):
    """The spec and the (raw power, printed P/delta^2) pairs of --grid, parsed
    after the taps and before the spec is checked.  The printed value echoes
    the parsed grid exactly when it was given in normalized units."""
    taps = _parse_taps(args.taps)
    grid = _parse_grid(args.grid)
    spec = ChannelSpec(taps, args.delta, args.n)
    d2 = spec.delta**2
    return spec, [(v, v / d2) if args.raw_units else (v * d2, v) for v in grid]


def cmd_capacity(args):
    spec, pairs = _gridded_spec(args)
    ops = build_operators(spec)
    rows = capacity_curve(ops, [p for p, _ in pairs])
    if all(sol.regime is Regime.INFEASIBLE for _, sol in rows):
        raise InfeasiblePower(
            "every grid point is infeasible (below the minimum-energy floor)"
        )
    lines = _config_lines("capacity", spec, args.seed)
    lines.append("p_over_delta2,capacity_bits,regime,gibbs_beta")
    for (_, shown), (_, sol) in zip(pairs, rows):
        lines.append(
            f"{_fmt(shown)},{_fmt(sol.entropy_bits_per_use)},"
            f"{sol.regime.name},{_fmt(sol.gibbs_beta)}"
        )
    return lines, EXIT_OK


def cmd_markov(args):
    spec, pairs = _gridded_spec(args)
    lines = _config_lines("markov", spec, args.seed, extra=f"power_model={args.power_model}")
    lines.append("p_over_delta2,rate_bits,alpha_star")
    rows = achievable_rate_curve(spec, [p for p, _ in pairs], power_model=args.power_model)
    for (_, shown), (rate, alpha) in zip(pairs, rows):
        lines.append(f"{_fmt(shown)},{_fmt(rate)},{_fmt(alpha)}")
    return lines, EXIT_OK


def cmd_energy(args):
    spec = ChannelSpec(_parse_taps(args.taps), args.delta, args.n)
    ops = build_operators(spec)
    profile = enumerate_profile(ops)
    n = spec.block_len
    lines = _config_lines("energy", spec, args.seed)
    lines.append("e_min_per_use,e_mean_per_use,e_max_per_use,min_count,dd_flag")
    lines.append(
        f"{_fmt(profile.e_min / n)},{_fmt(profile.e_mean / n)},"
        f"{_fmt(profile.e_max / n)},{profile.min_count},"
        f"{'true' if ops.dd_flag else 'false'}"
    )
    if args.dump_energies:
        lines.append("# per-pattern energies")
        lines.append("pattern_bits,energy")
        for code, e in enumerate(profile.energies):
            lines.append(f"{format(code, f'0{n}b')},{_fmt(e)}")
    return lines, EXIT_OK


def cmd_validate(args):
    spec = ChannelSpec(_parse_taps(args.taps), args.delta, args.n)
    ops = build_operators(spec)
    sim = NoisySimConfig(
        sigma=args.sigma, num_symbols=args.symbols, seed=args.seed, alpha=args.alpha
    )
    report = simulate_zero_forcing(ops, sim)
    q = report.theoretical_bound
    slack = 3.0 * np.sqrt(q * (1.0 - q) / report.num_symbols)
    ok = abs(report.empirical_flip_rate - q) <= slack
    lines = _config_lines(
        "validate", spec, args.seed, extra=f"sigma={_fmt(args.sigma)} alpha={_fmt(args.alpha)}"
    )
    lines.append(f"empirical_flip_rate={_fmt(report.empirical_flip_rate)}")
    lines.append(f"theoretical_bound={_fmt(report.theoretical_bound)}")
    lines.append(f"std_error={_fmt(report.std_error)}")
    lines.append(f"measured_power_per_use={_fmt(report.measured_power_per_use)}")
    lines.append(f"num_symbols={report.num_symbols}")
    lines.append(f"within_3sigma={'true' if ok else 'false'}")
    return lines, EXIT_OK if ok else EXIT_VALIDATION


def _figure_lines(which: str, block_len: int, rows):
    """The CSV lines of one figure.  Each row is one channel: (series label
    suffix, taps, capacity abscissas, Markov abscissas, Markov power model,
    verified), the abscissas in P/delta^2."""
    lines = [f"# isicap figures {which} delta={_fmt(_FIG_DELTA)} n={block_len}"]
    lines.append("series,p_over_delta2,bits,verified")
    d2 = _FIG_DELTA**2
    for suffix, taps, capacity_x, markov_x, power_model, verified in rows:
        flag = "true" if verified else "false"
        spec = ChannelSpec(taps, _FIG_DELTA, block_len)
        curve = capacity_curve(build_operators(spec), [x * d2 for x in capacity_x])
        for x, (_, sol) in zip(capacity_x, curve):
            lines.append(f"C{suffix},{_fmt(x)},{_fmt(sol.entropy_bits_per_use)},{flag}")
        rates = achievable_rate_curve(spec, [x * d2 for x in markov_x], power_model=power_model)
        for x, (rate, _) in zip(markov_x, rates):
            lines.append(f"Rm{suffix},{_fmt(x)},{_fmt(rate)},{flag}")
    return lines


def cmd_figures(args):
    if args.which == "fig3":
        # Both published series share the 16-point grid spanning the eps=0.2
        # feasible band [pmin, pbar].
        d2 = _FIG_DELTA**2
        lo = pmin_two_tap(0.2, _FIG_DELTA) / d2
        hi = pbar_two_tap(0.2, _FIG_DELTA) / d2
        grid = np.linspace(lo, hi, 16)
        rows = [
            (f"_eps{_fmt(eps)}", (1.0, eps), grid, grid, "asymptotic", eps == 0.2)
            for eps in _FIG3_EPSILONS
        ]
    else:
        # The published Markov curve reflects the block-length-12 power, not its
        # large-N limit, so the finite model is used here.
        rows = [("", _FIG4_TAPS, _FIG4_CAPACITY_X, _FIG4_MARKOV_X, "finite", True)]
    return _figure_lines(args.which, args.n, rows), EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; remap to the documented code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_channel_flags(p, with_grid: bool):
    p.add_argument("--taps", required=True, help="comma-separated channel taps, e.g. 1,0.2")
    p.add_argument("--delta", type=float, default=0.3, help="threshold margin (default 0.3)")
    p.add_argument("--n", type=int, default=12, help="block length (default 12)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", default="", help="output path (default stdout)")
    if with_grid:
        p.add_argument(
            "--grid",
            required=True,
            help="power grid: min:max:count or comma list, in P/delta^2 units",
        )
        p.add_argument(
            "--raw-units",
            action="store_true",
            help="interpret --grid in raw power units instead of P/delta^2",
        )


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on the first call and reused: argparse asks
    for the terminal size on every add_argument."""
    parser = _Parser(prog="isicap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="Gibbs capacity over a power grid")
    _add_channel_flags(p, with_grid=True)

    p = sub.add_parser("markov", help="zero-forcing Markov rates over a power grid")
    _add_channel_flags(p, with_grid=True)
    p.add_argument(
        "--power-model",
        choices=("asymptotic", "finite"),
        default="asymptotic",
        help="power constraint: large-N limit (default) or exact length-N",
    )

    p = sub.add_parser("energy", help="exhaustive minimum-energy profile")
    _add_channel_flags(p, with_grid=False)
    p.add_argument(
        "--dump-energies", action="store_true", help="also emit all 2^N pattern energies"
    )

    p = sub.add_parser("validate", help="Monte-Carlo check of the flip-rate bound")
    _add_channel_flags(p, with_grid=False)
    p.add_argument("--sigma", type=float, required=True, help="noise standard deviation")
    p.add_argument(
        "--alpha", type=float, default=0.5, help="sign-source self-transition (default 0.5)"
    )
    p.add_argument(
        "--symbols", type=int, default=1_000_000, help="symbol budget (default 1e6)"
    )

    p = sub.add_parser("figures", help="reference CSV data for the standard channels")
    p.add_argument("which", choices=("fig3", "fig4"))
    p.add_argument("--n", type=int, default=12, help="block length (default 12)")
    p.add_argument("--out", default="", help="output path (default stdout)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up by name on each call, so a rebound cmd_* function is the one run.
    run = globals()[f"cmd_{args.command}"]
    try:
        lines, code = run(args)
    except (NoConvergence, QuadratureFailure) as exc:
        print(f"isicap: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (IsicapError, ValueError) as exc:
        print(f"isicap: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    text = "\n".join(lines) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"isicap: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
