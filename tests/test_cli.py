"""CLI behavior: output formats, exit codes, determinism."""

import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import isicap.cli as cli
import isicap.gibbs as gibbs
from isicap import SimReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    """Rows of a '#'-commented CSV as lists of strings, header first."""
    rows = [ln.split(",") for ln in text.splitlines() if ln and not ln.startswith("#")]
    return rows[0], rows[1:]


def test_capacity_single_tap_step(capsys):
    code, out, _ = run_cli(
        capsys, "capacity", "--taps", "1", "--grid", "0.5,1.0,1.5", "--n", "8"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["p_over_delta2", "capacity_bits", "regime", "gibbs_beta"]
    assert [r[2] for r in rows] == ["INFEASIBLE", "SATURATED", "SATURATED"]
    assert [float(r[1]) for r in rows] == [0.0, 1.0, 1.0]


def test_capacity_whole_grid_infeasible(capsys):
    code, out, err = run_cli(
        capsys, "capacity", "--taps", "1,0.2", "--grid", "0.1:0.3:3"
    )
    assert code == 1
    assert "floor" in err or "infeasible" in err.lower()
    assert out == ""


def test_capacity_mixed_grid_keeps_infeasible_rows(capsys):
    code, out, _ = run_cli(
        capsys, "capacity", "--taps", "1,0.2", "--grid", "0.5:1.0:3"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][2] == "INFEASIBLE" and float(rows[0][1]) == 0.0
    assert rows[2][2] == "GIBBS_INTERIOR"


def test_markov_spot_value(capsys):
    code, out, _ = run_cli(
        capsys, "markov", "--taps", "1,0.2", "--grid", "0.8333333333333334,0.9"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["p_over_delta2", "rate_bits", "alpha_star"]
    assert float(rows[0][1]) == pytest.approx(0.7642, abs=5e-4)
    assert float(rows[0][2]) == pytest.approx(0.7778, abs=1e-3)


def test_markov_below_floor_is_zero(capsys):
    code, out, _ = run_cli(capsys, "markov", "--taps", "1,0.2", "--grid", "0.5,0.6")
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[1]) for r in rows] == [0.0, 0.0]


def test_markov_power_model_flag(capsys):
    _, out_a, _ = run_cli(
        capsys, "markov", "--taps=-0.3,1,0.6", "--grid", "0.6022"
    )
    _, out_f, _ = run_cli(
        capsys, "markov", "--taps=-0.3,1,0.6", "--grid", "0.6022",
        "--power-model", "finite",
    )
    rate_a = float(parse_csv(out_a)[1][0][1])
    rate_f = float(parse_csv(out_f)[1][0][1])
    assert rate_f == pytest.approx(0.2735, abs=0.03)
    assert rate_a > rate_f  # the length-12 constraint is the stricter one


@pytest.mark.parametrize("model", ["asymptotic", "finite"])
def test_markov_pure_delay_saturates_at_delta_squared(capsys, model):
    # Every alpha costs delta^2 on the pure delay; the finite power at
    # alpha = 1/2 rounds an ulp above it and still reads saturation.
    code, out, _ = run_cli(
        capsys, "markov", "--taps", "0,1", "--n", "6", "--grid", "0.98:1.02:5",
        "--power-model", model,
    )
    assert code == 0
    assert [r[1:] for r in parse_csv(out)[1]] == [
        ["0.0", "nan"], ["0.0", "nan"], ["1.0", "0.5"], ["1.0", "0.5"], ["1.0", "0.5"]
    ]


@pytest.mark.parametrize("taps", ["1,-1", "1,1", "1,0.9999999999"])
def test_markov_spectral_null_rejected(capsys, taps):
    code, out, err = run_cli(capsys, "markov", f"--taps={taps}", "--grid", "0.5,1,4")
    assert code == 1
    assert out == ""
    assert "zero-forcing power is unbounded" in err


@pytest.mark.parametrize("model", ["asymptotic", "finite"])
@pytest.mark.parametrize("taps", ["1e200,1", "1e-200", "1e-160,1e-161"])
def test_markov_extreme_taps(capsys, model, taps):
    # |f|^2 overflows on the first channel, so 1/|f|^2 and every power are 0
    # and the rate saturates; 1/|f|^2 overflows on the others.  Both power
    # models answer as capacity does, with no warning and no traceback.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "markov", f"--taps={taps}", "--grid", "1", "--power-model", model
        )
        capacity = run_cli(capsys, "capacity", f"--taps={taps}", "--grid", "1")
    if taps == "1e200,1":
        assert (code, err) == (0, "")
        assert parse_csv(out)[1] == [["1.0", "1.0", "0.5"]]
        assert parse_csv(capacity[1])[1] == [["1.0", "1.0", "SATURATED", "0.0"]]
    else:
        assert (code, out) == (capacity[0], capacity[1]) == (1, "")
        assert err == capacity[2] == "isicap: the Gram inverse (M_h M_h^T)^{-1} overflows\n"


# Every subcommand that takes --taps, each with its other arguments.
TAPS_COMMANDS = [
    ["markov", "--grid", "1"],
    ["markov", "--grid", "1", "--power-model", "finite"],
    ["capacity", "--grid", "1"],
    ["energy", "--n", "4"],
    ["validate", "--sigma", "0.1", "--symbols", "10000"],
]


@pytest.mark.parametrize("argv", TAPS_COMMANDS)
def test_overflowing_taps_rejected(capsys, argv):
    # sum |h_k| = 2e308 is past the largest float, so the gains overflow: the
    # taps are rejected where they enter, with no warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv[0], "--taps", "1e308,1e308", *argv[1:])
    assert (code, out) == (1, "")
    assert err == "isicap: the channel gains overflow: sum |h_k| exceeds the largest float\n"


@pytest.mark.parametrize("argv", TAPS_COMMANDS)
def test_singular_channel_one_rule(capsys, argv):
    # (1, 1) has a null at lam = pi.  build_operators alone calls a channel
    # singular, on the block's DFT grid or on the asymptotic series' ring,
    # and every subcommand reports it in the same words.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv[0], "--taps", "1,1", *argv[1:])
    assert (code, out) == (1, "")
    assert "numerically singular and the zero-forcing power is unbounded" in err


def test_energy_summary(capsys):
    code, out, _ = run_cli(capsys, "energy", "--taps", "1,0.2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["e_min_per_use", "e_mean_per_use", "e_max_per_use", "min_count", "dd_flag"]
    assert float(rows[0][0]) == pytest.approx(0.09 * 25 / 36, rel=1e-9)
    assert rows[0][3] == "2" and rows[0][4] == "true"


def test_energy_dump(capsys):
    code, out, _ = run_cli(capsys, "energy", "--taps", "1,0.2", "--n", "6", "--dump-energies")
    assert code == 0
    lines = out.splitlines()
    dump = [
        ln
        for ln in lines
        if "," in ln and set(ln.split(",")[0]) <= {"0", "1"} and len(ln.split(",")[0]) == 6
    ]
    assert len(dump) == 64
    table = {bits: float(e) for bits, e in (ln.split(",") for ln in dump)}
    # Constant patterns sit at the floor.
    assert table["111111"] == min(table.values())
    assert table["111111"] == pytest.approx(table["000000"], rel=1e-12)


def test_validate_pass(capsys):
    code, out, _ = run_cli(
        capsys, "validate", "--taps", "1,0.2", "--sigma", "0.1", "--symbols", "200000"
    )
    assert code == 0
    fields = dict(
        ln.split("=", 1) for ln in out.splitlines() if "=" in ln and not ln.startswith("#")
    )
    assert fields["within_3sigma"] == "true"
    assert float(fields["theoretical_bound"]) == pytest.approx(
        0.5 * math.erfc(3 / math.sqrt(2)), rel=1e-12
    )
    assert int(fields["num_symbols"]) == 200000


def test_validate_interval_violation_exit_code(capsys, monkeypatch):
    rigged = SimReport(
        empirical_flip_rate=0.5,
        theoretical_bound=1e-3,
        std_error=1e-3,
        measured_power_per_use=0.09,
        num_symbols=1000,
    )
    monkeypatch.setattr(cli, "simulate_zero_forcing", lambda ops, cfg: rigged)
    code, out, _ = run_cli(
        capsys, "validate", "--taps", "1,0.2", "--sigma", "0.1", "--symbols", "1000"
    )
    assert code == 2
    assert "within_3sigma=false" in out


def test_numerical_failure_exit_code(capsys, monkeypatch):
    from isicap import QuadratureFailure

    def boom(*args, **kwargs):
        raise QuadratureFailure("grid budget exhausted")

    monkeypatch.setattr(cli, "achievable_rate_curve", boom)
    code, _, err = run_cli(capsys, "markov", "--taps", "1,0.2", "--grid", "0.8")
    assert code == 3
    assert "numerical" in err


def test_gibbs_budget_exhausted_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(gibbs, "_NEWTON_MAX_ITER", 0)
    code, out, err = run_cli(capsys, "capacity", "--taps", "1,0.2", "--grid", "0.8")
    assert code == 3
    assert out == ""
    assert "numerical" in err


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_non_finite_sigma_rejected(capsys, sigma):
    code, out, err = run_cli(
        capsys, "validate", "--taps", "1,0.2", "--sigma", sigma, "--symbols", "1200"
    )
    assert code == 1
    assert out == ""
    assert "finite" in err


def test_negative_seed_rejected(capsys):
    code, out, err = run_cli(
        capsys, "validate", "--taps", "1,0.2", "--sigma", "0.1", "--symbols", "1200",
        "--seed", "-1",
    )
    assert code == 1
    assert out == ""
    assert "seed" in err


def test_module_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "isicap", "energy", "--taps", "1,0.2", "--n", "6"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("# isicap energy taps=1.0,0.2")


def test_runs_without_scipy():
    # With scipy blocked from import, every command prints what it prints
    # with scipy importable.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import contextlib, io, json, sys\n"
        "if sys.argv[1] == 'blocked':\n"
        "    sys.modules['scipy'] = None\n"
        "import isicap.cli\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        runs.append([isicap.cli.main(argv), out.getvalue()])\n"
        "print(json.dumps(runs))\n"
    )
    commands = [
        ["capacity", "--taps=-0.3,1,0.6", "--grid", "0.7,1.0", "--n", "8"],
        ["markov", "--taps", "1,0.2", "--grid", "0.9,1.2"],
        ["markov", "--taps", "1,0.2", "--grid", "0.9,1.2", "--power-model", "finite"],
        ["energy", "--taps=-0.3,1,0.6", "--n", "8"],
        ["energy", "--taps=-0.3,1,0.6", "--n", "12", "--dump-energies"],
        ["capacity", "--taps", "1,0.2", "--n", "20", "--grid", "0.72:1.0:8"],
        ["figures", "fig3"],
        ["validate", "--taps", "1,0.2", "--sigma", "0.1", "--symbols", "100000"],
    ]
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = {}
    for mode in ("blocked", "open"):
        proc = subprocess.run(
            [sys.executable, "-c", code, mode, json.dumps(commands)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        runs[mode] = json.loads(proc.stdout)
    assert [run[0] for run in runs["blocked"]] == [0] * len(commands)
    assert runs["blocked"] == runs["open"]


def test_usage_error_exit_code(capsys):
    # A missing --taps; --seed on the commands that draw no random numbers;
    # --delta and --raw-units on the commands whose grid is in P/delta^2, whose
    # results do not depend on delta; and --n on figures, which is N = 12.
    for argv in (
        ["capacity", "--grid", "0.7:1.0:4"],
        ["capacity", "--taps", "1,0.2", "--grid", "0.8", "--seed", "1"],
        ["markov", "--taps", "1,0.2", "--grid", "0.8", "--seed", "1"],
        ["energy", "--taps", "1,0.2", "--n", "6", "--seed", "1"],
        ["capacity", "--taps", "1,0.2", "--grid", "0.8", "--delta", "0.5"],
        ["markov", "--taps", "1,0.2", "--grid", "0.8", "--delta", "0.5"],
        ["capacity", "--taps", "1,0.2", "--grid", "0.8", "--raw-units"],
        ["markov", "--taps", "1,0.2", "--grid", "0.8", "--raw-units"],
        ["figures", "fig4", "--n", "16"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: isicap") and "error:" in err


def test_header_echoes_seed_only_for_validate(capsys):
    for argv in (
        ["capacity", "--taps", "1,0.2", "--grid", "0.8"],
        ["markov", "--taps", "1,0.2", "--grid", "0.8"],
        ["energy", "--taps", "1,0.2", "--n", "6"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith(f"# isicap {argv[0]} taps=1.0,0.2 delta=0.3 n=")
        assert "seed=" not in out.splitlines()[0]
    _, out, _ = run_cli(
        capsys, "validate", "--taps", "1,0.2", "--sigma", "0.1", "--symbols", "1200",
        "--seed", "7",
    )
    assert out.splitlines()[0] == (
        "# isicap validate taps=1.0,0.2 delta=0.3 n=12 seed=7 sigma=0.1 alpha=0.5"
    )


def test_bad_grid_rejected(capsys):
    code, _, err = run_cli(capsys, "capacity", "--taps", "1,0.2", "--grid", "1.0:0.5:4")
    assert code == 1
    assert "ascending" in err


@pytest.mark.parametrize(
    "grid",
    ["nan,0.8", "0.8,inf", "0.5:nan:3", "0.5:inf:3", "nan:1:3", "0:inf:1", "-1.7e308:1.7e308:3"],
)
def test_non_finite_grid_rejected(capsys, grid):
    # A range's ends and their span are checked before np.linspace, which
    # would warn on them; the last range has finite ends and an infinite span.
    for cmd in ("capacity", "markov"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, cmd, "--taps", "1,0.2", "--n", "8", f"--grid={grid}")
        assert code == 1
        assert out == ""
        assert "finite" in err
        assert "RuntimeWarning" not in err


@pytest.mark.parametrize("cmd", ["capacity", "markov"])
def test_empty_grid_rejected(capsys, cmd):
    code, out, err = run_cli(capsys, cmd, "--taps", "1,0.2", "--grid", "")
    assert code == 1
    assert out == ""
    assert "grid must be nonempty" in err


@pytest.mark.parametrize("cmd", ["energy"])
@pytest.mark.parametrize("delta", ["1e200", "1e-170"])
def test_delta_square_out_of_range_rejected(capsys, cmd, delta):
    # 1e200 squared overflows; 1e-170 squared underflows to 0.  Only energy
    # is listed, as capacity and markov take no --delta.
    code, out, err = run_cli(capsys, cmd, "--taps", "1,0.2", "--delta", delta, "--n", "6")
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("isicap: delta^2 must be a normal float")


def test_markov_finite_power_at_large_n(capsys):
    code, out, _ = run_cli(
        capsys, "markov", "--taps", "1,0.2", "--n", "8192", "--power-model", "finite",
        "--grid", "0.8:0.9:3",
    )
    assert code == 0
    _, out_asym, _ = run_cli(capsys, "markov", "--taps", "1,0.2", "--grid", "0.8:0.9:3")
    rates = [float(r[1]) for r in parse_csv(out)[1]]
    limits = [float(r[1]) for r in parse_csv(out_asym)[1]]
    assert rates == pytest.approx(limits, abs=1e-3)


@pytest.mark.parametrize(
    "name",
    ["dd_threshold", "markov_power_convergence", "noisy_validation", "three_tap_curves",
     "two_tap_rates"],
)
def test_demo_runs(capsys, name):
    # The demos call the public API as a user would; run each as a script.
    path = Path(__file__).resolve().parents[1] / "demos" / f"{name}.py"
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_deterministic_bytes(capsys):
    args = ("capacity", "--taps", "1,0.2", "--grid", "0.7:1.0:5")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second

    args = ("validate", "--taps", "1,0.2", "--sigma", "0.15", "--symbols", "50000")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_figures_fig3_structure(capsys):
    code, out, _ = run_cli(capsys, "figures", "fig3")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["series", "p_over_delta2", "bits", "verified"]
    assert len(rows) == 64  # 4 series x 16 points
    by_series = {}
    for r in rows:
        by_series.setdefault(r[0], []).append(r)
    assert set(by_series) == {"C_eps0.2", "Rm_eps0.2", "C_eps0.8", "Rm_eps0.8"}
    assert all(r[3] == "true" for r in by_series["C_eps0.2"] + by_series["Rm_eps0.2"])
    assert all(r[3] == "false" for r in by_series["C_eps0.8"] + by_series["Rm_eps0.8"])
    # Left endpoint of the verified capacity series: exactly one bit pair
    # splits over the block.
    assert float(by_series["C_eps0.2"][0][2]) == pytest.approx(1 / 12, abs=1e-9)


def test_figures_fig4_to_file(tmp_path, capsys):
    out_file = tmp_path / "fig4.csv"
    code, stdout, _ = run_cli(capsys, "figures", "fig4", "--out", str(out_file))
    assert code == 0
    assert stdout == ""
    header, rows = parse_csv(out_file.read_text())
    assert header == ["series", "p_over_delta2", "bits", "verified"]
    c_rows = [r for r in rows if r[0] == "C"]
    rm_rows = [r for r in rows if r[0] == "Rm"]
    assert len(c_rows) == 26 and len(rm_rows) == 23
    assert float(c_rows[-1][2]) >= 0.995  # saturating tail
    assert all(r[3] == "true" for r in rows)


def test_unwritable_out_path(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "figures", "fig3", "--out", str(target))
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"isicap: cannot write {target}: ")
    assert "Traceback" not in err


def test_figures_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["figures", "fig9"])
    assert exc.value.code == 1


def test_repeated_main_calls_print_identical_bytes(capsys):
    argvs = [
        ("figures", "fig3"),
        ("capacity", "--taps=-0.3,1,0.6", "--grid", "0.5:0.9:9"),
        ("markov", "--taps", "1,0.2", "--grid", "0.8,0.9"),
    ]
    first = [run_cli(capsys, *argv) for argv in argvs]
    with pytest.raises(SystemExit):
        cli.main(["figures", "fig9"])
    capsys.readouterr()
    assert [run_cli(capsys, *argv) for argv in argvs] == first


def test_parser_is_reused_and_help_unchanged(capsys):
    assert cli._parser() is cli._parser()
    fresh = cli._parser.__wrapped__()
    for argv in (["--help"], ["capacity", "--help"], ["validate", "--help"], [], ["figures"]):
        seen = []
        for parse in (cli.main, fresh.parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            seen.append((exc.value.code, capsys.readouterr()))
        assert seen[0] == seen[1]
        out, err = seen[0][1]
        assert (out or err).startswith("usage: isicap")


def test_rebound_command_is_dispatched(capsys, monkeypatch):
    # A wrapper bound over cmd_* after the parser exists (as a tracer does) runs.
    run_cli(capsys, "figures", "fig4")
    monkeypatch.setattr(cli, "cmd_figures", lambda args: (["rebound " + args.which], 0))
    assert run_cli(capsys, "figures", "fig4") == (0, "rebound fig4\n", "")
