"""CLI behavior: output formats, exit codes, determinism."""

import math
import os
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


@pytest.mark.parametrize("taps", ["1,-1", "1,1", "1,0.9999999999"])
def test_markov_spectral_null_rejected(capsys, taps):
    code, out, err = run_cli(capsys, "markov", f"--taps={taps}", "--grid", "0.5,1,4")
    assert code == 1
    assert out == ""
    assert "zero-forcing power is unbounded" in err


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


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["capacity", "--grid", "0.7:1.0:4"])  # missing --taps
    assert exc.value.code == 1


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


@pytest.mark.parametrize("cmd", ["capacity", "markov", "energy"])
@pytest.mark.parametrize("delta", ["1e200", "1e-170"])
def test_delta_square_out_of_range_rejected(capsys, cmd, delta):
    # 1e200 squared overflows; 1e-170 squared underflows to 0, which once
    # gave a SATURATED capacity row with exit 0.
    grid = ("--n", "6") if cmd == "energy" else ("--grid", "0.8")
    code, out, err = run_cli(capsys, cmd, "--taps", "1,0.2", "--delta", delta, *grid)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith("isicap: delta^2 must be a normal float")


def test_capacity_invariant_under_delta_scale(capsys):
    # In P/delta^2 units the capacity does not depend on delta.
    def bits(delta):
        _, out, _ = run_cli(
            capsys, "capacity", "--taps", "1,0.2", "--delta", delta, "--grid", "0.8"
        )
        return float(parse_csv(out)[1][0][1])

    ref = bits("0.3")
    assert ref == pytest.approx(0.6678651031881762, rel=1e-12)
    for delta in ("1e-8", "1e8"):
        assert bits(delta) == pytest.approx(ref, rel=1e-12)


def test_raw_units_flag(capsys):
    _, out_norm, _ = run_cli(capsys, "markov", "--taps", "1,0.2", "--grid", "0.9")
    _, out_raw, _ = run_cli(
        capsys, "markov", "--taps", "1,0.2", "--grid", "0.081", "--raw-units"
    )
    rate_norm = float(parse_csv(out_norm)[1][0][1])
    rate_raw = float(parse_csv(out_raw)[1][0][1])
    assert rate_raw == pytest.approx(rate_norm, abs=1e-9)
    assert float(parse_csv(out_raw)[1][0][0]) == pytest.approx(0.9, rel=1e-12)


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
