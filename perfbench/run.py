"""isicap benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; isicap is imported from ./src.
``--workload all`` runs every workload in turn and prints each metric by
name and unit.

Load model: closed loop, one client.  Each pass sends the workload's
requests one after another (CLI invocations through ``isicap.cli.main``
in-process, or library calls).  One fresh worker interpreter repeats passes
for ``--seconds`` (at least MIN_PASSES of them) and each end-to-end metric is
the median over passes.  BLAS runs one thread, and the count is recorded.

With ``--trace 0`` the last line of stdout is the JSON result holding the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and the result holds the per-layer metrics (see perfbench/README.md).  Spans
and per-pass figures are written to perfbench/out/.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_SAMPLES = 7
# One BLAS thread, below the nproc cap: a second thread bought no wall time on
# any workload (it spun, doubling cpu_s), and it made passes wait on a core
# that other tenants of a shared host may hold.
BLAS_THREADS = 1
# A set-up worker that outlives SETUP_TIMEOUT_S, or a pass worker that outlives
# --seconds by WORKER_MARGIN_S, is killed and its requests counted as failed;
# a pass takes under 10 s on a 2-CPU host, and a whole run must end within 180 s.
SETUP_TIMEOUT_S = 30
WORKER_MARGIN_S = 60


class BenchError(Exception):
    """The benchmark cannot run here (no isicap source, no BENCHMARK.json)."""


def _worker_env(src):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(src)
    return env


def _spawn(job, env, timeout):
    """Run one worker job to completion; (result or None, error text)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job), capture_output=True, text=True, env=env,
            timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    result = json.loads(lines[-1])
    if not Path(result["isicap_file"]).resolve().is_relative_to(env["PYTHONPATH"]):
        return None, f"worker imported isicap from {result['isicap_file']}"
    return result, ""


def _setup_seconds(channels, env):
    """Fresh interpreter -> import isicap -> build_operators, timed from the
    parent; one unrecorded warm-up, then the median of SETUP_SAMPLES."""
    job = {"mode": "setup", "channels": channels}
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        result, err = _spawn(job, env, SETUP_TIMEOUT_S)
        if result is None:
            raise BenchError(f"set-up failed: {err}")
        if i:
            samples.append(result["setup_done"] - t0)
    return statistics.median(samples), samples


def _orbit_count(n):
    """Rotation-and-negation orbits of {-1, +1}^n, by Burnside's lemma."""
    total = 0
    for k in range(n):
        c = math.gcd(k, n)
        # Rotation by k fixes 2^c patterns; with negation it fixes 2^c when
        # its cycles have even length, else none.
        total += (2 if (n // c) % 2 == 0 else 1) << c
    return total // (2 * n)


def _screen_passes(isicap, taps, sign_blocks):
    """How many +-1 rows have a nonnegative closed-form dual 2*delta*diag(s)Gs,
    from the public gram_generator and dd_flag of their channel."""
    n = sign_blocks[0].shape[1]
    ops = isicap.build_operators(isicap.ChannelSpec(taps, workloads.DELTA, n))
    if ops.dd_flag:
        return sum(block.shape[0] for block in sign_blocks)
    g_hat = np.fft.fft(ops.gram_generator)
    return sum(
        int(np.count_nonzero(np.all(b * np.fft.ifft(np.fft.fft(b) * g_hat).real >= 0.0, axis=1)))
        for b in sign_blocks
    )


def _all_patterns(n):
    """Every +-1 pattern of length n, in blocks of 2^14 rows."""
    for start in range(0, 1 << n, 1 << 14):
        codes = np.arange(start, min(start + (1 << 14), 1 << n), dtype=np.int64)
        yield ((codes[:, None] >> np.arange(n - 1, -1, -1)) & 1) * 2.0 - 1.0


def workload_properties(isicap, requests, pass_spans):
    """energy.screen_pass_frac and gibbs.orbit_ratio of one pass: exact counts
    over the profiles it enumerated and the patterns it queried."""
    enumerated = [s[5] for s in pass_spans if s[0] == "energy.enumerate_profile" and s[5]]
    points = [r for r in requests if r["kind"] == "energy"]
    passed = sum(_screen_passes(isicap, a["taps"], list(_all_patterns(a["n"])))
                 for a in enumerated)
    passed += sum(_screen_passes(isicap, r["taps"], [np.asarray([r["signs"]], dtype=float)])
                  for r in points)
    checked = sum(1 << a["n"] for a in enumerated) + len(points)
    orbits = sum(_orbit_count(a["n"]) for a in enumerated)
    return {
        "energy.screen_pass_frac": passed / checked if checked else 0.0,
        # 1.0 where nothing is enumerated: no symmetry reduction applies.
        "gibbs.orbit_ratio": (checked - len(points)) / orbits if orbits else 1.0,
    }


def _import_isicap(root):
    src = root / "src"
    if not (src / "isicap" / "__init__.py").is_file():
        raise BenchError(f"no isicap source under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import isicap

    if not Path(isicap.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"isicap was imported from {isicap.__file__}, not {src}")
    return isicap, src.resolve()


def _declared_metrics(root):
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    bench = json.loads(path.read_text())
    return {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def environment(seed, nproc):
    import scipy

    return {
        "seed": seed,
        "nproc": nproc,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_workload(name, seed, seconds, trace, root, isicap, src, declared):
    """Run one workload; returns (result JSON object, full record)."""
    requests, channels = workloads.build(name, seed)
    checks.prepare(requests, root, isicap)
    nproc = len(os.sched_getaffinity(0))
    env = _worker_env(src)
    record = {"workload": name, "env": environment(seed, nproc), "passes": []}

    setup_s = None
    if not trace:
        setup_s, record["setup_samples"] = _setup_seconds(channels, env)

    job = {"mode": "passes", "requests": requests, "seconds": seconds,
           "min_passes": MIN_TRACED_PASSES if trace else MIN_PASSES, "trace": trace}
    result, err = _spawn(job, env, seconds + WORKER_MARGIN_S)
    passes = result["passes"] if result else []
    if not passes:
        print(f"# passes failed: {err}", file=sys.stderr)
        record["error"] = err
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    # A worker that died counts every request of one pass as failed.
    attempted = max(1, len(passes)) * len(requests)
    failed = 0 if passes else attempted
    digests = [r["digest"] for r in passes[0]["results"]] if passes else []
    for p in passes:
        for i, r in enumerate(p["results"]):
            if r["failure"] is None and r["digest"] != digests[i]:
                r["failure"] = "output differs from the first pass with this seed"
            if r["failure"] is not None:
                failed += 1
                print(f"# request {i} failed: {r['failure']}", file=sys.stderr)
        record["passes"].append({k: v for k, v in p.items() if k != "results"}
                                | {"failures": [r["failure"] for r in p["results"]]})

    if not untraced or (trace and not traced):
        metrics = {}
    elif trace:
        per_pass = []
        for p in traced:
            m = spans.layer_metrics(p["spans"], p["wall_s"])
            m["cli.out_bytes"] = sum(r["out_bytes"] for r in p["results"])
            per_pass.append(m)
        metrics = spans.median_metrics(per_pass)
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in untraced)
        )
        metrics.update(workload_properties(isicap, requests, traced[0]["spans"]))
    else:
        metrics = {
            key: statistics.median(p[key] for p in untraced)
            for key in ("wall_s", "cpu_s", "peak_rss_mb")
        }
        metrics["setup_s"] = setup_s

    units = declared[trace]
    correct = failed == 0 and set(metrics) == set(units)
    if metrics and set(metrics) != set(units):
        print(f"# metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    record["result"] = summary
    return summary, record


def _write_record(record, seed, trace):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{record['workload']}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    root = Path.cwd()
    try:
        declared = _declared_metrics(root)
        isicap, src = _import_isicap(root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    for name in names:
        try:
            summary, record = run_workload(
                name, args.seed, args.seconds, trace, root, isicap, src, declared
            )
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        _write_record(record, args.seed, trace)
        summaries[name] = summary
        env = record["env"]
        print("# " + name + " " + " ".join(f"{k}={v}" for k, v in env.items()))
        for metric, m in summary["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        if not trace:
            fail_frac = summary["failed"] / summary["attempted"]
            print(f"{name} fail_frac = {fail_frac:.6g} ratio")

    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{name}.{k}": v for name, s in summaries.items()
                for k, v in s["metrics"].items()
            },
        }
    print(json.dumps(final, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
