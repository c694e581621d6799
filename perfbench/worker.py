"""One benchmark process: the set-up a CLI user pays, or one pass over a
workload's requests.

Reads a job as JSON on stdin and prints its result as one JSON line on
stdout.  Run by ``run.py``, one fresh interpreter per job.

  {"mode": "setup", "channels": [[taps, n], ...]}
      import isicap and build the operators of each channel, then report the
      CLOCK_MONOTONIC time at which that finished.
  {"mode": "passes", "requests": [...], "seconds": s, "min_passes": k,
   "trace": bool}
      repeat passes for about s seconds: each runs the requests one after
      another, timed, then checks each output.  isicap keeps no state between
      calls, so a pass does the same work whether it is the first or not.

isicap is imported from PYTHONPATH, which run.py points at the checkout.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import numpy as np

import isicap
import isicap.cli
from workloads import DELTA


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = isicap.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"code": code, "text": buf.getvalue()}


def _convergence_table(req):
    """Finite-N Markov power against its large-N limit and Pbar."""
    spec = isicap.ChannelSpec(req["taps"], DELTA, max(req["ns"]))
    pbar = isicap.pbar_asymptotic(spec)
    value, lines = [], []
    for alpha in req["alphas"]:
        scheme = isicap.MarkovScheme(alpha)
        p_asym = isicap.power_asymptotic(spec, scheme)
        rows = []
        for n in req["ns"]:
            ops = isicap.build_operators(isicap.ChannelSpec(req["taps"], DELTA, n))
            rows.append((n, isicap.power_finite_n(ops, scheme)))
        value.append((req["taps"], alpha, rows, p_asym, pbar))
        lines += [f"{alpha!r},{n},{p!r},{p_asym!r},{pbar!r}" for n, p in rows]
    return {"code": 0, "text": "\n".join(lines), "value": value}


def _point_energy(req, operators):
    key = (tuple(req["taps"]), req["n"])
    if key not in operators:
        operators[key] = isicap.build_operators(isicap.ChannelSpec(key[0], DELTA, key[1]))
    sol = isicap.energy(operators[key], np.asarray(req["signs"], dtype=float))
    text = f"{sol.energy!r},{sol.gap!r},{hashlib.sha256(sol.x_star.tobytes()).hexdigest()}"
    return {"code": 0, "text": text, "value": sol}


def _execute(req, operators):
    try:
        if req["kind"] == "cli":
            return _run_cli(req["argv"])
        if req["kind"] == "energy":
            return _point_energy(req, operators)
        return _convergence_table(req)
    except Exception as exc:  # a failed request is counted, the pass goes on
        return {"code": None, "text": "", "error": f"{type(exc).__name__}: {exc}"}


def run_pass(requests, traced, checker):
    """One timed pass over the requests, then the check of each output."""
    import spans  # imported here so that set-up workers load isicap alone

    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    operators = {}
    outs = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for i, req in enumerate(requests):
        if tracer:
            tracer.request = i
        outs.append(_execute(req, operators))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    results = []
    for req, out in zip(requests, outs):
        try:
            reason = checker.check(req, out)
        except Exception as exc:  # malformed output fails its request
            reason = f"check raised {type(exc).__name__}: {exc}"
        results.append({
            "failure": reason,
            "digest": hashlib.sha256(out["text"].encode()).hexdigest(),
            "out_bytes": len(out["text"].encode()) if req["kind"] == "cli" else 0,
        })
    return {
        "traced": traced,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "results": results,
        "spans": tracer.spans if tracer else [],
    }


def run_passes(job):
    """Passes until the next one would end after job["seconds"], and at least
    job["min_passes"] of each kind; with trace, untraced and traced passes
    alternate."""
    import checks

    checker = checks.Checker()
    passes = []
    start = time.perf_counter()
    while True:
        done = len(passes)
        untraced = sum(not p["traced"] for p in passes)
        enough = (min(untraced, done - untraced) if job["trace"] else done) >= job["min_passes"]
        elapsed = time.perf_counter() - start
        if done and enough and elapsed * (done + 1) / done > job["seconds"]:
            break
        traced = job["trace"] and untraced > done - untraced
        passes.append(run_pass(job["requests"], traced, checker))
    return {"passes": passes}


def main():
    job = json.load(sys.stdin)
    if job["mode"] == "setup":
        for taps, n in job["channels"]:
            isicap.build_operators(isicap.ChannelSpec(taps, DELTA, n))
        result = {"setup_done": time.clock_gettime(time.CLOCK_MONOTONIC)}
    else:
        result = run_passes(job)
    result["isicap_file"] = isicap.__file__
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
