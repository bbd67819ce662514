"""One workload process: imports itermellin, warms up, runs requests.

Reads a job as JSON on stdin and prints one JSON result line on stdout.
Modes:
  setup  import and the warm-up request only (a set-up probe);
  timed  closed loop, one client: whole blocks of requests until the
         time is up and the first ``window`` requests are done; peak RSS
         is read when they are;
  pass   exactly the first ``pass_len`` requests, once, optionally traced.

Every mode times a fixed speed probe five times just after set-up; in
the timed and pass modes the worker also times it between requests, at least every ``PROBE_EVERY_S`` seconds and once after
the last request, so that run.py can scale each request to a reference
machine speed.

Started by run.py as ``python3 perfbench/worker.py`` from the root of the
repository; nothing before the measured import touches the package.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import threading
import time

PROBE_EVERY_S = 0.1


def _speed_probe(np, arr) -> float:
    """Seconds taken by a fixed pure-Python loop and a numpy exp, GC off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        acc = 0
        for k in range(15000):
            acc += k * k % 7
        np.exp(arr).sum()
        return time.perf_counter() - t
    finally:
        if was_enabled:
            gc.enable()


def _runner(cli, oracles):
    def run(req):
        """(status, output) of one request; status 0 means success."""
        if req["kind"] == "eisenstein":
            try:
                value, _, _ = oracles.real_eisenstein(complex(*req["z"]), complex(*req["s"]))
            except Exception as exc:  # a failed request is data, not a crash
                return -1, f"{type(exc).__name__}: {exc}"
            return 0, [value.real, value.imag]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(req["argv"])
        except Exception as exc:
            return -1, f"{type(exc).__name__}: {exc}"
        return status, out.getvalue() if status == 0 else err.getvalue()

    return run


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    clock = time.perf_counter
    t0 = clock()
    import itermellin
    import numpy as np  # already loaded by itermellin; used by the speed probe
    from itermellin import cli, oracles

    run = _runner(cli, oracles)
    run(job["warmup"])
    setup_s = clock() - t0
    probe_arr = np.linspace(1.0, 2.0, 20000)
    setup_probe_s = statistics.median(_speed_probe(np, probe_arr) for _ in range(5))
    result = {"setup_s": setup_s, "setup_probe_s": setup_probe_s}
    if job["mode"] == "setup":
        print(json.dumps(result))
        return

    reqs = job["requests"]
    tracer = None
    if job.get("trace_out"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(itermellin)

    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    window = job.get("window")
    rss_mb = None
    lat, status, outputs = [], [], []
    if job["mode"] == "pass":
        todo, seconds, block, cycle = job["pass_len"], None, 1, False
    else:
        todo, seconds, block, cycle = None, job["seconds"], job["block"], job["cycle"]
    probes = []  # (requests completed before the probe, probe seconds)
    last_probe = -PROBE_EVERY_S
    i = 0
    start = clock()
    while True:
        if todo is not None and i >= todo:
            break
        if (seconds is not None and i % block == 0 and i >= window
                and clock() - start >= seconds):
            break
        if i >= len(reqs) and not cycle:
            break
        if clock() - last_probe >= PROBE_EVERY_S:
            probes.append((i, _speed_probe(np, probe_arr)))
            last_probe = clock()
        if tracer is not None:
            tracer.current_request = i
        t = clock()
        code, out = run(reqs[i % len(reqs)])
        lat.append(clock() - t)
        status.append(code)
        outputs.append(out)
        i += 1
        if i == window:
            rss_mb = peak_rss_mb()
    elapsed = clock() - start
    probes.append((i, _speed_probe(np, probe_arr)))
    if rss_mb is None:
        rss_mb = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(job["trace_out"])
        result["layers"] = tracer.summary()
    result.update(elapsed=elapsed, latencies=lat, probes=probes, status=status,
                  outputs=outputs, peak_rss_mb=rss_mb, threads=threading.active_count())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
