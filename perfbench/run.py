"""itermellin benchmark: seeded request workloads, end-to-end and per-layer metrics.

Run from the root of the repository:

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 28 --trace 0

--trace 0 measures the end-to-end metrics: a few fresh processes time
set-up (import plus one warm-up request), then one fresh single-threaded
process runs the workload as a closed loop with one client for --seconds.
Request times are reported at a reference machine speed: the worker times
a fixed speed probe between requests, and each request's wall time is
scaled by REFERENCE_PROBE_S over the probes around it.  On a shared machine
whose speed swings by half on a scale of seconds this cuts the spread
between identical runs about threefold.  Each set-up time is scaled the
same way, by the median of five probes its process times right after it.
--trace 1 runs the first requests of the same list once without and once
with the outside-in tracer (perfbench/tracer.py) and reports per-layer
counts and times, plus the tracer's own overhead.  Either way a seeded
sample of the outputs is checked against independent references
(perfbench/checks.py) after the workload process has exited.  In a timed
run that sample, ``attempted`` and ``failed`` come from the checked window,
the first requests of the list, which every run completes however fast the
machine is, so they repeat exactly for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (with ``--workload
all``, one such object per workload name).
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata as pkg_metadata
from pathlib import Path

# fixed before numpy is imported here or in any worker
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4  # extra fresh processes timing set-up; the workload process adds one
WORKER_TIMEOUT_S = 170
REFERENCE_PROBE_S = 1.5e-3  # speed-probe time that defines the reference speed


def declared_metrics(root: Path, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def source_info(root: Path) -> dict:
    files = sorted((root / "src" / "itermellin").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = pkg_metadata.version(pkg)
        except pkg_metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        **versions,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


def fingerprint(requests: list[dict]) -> str:
    """Hash of the inputs the program receives (not the check metadata)."""
    sent = [{k: v for k, v in r.items() if k not in ("meta", "tag")} for r in requests]
    return hashlib.sha256(json.dumps(sent, sort_keys=True).encode()).hexdigest()[:16]


def spawn(root: Path, job: dict) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, env=env, cwd=root,
        timeout=WORKER_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"worker exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def scaled_latencies(lat: list[float], probes: list) -> list[float]:
    """Each request's latency at the reference machine speed.

    Probes carry the number of requests completed before them; a request is
    scaled by the mean of the probe just before it and the one just after.
    """
    idx = [i for i, _ in probes]
    secs = [p for _, p in probes]
    out = []
    for j, x in enumerate(lat):
        k = bisect.bisect_right(idx, j) - 1
        around = (secs[k] + secs[min(k + 1, len(secs) - 1)]) / 2
        out.append(x * REFERENCE_PROBE_S / around)
    return out


def check_outputs(root, name, seed, requests, status, outputs, sample) -> tuple[set, int]:
    """Indices of wrong outputs, and how many outputs were checked.

    status and outputs belong to the first requests of the list, once each;
    a seeded sample of the successful ones is checked against the
    independent references.
    """
    from checks import Checker

    for k, (code, out) in enumerate(zip(status, outputs)):
        if code != 0:
            why = str(out).strip().splitlines()[-1] if str(out).strip() else ""
            print(f"failed: request {k} ({requests[k].get('tag')}) status {code}: {why}")
    rng = random.Random(f"check:{name}:{seed}")
    pool = [k for k, code in enumerate(status) if code == 0]
    chosen = pool if sample is None else sorted(rng.sample(pool, min(sample, len(pool))))
    wrong = set()
    checker = Checker(str(root / "src"))
    checked = 0
    for k in chosen:
        try:
            why = checker.check(requests[k], outputs[k], rng)
        except Exception as exc:  # the reference itself failed; report, do not judge
            print(f"check: request {k} ({requests[k].get('tag')}) unverified: "
                  f"{type(exc).__name__}: {exc}")
            continue
        checked += 1
        if why:
            print(f"check: request {k} ({requests[k].get('tag')}) wrong: {why}")
            wrong.add(k)
    return wrong, checked


def timed_run(root, name, seed, seconds, requests, w) -> tuple[dict, dict]:
    base = {"src": str(root / "src"), "warmup": workloads.WARMUP[name]}
    starts = [spawn(root, dict(base, mode="setup")) for _ in range(SETUP_PROBES)]
    res = spawn(root, dict(base, mode="timed", requests=requests, seconds=seconds,
                           block=w.block, cycle=w.cycle, window=w.window))
    starts.append(res)
    raw_setups = [st["setup_s"] for st in starts]
    setups = [st["setup_s"] * REFERENCE_PROBE_S / st["setup_probe_s"] for st in starts]
    raw, status = res["latencies"], res["status"]
    lat = scaled_latencies(raw, res["probes"])
    # attempted and failed count the checked window only: the requests after
    # it depend on how fast the machine ran, so their failures are printed
    # but not counted
    window = w.window
    wrong, checked = check_outputs(root, name, seed, requests, status[:window],
                                   res["outputs"][:window], w.check_sample)
    n = len(lat)
    exit_failures = sum(1 for s in status[:window] if s != 0)
    failed = exit_failures + len(wrong)
    later = sum(1 for s in status[window:] if s != 0)
    print(f"set-up times (s), unscaled: {' '.join(f'{s:.4f}' for s in raw_setups)}; "
          f"at reference speed: {' '.join(f'{s:.4f}' for s in setups)}")
    print(f"requests {n} in {res['elapsed']:.3f} s; first {window} checked: "
          f"failed by exit status {exit_failures}, wrong values {len(wrong)} of {checked} "
          f"checked; {later} of the {n - window} later requests failed by exit status")
    if n < 100:
        print(f"note: {n} requests, so fewer than ten lie beyond the 90th percentile")
    if res["threads"] > 1:
        print(f"note: {res['threads']} threads alive; the speed probe would absorb their cost")
    probe_ms = statistics.median(p for _, p in res["probes"]) * 1e3
    print(f"unscaled: p50 {statistics.median(raw) * 1e3:.4f} ms, "
          f"p90 {statistics.quantiles(raw, n=10)[8] * 1e3:.4f} ms, "
          f"{n / res['elapsed']:.4f} req/s; median probe {probe_ms:.4f} ms "
          f"(reference {REFERENCE_PROBE_S * 1e3:g} ms)")
    print(f"fail_frac {failed / window:.6f} ({failed} of {window})")
    return {
        "setup_s": statistics.median(setups),
        "req_ms_p50": statistics.median(lat) * 1e3,
        "req_ms_p90": statistics.quantiles(lat, n=10)[8] * 1e3,
        "req_per_s": n / sum(lat),
        "ok_frac": 1.0 - failed / window,
        "peak_rss_mb": res["peak_rss_mb"],
    }, {"correct": not wrong and checked > 0, "attempted": window, "failed": failed}


def traced_run(root, name, seed, requests, w) -> tuple[dict, dict]:
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    base = {"src": str(root / "src"), "warmup": workloads.WARMUP[name], "mode": "pass",
            "requests": requests[: w.pass_len], "pass_len": w.pass_len}
    plain = spawn(root, base)
    traced = spawn(root, dict(base, trace_out=str(out_dir / f"trace-{name}.npz")))
    status, outputs = traced["status"], traced["outputs"]
    wrong, checked = check_outputs(root, name, seed, requests, status, outputs, w.check_sample)
    for i, (a, b) in enumerate(zip(plain["outputs"], outputs)):
        if a != b:
            print(f"check: request {i} output changed under tracing")
            wrong.add(i)
    layers = dict(traced["layers"])
    plain_s = sum(scaled_latencies(plain["latencies"], plain["probes"]))
    traced_s = sum(scaled_latencies(traced["latencies"], traced["probes"]))
    layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
    print(f"traced pass: {len(status)} requests, {plain_s:.3f} s untraced, "
          f"{traced_s:.3f} s traced at reference speed, {layers['trace.spans']} spans")
    failed = sum(1 for s in status if s != 0) + len(wrong)
    return layers, {"correct": not wrong and checked > 0, "attempted": len(status),
                    "failed": failed}


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its readable report, return its result object."""
    t0 = time.perf_counter()
    w = workloads.WORKLOADS[name]
    requests = workloads.generate(name, seed)
    print(f"inputs: workload={name} seed={seed} requests={len(requests)} "
          f"sha256={fingerprint(requests)}")
    if trace:
        values, summary = traced_run(root, name, seed, requests, w)
    else:
        values, summary = timed_run(root, name, seed, seconds, requests, w)
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in declared_metrics(root, trace).items()}
    for k, m in metrics.items():
        print(f"  {k:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"benchmark wall time {time.perf_counter() - t0:.1f} s")
    return dict(summary, metrics=metrics)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                    help="one workload, or all four in turn (last line maps name to result)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "itermellin" / "__init__.py").is_file():
        print("error: src/itermellin not found; run from the repository root", file=sys.stderr)
        return 2
    print("run: " + json.dumps(source_info(root), sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(root, n, args.seed, args.seconds, bool(args.trace)) for n in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
