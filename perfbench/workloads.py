"""Seeded request generators for the four benchmark workloads.

Every request is plain data, so the same seed always yields the same list
and the worker process receives only the generated inputs.  A request is
either a command line for ``itermellin.cli.main`` (``{"kind": "cli"}``) or
one call of ``oracles.real_eisenstein`` (``{"kind": "eisenstein"}``); the
``meta`` field holds what the output checks need and is never sent to the
program.

Points keep at least ``MARGIN`` from every pole hyperplane.  Every pole
form of a builtin tuple is a real multiple of a prefix sum s_1 + ... + s_k
or a suffix sum s_k + ... + s_r, shifted by a real constant, so a point
whose prefix and suffix sums of length m all have an imaginary part of at
least MARGIN * sqrt(m) is that far from every pole, whatever the constants.
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple

MARGIN = 0.1
BOX = 3.0
WIDE_BOX = 8.0

POOL = (
    "riemann",
    "eisenstein:4",
    "eisenstein:6",
    "delta",
    "theta+",
    "theta-",
    "jacobi:2",
    "jacobi:3",
    "jacobi:4",
)

# Simple-pole hyperplanes of riemann tuples, as the CLI writes them.
RESIDUE_PLANES = {
    2: ("0,1:0", "1,1:0", "1,0:1", "1,1:2"),
    3: ("0,1,1:0", "0,0,1:0", "1,1,1:0", "1,1,1:3", "1,0,0:1"),
}

# One block of the oneshot workload: (kind, r).  Fixed counts per block keep
# the request mix the same across seeds.  The "wide" eval takes its point
# from the radius-8 box, with r = 3 in even blocks and r = 4 in odd ones;
# lstar draws r from {1, 2}.
ONESHOT_BLOCK = (
    ("eval", 1),
    ("eval", 1),
    ("eval", 2),
    ("eval", 2),
    ("eval", 2),
    ("eval", 3),
    ("eval", 3),
    ("eval", 4),
    ("eval", 4),
    ("wide", 0),
    ("lstar", 0),
    ("poles", 3),
    ("poles", 4),
    ("residue", 2),
    ("residue", 3),
)

# One block of the table workload: (theta tuple, cells per slot, step).
# Sizes are chosen so that the request kinds' costs do not overlap and the
# median and 90th percentile fall inside the two many-cell riemann r=2
# tables, whose cost varies least from grid to grid.
TABLE_BLOCK = (
    ("riemann,riemann", (10, 10), 0.25),
    ("riemann,riemann", (12, 12), 0.25),
    ("riemann,riemann,riemann", (3, 3, 3), 0.5),
    ("riemann,riemann,riemann,riemann", (2, 1, 1, 1), 0.5),
    ("eisenstein:4,delta", (4, 4), 0.5),
)

SUITES = (
    "functional",
    "shuffle",
    "residues",
    "eisenstein-id",
    "mzv",
    "qsums",
    "eichler",
    "binding",
)
VERIFY_TRIALS = 2

# Untimed first request of every worker process; fixed so that set-up time
# does not depend on the seed.
WARMUP = {
    "oneshot": {
        "kind": "cli",
        "argv": ["eval", "--theta", "riemann,riemann,riemann",
                 "--s=0.5+0.7i,1.25-0.4i,2.1+0.9i", "--format", "json"],
    },
    "table": {
        "kind": "cli",
        "argv": ["table", "--theta", "riemann,riemann",
                 "--grid=0:1:0.5/0.5:0.5:1;1:2:0.5/0.75:0.75:1", "--format", "json"],
    },
    "verify": {
        "kind": "cli",
        "argv": ["verify", "--suite", "mzv", "--seed", "0", "--trials", "1",
                 "--format", "json"],
    },
    "fresh-theta": {"kind": "eisenstein", "z": [0.1, 1.1], "s": [0.3, 0.5]},
}


def off_poles(imag: list[float], skip=()) -> bool:
    """Whether every prefix and suffix slot range (a, b), b inclusive, not in
    skip has an imaginary sum of at least MARGIN * sqrt(b - a + 1)."""
    r = len(imag)
    for a in range(r):
        for b in range(a, r):
            if (a == 0 or b == r - 1) and (a, b) not in skip:
                if abs(sum(imag[a : b + 1])) < MARGIN * math.sqrt(b - a + 1):
                    return False
    return True


def _coord(rng: random.Random, box: float) -> float:
    return round(rng.uniform(-box, box), 6)


def _point(rng: random.Random, r: int, box: float) -> list[complex]:
    while True:
        pt = [complex(_coord(rng, box), _coord(rng, box)) for _ in range(r)]
        if off_poles([p.imag for p in pt]):
            return pt


def _fmt_point(pt) -> str:
    return ",".join(f"{p.real:.6f}{p.imag:+.6f}i" for p in pt)


def _pairs(pt) -> list[list[float]]:
    return [[p.real, p.imag] for p in pt]


def _tuple(rng: random.Random, r: int) -> str:
    return ",".join(rng.choice(POOL) for _ in range(r))


def _residue_request(rng: random.Random, r: int) -> dict:
    plane = rng.choice(RESIDUE_PLANES[r])
    left, const = plane.split(":")
    coeffs = [int(c) for c in left.split(",")]
    support = [i for i, c in enumerate(coeffs) if c]
    span = (support[0], support[-1])
    last = support[-1]
    while True:
        pt = [complex(_coord(rng, BOX), _coord(rng, BOX)) for _ in range(r)]
        pt[last] = float(const) - sum(pt[i] for i in support if i != last)
        if abs(pt[last].real) > BOX or abs(pt[last].imag) > BOX:
            continue
        if off_poles([p.imag for p in pt], skip={span}):
            break
    theta = ",".join(["riemann"] * r)
    return {
        "kind": "cli",
        "argv": ["residue", "--theta", theta, "--hyperplane", plane,
                 f"--at={_fmt_point(pt)}", "--format", "json"],
        "meta": {"theta": theta, "plane": plane, "point": _pairs(pt)},
    }


def _oneshot(rng: random.Random, n: int) -> list[dict]:
    out = []
    block = 0
    while len(out) < n:
        for kind, r in ONESHOT_BLOCK:
            box = BOX
            if kind == "wide":
                box, r = WIDE_BOX, 3 + block % 2
            elif kind == "lstar":
                r = rng.choice((1, 2))
            if kind in ("eval", "wide", "lstar"):
                theta = _tuple(rng, r)
                pt = _point(rng, r, box)
                argv = ["eval", "--theta", theta, f"--s={_fmt_point(pt)}", "--format", "json"]
                if kind == "lstar":
                    argv.append("--lstar")
                req = {"kind": "cli", "argv": argv,
                       "meta": {"theta": theta, "point": _pairs(pt)}}
            elif kind == "poles":
                theta = _tuple(rng, r)
                req = {"kind": "cli", "argv": ["poles", "--theta", theta, "--format", "json"],
                       "meta": {"theta": theta}}
            else:
                req = _residue_request(rng, r)
            req["tag"] = f"{kind}-r{r}"
            out.append(req)
        block += 1
    return out[:n]


def _table(rng: random.Random, n: int) -> list[dict]:
    out = []
    while len(out) < n:
        for theta, cells, step in TABLE_BLOCK:
            r = len(cells)
            while True:
                imag = [_coord(rng, BOX) for _ in range(r)]
                if off_poles(imag):
                    break
            specs = []
            for count, im in zip(cells, imag):
                # starts on a 1/16 grid and binary steps keep every cell exact
                span = (count - 1) * step
                start = rng.randrange(int(-BOX * 16), int((BOX - span) * 16) + 1) / 16
                specs.append(f"{start}:{start + span}:{step}/{im}:{im}:1")
            out.append({
                "kind": "cli",
                "argv": ["table", "--theta", theta, f"--grid={';'.join(specs)}",
                         "--format", "json"],
                "meta": {"theta": theta},
                "tag": f"table-{theta.split(',')[0]}-r{r}-{math.prod(cells)}",
            })
    return out[:n]


def _verify(rng: random.Random, n: int) -> list[dict]:
    out = []
    while len(out) < n:
        for suite in SUITES:
            seed = rng.randrange(2**31)
            out.append({
                "kind": "cli",
                "argv": ["verify", "--suite", suite, "--seed", str(seed),
                         "--trials", str(VERIFY_TRIALS), "--format", "json"],
                "tag": f"verify-{suite}",
            })
    return out[:n]


def _fresh_theta(rng: random.Random, n: int) -> list[dict]:
    out = []
    for _ in range(n):
        z = [round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(0.75, 1.6), 6)]
        while True:
            s = complex(round(rng.uniform(-2.5, 3.5), 6), _coord(rng, BOX))
            if abs(s) >= MARGIN and abs(s - 1) >= MARGIN:
                break
        out.append({"kind": "eisenstein", "z": z, "s": [s.real, s.imag],
                    "tag": "real-eisenstein"})
    return out


class Workload(NamedTuple):
    generate: Callable[[random.Random, int], list[dict]]
    length: int  # requests generated; more than any timed run consumes
    block: int  # a timed run stops only between whole blocks
    cycle: bool  # start the list again if a run exhausts it
    pass_len: int  # requests in one traced pass
    check_sample: int | None  # window requests whose values are checked; None: all
    # The first `window` requests, whole blocks and a third or more of a 28 s
    # run, are the checked set: every timed run completes them, even past its
    # seconds, and attempted, failed and ok_frac count them alone, so those
    # figures depend on the seed and the program, not on the machine's speed.
    # Peak RSS is read when they are done, so a faster program is not charged
    # for the memory of the extra requests it completes.  On oneshot a few
    # rare requests raise the peak by up to 20 MB, so its window is most of
    # a run, for every seed to have met some of them.
    window: int


WORKLOADS = {
    "oneshot": Workload(_oneshot, 4500, len(ONESHOT_BLOCK), True, 120, 40, 900),
    "table": Workload(_table, 1000, len(TABLE_BLOCK), True, 25, 10, 80),
    "verify": Workload(_verify, 800, len(SUITES), True, 16, None, 56),
    # a repeated lattice theta would be served from the node-value cache,
    # so this list is never cycled
    "fresh-theta": Workload(_fresh_theta, 30000, 1, False, 900, 100, 3000),
}


def generate(name: str, seed: int) -> list[dict]:
    w = WORKLOADS[name]
    return w.generate(random.Random(f"{name}:{seed}"), w.length)
