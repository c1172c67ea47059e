"""Seeded workload decks for the dttokit benchmark, and the checks on each job.

A deck is a list of blocks; a block holds one job per slot of the
workload.  The benchmark always runs whole blocks, so every measured run
has the same mix of symbol classes, sizes and oracle-backed jobs whatever
the machine speed.  Sizes inside a slot move along a Weyl sequence
``frac(start + b * alpha)`` with a seeded start: each draw is uniform, and
any run of consecutive blocks covers the slot's range evenly, which keeps
the mean cost of a run the same from seed to seed.

Inputs are written with the CLI's own JSON schema (``blaschke_to_json`` /
``symbol_to_json``) and parsed back with ``blaschke_from_json`` /
``symbol_from_json``, so in-process and subprocess jobs see the same
inputs.  Closed-form oracle values are computed here from the generated
parameters, not by the library.

Run as ``python3 perfbench/workloads.py --probe <workload> <seed>`` to
build and parse one deck in a fresh interpreter and print
``ready <sha256 of the deck>``; the benchmark times that for ``setup_s``.
"""

import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLOCKS_PER_DECK = 48
TOL = 1e-9  # the CLI's default tolerance; every job runs at it
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0

# modelspace-mix: basis width W spans [W_LO, W_HI] in W_BANDS log-uniform
# bands; each band holds one job of a width-dependent class per block.
W_LO, W_HI, W_BANDS = 70.0, 10000.0, 10
D_MIN, D_MAX = 2, 8
R_MIN, R_MAX = 0.5, 0.985
MIX_CLASSES = ("shift", "divisible", "negpow", "conjquot", "analytic")
# The Nehari cross-value inside min_modulus_corner costs O(W^3), so the
# direct corner calls on the inner symbol z stay at small W.
CORNER_Z_W = (70.0, 400.0)
CORNER_POLY_W = (70.0, 2000.0)
# Each block also runs every class once at degree TYPICAL_D and a width in
# TYPICAL_W, where jobs take about as long as the median job of the bands,
# so the median job falls in this cluster; among the bands alone latency
# grows by about 4 % per job rank at the median.
TYPICAL_D, TYPICAL_W = 4, (520.0, 580.0)

# galerkin: n spans [N_LO, N_HI] in N_BANDS log-uniform bands, and each
# block adds one sweep of every class at a typical n in TYPICAL_N.  The
# bands put half their jobs below n = 64 and half above, so the median job
# falls among the typical ones; among the bands alone it falls between two
# bands, where latency grows by about 3 % per job rank.
N_LO, N_HI, N_BANDS = 16, 256, 12
TYPICAL_N = (60.0, 68.0)
GALERKIN_CLASSES = ("shift", "laurent", "quotient", "piecewise")

# cli: small W, every symbol class, one verify run per three minmod runs.
CLI_MINMOD_CLASSES = (
    "shift", "shift0", "divisible", "constant", "negpow", "conjquot",
    "analytic", "normal", "normal_piecewise",
)
CLI_VERIFY_PER_BLOCK = 3
# zeros of the small inner functions, and of the extra factors of the
# quotient symbols, lie in the disc of this radius
SMALL_R = 0.6


def ensure_src_on_path():
    """Import dttokit from this checkout's ``src`` tree, never from elsewhere."""
    if not (SRC / "dttokit" / "__init__.py").is_file():
        raise RuntimeError(f"no dttokit sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dttokit

    if Path(dttokit.__file__).resolve().parent != (SRC / "dttokit").resolve():
        raise RuntimeError(f"dttokit was imported from {dttokit.__file__}, not from {SRC}")
    return dttokit


# ---------------------------------------------------------------------------
# sizing model


def per_zero_width(d: int, r: float) -> float:
    """Window length per zero that certifies a tail of TOL/(2(d+1)) at modulus r.

    A sizing model for the generator only: it mirrors how the TM basis
    chooses its window, so a target basis width W maps to a modulus r.
    """
    budget = TOL / (2.0 * (d + 1))
    return math.log(budget / math.sqrt(1.0 - r * r)) / math.log(r)


def modulus_for_width(d: int, width: float) -> float:
    lo, hi = 0.05, 0.9999
    target = width / d
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if per_zero_width(d, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def feasible_degrees(width: float):
    return [
        d for d in range(D_MIN, D_MAX + 1)
        if d * per_zero_width(d, R_MIN) <= width <= d * per_zero_width(d, R_MAX)
    ]


def weyl(start: float, b: int, alpha: float) -> float:
    return (start + b * alpha) % 1.0


def log_uniform(lo: float, hi: float, t: float) -> float:
    return lo * (hi / lo) ** t


# ---------------------------------------------------------------------------
# generation (dttokit objects -> CLI JSON)


class _Gen:
    def __init__(self, dk, seed: int):
        self.dk = dk
        self.rng = random.Random(seed)

    def phase(self) -> complex:
        return complex(math.cos(t := self.rng.uniform(0, 2 * math.pi)), math.sin(t))

    def point(self, rmax: float) -> complex:
        r = self.rng.uniform(0.0, rmax)
        t = self.rng.uniform(0.0, 2.0 * math.pi)
        return complex(r * math.cos(t), r * math.sin(t))

    def gauss(self) -> complex:
        return complex(self.rng.gauss(0.0, 1.0), self.rng.gauss(0.0, 1.0))

    def circle_zeros(self, d: int, r: float) -> list:
        out = []
        for _ in range(d):
            t = self.rng.uniform(0.0, 2.0 * math.pi)
            out.append(complex(r * math.cos(t), r * math.sin(t)))
        return out

    def inner(self, zeros):
        return self.dk.BlaschkeProduct(self.phase(), tuple(zeros))

    def symbol(self, cls: str, zeros):
        """(symbol, sup-norm bound, oracle or None) for a symbol class."""
        dk = self.dk
        rnd = self.rng
        if cls in ("shift", "shift0"):
            oracle = 0.0 if any(z == 0 for z in zeros) else math.prod(abs(z) for z in zeros)
            return dk.LaurentPoly(1, [self.phase()]), 1.0, oracle
        if cls == "divisible":
            extra = [self.point(SMALL_R) for _ in range(rnd.randint(0, 2))]
            q = dk.BlaschkeQuotient(self.phase(), rnd.randint(0, 2), tuple(zeros) + tuple(extra))
            return q, 1.0, 0.0
        if cls == "constant":
            c = rnd.uniform(0.2, 2.0) * self.phase()
            return dk.LaurentPoly(0, [c]), abs(c), abs(c)
        if cls == "negpow":
            v = [self.point(SMALL_R) for _ in range(rnd.randint(1, 3))]
            return dk.BlaschkeQuotient(self.phase(), -rnd.randint(1, 3), tuple(v)), 1.0, None
        if cls == "conjquot":
            v = [self.point(SMALL_R) for _ in range(rnd.randint(1, 3))]
            q = dk.BlaschkeQuotient(self.phase(), rnd.randint(0, 2), tuple(v))
            return dk.Conjugate(q), 1.0, None
        if cls in ("analytic", "laurent"):
            offset = 0 if cls == "analytic" else -1
            coeffs = [self.gauss() for _ in range(rnd.randint(2, 4))]
            return dk.LaurentPoly(offset, coeffs), sum(abs(c) for c in coeffs), None
        if cls == "quotient":
            v = [self.point(0.5) for _ in range(rnd.randint(1, 2))]
            return dk.BlaschkeQuotient(self.phase(), rnd.randint(-1, 1), tuple(v)), 1.0, None
        if cls == "normal":
            k = rnd.randint(1, 3)
            half = [self.gauss() for _ in range(k)]
            c0 = self.gauss()
            coeffs = [h.conjugate() for h in reversed(half)] + [c0] + half
            return dk.LaurentPoly(-k, coeffs), sum(abs(c) for c in coeffs), None
        if cls in ("piecewise", "normal_piecewise"):
            cuts = sorted(rnd.uniform(0.1, 2 * math.pi - 0.1) for _ in range(2))
            edges = [0.0] + cuts + [2.0 * math.pi]
            if cls == "piecewise":
                vals = [self.gauss() for _ in range(3)]
            else:
                vals = [complex(rnd.gauss(0.0, 2.0), 0.0) for _ in range(3)]
            arcs = dk.PiecewiseArcs(tuple((a, b, v) for a, b, v in zip(edges, edges[1:], vals)))
            if cls == "piecewise":
                return arcs, max(abs(v) for v in vals), None
            beta = complex(0.0, rnd.uniform(0.5, 3.0))
            return dk.SumConst(arcs, beta), max(abs(v + beta) for v in vals), None
        raise ValueError(f"unknown symbol class {cls!r}")


def _job(g: _Gen, kind: str, u, phi, sup: float, oracle, **extra) -> dict:
    job = {
        "kind": kind,
        "inner": g.dk.blaschke_to_json(u),
        "symbol": g.dk.symbol_to_json(phi),
        "sup": sup,
        "oracle": oracle,
    }
    job.update(extra)
    return job


def _mix_inner(g: _Gen, width: float, t_deg: float, with_origin: bool = False):
    degs = feasible_degrees(width)
    d = degs[min(int(t_deg * len(degs)), len(degs) - 1)]
    zeros = g.circle_zeros(d, modulus_for_width(d, width))
    if with_origin:
        zeros[0] = 0j
    return g.inner(zeros), zeros


def _modelspace_block(g: _Gen, starts, b: int) -> list:
    jobs = []
    for k in range(W_BANDS):
        cls = MIX_CLASSES[(k + b) % len(MIX_CLASSES)]
        width = log_uniform(W_LO, W_HI, (k + weyl(starts[k][0], b, GOLDEN)) / W_BANDS)
        # the shift class alternates between u(0) != 0 and u(0) = 0
        u, zeros = _mix_inner(g, width, weyl(starts[k][1], b, SILVER), cls == "shift" and b % 2 == 1)
        phi, sup, oracle = g.symbol(cls, zeros)
        jobs.append(_job(g, "dispatch", u, phi, sup, oracle, cls=cls))
    width = log_uniform(*TYPICAL_W, weyl(starts[W_BANDS + 2][0], b, GOLDEN))
    for cls in MIX_CLASSES:
        zeros = g.circle_zeros(TYPICAL_D, modulus_for_width(TYPICAL_D, width))
        phi, sup, oracle = g.symbol(cls, zeros)
        jobs.append(_job(g, "dispatch", g.inner(zeros), phi, sup, oracle, cls=cls))
    for cls in ("constant", "normal"):
        u, zeros = _mix_inner(g, W_LO, 0.0)
        phi, sup, oracle = g.symbol(cls, zeros)
        jobs.append(_job(g, "dispatch", u, phi, sup, oracle, cls=cls))
    corner_slots = (("corner_z", CORNER_Z_W), ("corner_poly", CORNER_POLY_W))
    for k, (cls, (lo, hi)) in enumerate(corner_slots, start=W_BANDS):
        width = log_uniform(lo, hi, weyl(starts[k][0], b, GOLDEN))
        u, zeros = _mix_inner(g, width, weyl(starts[k][1], b, SILVER))
        if cls == "corner_z":
            # d >= 2, so the corner of z is rank one and its minimum modulus is 0
            phi, sup, oracle = g.dk.LaurentPoly(1, [g.phase()]), 1.0, 0.0
        else:
            (phi, sup, _), oracle = g.symbol("analytic", zeros), None
        jobs.append(_job(g, "corner", u, phi, sup, oracle, cls=cls))
    return jobs


def _small_inner(g: _Gen, with_origin: bool = False):
    d = g.rng.randint(1, 3)
    zeros = [g.point(SMALL_R) for _ in range(d)]
    if with_origin:
        zeros[0] = 0j
    return g.inner(zeros), zeros


def _galerkin_block(g: _Gen, starts, b: int) -> list:
    jobs = []
    for k in range(N_BANDS):
        cls = GALERKIN_CLASSES[(k + b) % len(GALERKIN_CLASSES)]
        n = round(log_uniform(N_LO, N_HI, (k + weyl(starts[k][0], b, GOLDEN)) / N_BANDS))
        u, zeros = _small_inner(g, cls == "shift" and b % 2 == 1)
        phi, sup, oracle = g.symbol(cls, zeros)
        jobs.append(_job(g, "galerkin", u, phi, sup, oracle, cls=cls, n=n))
    n = round(log_uniform(*TYPICAL_N, weyl(starts[N_BANDS][0], b, GOLDEN)))
    for cls in GALERKIN_CLASSES:
        u, zeros = _small_inner(g, cls == "shift" and b % 2 == 1)
        phi, sup, oracle = g.symbol(cls, zeros)
        jobs.append(_job(g, "galerkin", u, phi, sup, oracle, cls=cls, n=n))
    return jobs


def _cli_block(g: _Gen, starts, b: int) -> list:
    jobs = []
    for cls in CLI_MINMOD_CLASSES:
        u, zeros = _small_inner(g, cls == "shift0")
        phi, sup, oracle = g.symbol(cls, zeros)
        job = _job(g, "cli-minmod", u, phi, sup, oracle, cls=cls)
        argv = ["minmod", "--symbol", json.dumps(job["symbol"])]
        if cls not in ("constant", "normal", "normal_piecewise"):
            argv[1:1] = ["--inner", json.dumps(job["inner"])]
        job["argv"] = argv
        jobs.append(job)
    for _ in range(CLI_VERIFY_PER_BLOCK):
        jobs.append({"kind": "cli-verify", "cls": "verify", "argv": ["verify"], "oracle": None})
    return jobs


# workload -> (block builder, number of Weyl slots it draws from)
BLOCK_BUILDERS = {
    "modelspace-mix": (_modelspace_block, W_BANDS + 3),
    "galerkin": (_galerkin_block, N_BANDS + 1),
    "cli": (_cli_block, 0),
}
WORKLOADS = tuple(BLOCK_BUILDERS)


def build_deck(workload: str, seed: int) -> str:
    """The workload's inputs for ``seed`` as canonical JSON text."""
    if workload not in BLOCK_BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    dk = ensure_src_on_path()
    g = _Gen(dk, seed)
    builder, n_starts = BLOCK_BUILDERS[workload]
    starts = [(g.rng.random(), g.rng.random()) for _ in range(n_starts)]
    blocks = []
    for b in range(BLOCKS_PER_DECK):
        block = builder(g, starts, b)
        g.rng.shuffle(block)
        blocks.append(block)
    deck = {"workload": workload, "seed": seed, "tol": TOL, "blocks": blocks}
    return json.dumps(deck, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# parsing and checking


@dataclass
class Job:
    kind: str
    cls: str
    inner: object = None
    symbol: object = None
    sup: float = 0.0
    oracle: Optional[float] = None
    n: int = 0
    argv: list = field(default_factory=list)


def parse_deck(text: str):
    """Parse deck JSON into blocks of :class:`Job` through the CLI's parsers."""
    dk = ensure_src_on_path()
    deck = json.loads(text)
    blocks = []
    for raw_block in deck["blocks"]:
        block = []
        for raw in raw_block:
            block.append(Job(
                kind=raw["kind"],
                cls=raw["cls"],
                inner=dk.blaschke_from_json(raw["inner"]) if raw.get("inner") else None,
                symbol=dk.symbol_from_json(raw["symbol"]) if raw.get("symbol") else None,
                sup=float(raw.get("sup", 0.0)),
                oracle=raw.get("oracle"),
                n=int(raw.get("n", 0)),
                argv=list(raw.get("argv", [])),
            ))
        blocks.append(block)
    return blocks


def deck_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Range checks allow this much roundoff.  Oracle checks compare squares,
# as dispatch_minmod's dual-route check does, because the library takes
# a square root of a computed quantity (1 - s^2 or an eigenvalue), which
# turns roundoff of 1e-16 into values near 1e-8 at a zero minimum
# modulus; they allow ORACLE_SQ_TOL plus the report's certified error.
# Both stay far below what the 1e-3 shift of the negative control moves.
RANGE_SLACK = 1e-9
ORACLE_SQ_TOL = 1e-8


def check_value(job: Job, value: float, entry_error: float = 0.0, oracle_shift: float = 0.0):
    """None if ``value`` passes the job's checks, else the reason it fails."""
    if not math.isfinite(value):
        return f"non-finite value {value!r}"
    if value < -RANGE_SLACK or value > job.sup + RANGE_SLACK:
        return f"value {value:.12g} outside [0, {job.sup:.12g}]"
    if job.oracle is not None:
        target = job.oracle + oracle_shift
        if abs(value * value - target * target) > ORACLE_SQ_TOL + entry_error:
            return f"value {value:.12g} misses oracle {target:.12g}"
    return None


def _probe(argv) -> int:
    if len(argv) != 3 or argv[0] != "--probe":
        print("usage: workloads.py --probe <workload> <seed>", file=sys.stderr)
        return 2
    text = build_deck(argv[1], int(argv[2]))
    parse_deck(text)
    print("ready", deck_digest(text), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(_probe(sys.argv[1:]))
