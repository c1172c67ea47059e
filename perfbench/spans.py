"""Spans around dttokit's layers, recorded from outside the library.

:func:`traced` wraps every public function of the package modules
``fourier``, ``modelspace``, ``operators``, ``minmod``, ``oracle``,
``verify`` and ``cli``, plus ``BlaschkeProduct.window`` and the
``numpy.linalg`` calls ``svd`` and ``eigvalsh`` (layer ``linalg``).  The
modules import each other's names with ``from .x import y``, so a wrapper
is installed under every module attribute bound to the original function,
in every loaded ``dttokit`` module; on exit each binding is restored.

A span is ``[name, start, end, parent, job, excluded, child]``.  Spans
stay in memory and are written out once, after the traced pass.  Calls
nest on one stack (the run is single-threaded and closed-loop), so
sibling spans never overlap, and a span's self time is its duration
minus ``child``, the summed durations of its direct children.
"""

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("fourier", "modelspace", "operators", "minmod", "oracle", "verify", "cli")
NAME, START, END, PARENT, JOB, EXCL, CHILD = range(7)
EXCLUDED = "perfbench.excluded"


class Recorder:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.info = {}  # span index -> data captured from the call's result
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.job = -1
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job, 0.0, 0.0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        self._stack.pop()
        dur = span[END] - span[START]
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += dur
        if span[NAME] == EXCLUDED:
            # measurement work of the benchmark: no ancestor's time includes it
            for open_idx in self._stack:
                self.spans[open_idx][EXCL] += dur

    @contextmanager
    def excluded(self):
        idx = self.open(EXCLUDED)
        try:
            yield
        finally:
            self.close(idx)

    def dump(self, path):
        """Write the spans as gzip'd columnar JSON."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start", "end", "parent", "job", "excluded", "child"],
            "names": names,
            "spans": [[index[s[NAME]], *s[START:]] for s in self.spans],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# arithmetic on span lists


def per_name(spans):
    """name -> (calls, inclusive s, self s).

    Inclusive time counts only the outermost span of each name, so a
    recursive call is not counted twice, and leaves out excluded work.
    """
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    for s in spans:
        name = s[NAME]
        if name == EXCLUDED:
            continue
        calls[name] += 1
        self_s[name] += s[END] - s[START] - s[CHILD]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            incl[name] += s[END] - s[START] - s[EXCL]
    return {n: (calls[n], incl[n], self_s[n]) for n in calls}


# ---------------------------------------------------------------------------
# counters taken at the wrapped boundaries


def gram_defect(basis) -> float:
    """max |<e_k, e_j> - delta_jk| over the basis windows, computed densely."""
    lo = min(e.lo for e in basis.basis)
    hi = max(e.hi for e in basis.basis)
    mat = np.zeros((len(basis.basis), hi - lo + 1), dtype=np.complex128)
    for row, e in zip(mat, basis.basis):
        row[e.lo - lo : e.hi - lo + 1] = e.coeffs
    gram = mat.conj() @ mat.T
    return float(np.abs(gram - np.eye(len(basis.basis))).max())


def _observe(rec: Recorder, name: str, idx: int, args, result):
    layer = name.split(".", 1)[0]
    if layer == "fourier" and hasattr(result, "coeffs"):
        rec.maxima["fourier.window_len.max"] = max(rec.maxima["fourier.window_len.max"], len(result.coeffs))
    if name == "fourier.window_multiply":
        rec.counts["fourier.window_multiply.macs"] += len(args[0].coeffs) * len(args[1].coeffs)
    elif name == "modelspace.tm_basis":
        rec.maxima["modelspace.basis_width.max"] = max(
            rec.maxima["modelspace.basis_width.max"], result.window_width()
        )
        with rec.excluded():
            defect = gram_defect(result)
        rec.maxima["modelspace.gram_defect.max"] = max(rec.maxima["modelspace.gram_defect.max"], defect)
    elif layer == "operators" and hasattr(result, "entries"):
        rows, cols = result.shape
        rec.counts["operators.matrix_entries"] += rows * cols
    elif name in ("minmod.min_modulus_unimodular", "minmod.min_modulus_toeplitz_hankel"):
        rec.info[idx] = (result.value, result.entry_error_bound)
    elif name == "linalg.svd":
        a = np.asarray(args[0])
        rec.counts["linalg.svd.elements"] += a.shape[-2] * a.shape[-1]
    elif name == "verify.build_catalog":
        rec.maxima["verify.items"] = max(rec.maxima["verify.items"], len(result))
    elif name == "verify.run_catalog":
        rec.counts["verify.failures"] += result


def _wrap(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        _observe(rec, name, idx, args, result)
        return result

    wrapper.perfbench_span = name
    return wrapper


def _dttokit_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "dttokit" or n.startswith("dttokit.")]


def layer_functions():
    """(span name, original function) for every wrapped function in a module layer."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"dttokit.{layer}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                out.append((f"{layer}.{attr}", obj))
    return out


@contextmanager
def traced(rec: Recorder):
    """Install span wrappers for the duration of the block; always restore."""
    from dttokit.fourier import BlaschkeProduct

    wrappers = {fn: _wrap(rec, name, fn) for name, fn in layer_functions()}
    bindings = []  # (owner, attribute, original)
    for mod in _dttokit_modules():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                bindings.append((mod, attr, obj))
    for owner, attr, name in (
        (BlaschkeProduct, "window", "fourier.blaschke_window"),
        (np.linalg, "svd", "linalg.svd"),
        (np.linalg, "eigvalsh", "linalg.eigvalsh"),
    ):
        fn = getattr(owner, attr)
        wrappers[fn] = _wrap(rec, name, fn)
        bindings.append((owner, attr, fn))
    try:
        for owner, attr, original in bindings:
            setattr(owner, attr, wrappers[original])
        yield bindings
    finally:
        for owner, attr, original in reversed(bindings):
            setattr(owner, attr, original)


def leftover_wrappers() -> list:
    """Attributes that still hold a span wrapper (empty after :func:`traced`)."""
    from dttokit.fourier import BlaschkeProduct

    owners = _dttokit_modules() + [BlaschkeProduct, np.linalg]
    return [
        f"{getattr(o, '__name__', o)}.{attr}"
        for o in owners
        for attr, obj in list(vars(o).items())
        if hasattr(obj, "perfbench_span")
    ]


# ---------------------------------------------------------------------------
# per-layer metrics

# every per-layer metric of a traced run, in report order, with its unit
PER_LAYER_UNITS = {
    "fourier.window_multiply.calls": "count/job",
    "fourier.window_multiply.macs": "count/job",
    "fourier.window_multiply.self_s": "s/job",
    "fourier.window_inner_product.calls": "count/job",
    "fourier.window_inner_product.self_s": "s/job",
    "fourier.symbol_to_window.self_s": "s/job",
    "fourier.blaschke_window.self_s": "s/job",
    "fourier.window_len.max": "count",
    "modelspace.tm_basis.calls": "count/job",
    "modelspace.tm_basis.self_s": "s/job",
    "modelspace.basis_width.max": "count",
    "modelspace.gram_defect.max": "abs",
    "operators.truncated_toeplitz.self_s": "s/job",
    "operators.corner_images.self_s": "s/job",
    "operators.corner_gram.self_s": "s/job",
    "operators.matrix_entries": "count/job",
    "minmod.min_modulus_unimodular.s": "s/job",
    "minmod.cross_check.s": "s/job",
    "minmod.cross_check.share": "ratio",
    "minmod.min_modulus_corner.s": "s/job",
    "minmod.route_gap_sq.max": "abs",
    "minmod.gap_over_budget.max": "ratio",
    "minmod.galerkin_sweep.self_s": "s/job",
    "minmod.galerkin.assembly_over_svd": "ratio",
    "linalg.svd.calls": "count/job",
    "linalg.svd.s": "s/job",
    "linalg.svd.elements": "count/job",
    "linalg.eigvalsh.calls": "count/job",
    "linalg.eigvalsh.s": "s/job",
    "oracle.normal_dtto_bounds.s": "s/job",
    "oracle.truncated_toeplitz_norm_hankel.s": "s/job",
    "cli.dispatch_minmod.s": "s/job",
    "cli.main.s": "s/job",
    "cli.process_overhead_s": "s",
    "cli.import.numpy_s": "s",
    "cli.import.dttokit_s": "s",
    "verify.build_catalog.s": "s/job",
    "verify.items": "count",
    "verify.failures": "count",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(rec: Recorder, jobs: int):
    """(metrics, per-name stats) of one traced pass of ``jobs`` jobs.

    Times and counts are per job of the pass and ``.max`` values maxima
    over it.  ``minmod.cross_check.share`` is over inclusive
    ``cli.dispatch_minmod`` time and ``minmod.galerkin.assembly_over_svd``
    over ``linalg.svd`` time.  ``cli.process_overhead_s``,
    ``cli.import.*`` and ``trace.overhead_frac`` are added by the caller.
    """
    stats = per_name(rec.spans)
    jobs = max(jobs, 1)

    def calls(n):
        return stats.get(n, (0, 0.0, 0.0))[0] / jobs

    def incl(n):
        return stats.get(n, (0, 0.0, 0.0))[1] / jobs

    def self_s(n):
        return stats.get(n, (0, 0.0, 0.0))[2] / jobs

    gaps, ratios = [], []
    routes = defaultdict(dict)
    for idx, (value, err) in rec.info.items():
        parent = rec.spans[idx][PARENT]
        if parent >= 0 and rec.spans[parent][NAME] == "cli.dispatch_minmod":
            routes[parent][rec.spans[idx][NAME]] = (value, err)
    for pair in routes.values():
        if len(pair) == 2:
            (v1, e1), (v2, e2) = pair["minmod.min_modulus_unimodular"], pair["minmod.min_modulus_toeplitz_hankel"]
            gap = abs(v1 * v1 - v2 * v2)
            gaps.append(gap)
            ratios.append(gap / (1e-7 + e1 + e2))  # the budget dispatch_minmod enforces

    dispatch = incl("cli.dispatch_minmod")
    svd = incl("linalg.svd")
    m = {
        "fourier.window_multiply.calls": calls("fourier.window_multiply"),
        "fourier.window_multiply.macs": rec.counts["fourier.window_multiply.macs"] / jobs,
        "fourier.window_multiply.self_s": self_s("fourier.window_multiply"),
        "fourier.window_inner_product.calls": calls("fourier.window_inner_product"),
        "fourier.window_inner_product.self_s": self_s("fourier.window_inner_product"),
        "fourier.symbol_to_window.self_s": self_s("fourier.symbol_to_window"),
        "fourier.blaschke_window.self_s": self_s("fourier.blaschke_window"),
        "fourier.window_len.max": rec.maxima["fourier.window_len.max"],
        "modelspace.tm_basis.calls": calls("modelspace.tm_basis"),
        "modelspace.tm_basis.self_s": self_s("modelspace.tm_basis"),
        "modelspace.basis_width.max": rec.maxima["modelspace.basis_width.max"],
        "modelspace.gram_defect.max": rec.maxima["modelspace.gram_defect.max"],
        "operators.truncated_toeplitz.self_s": self_s("operators.truncated_toeplitz"),
        "operators.corner_images.self_s": self_s("operators.corner_images"),
        "operators.corner_gram.self_s": self_s("operators.corner_gram"),
        "operators.matrix_entries": rec.counts["operators.matrix_entries"] / jobs,
        "minmod.min_modulus_unimodular.s": incl("minmod.min_modulus_unimodular"),
        "minmod.cross_check.s": incl("minmod.min_modulus_toeplitz_hankel"),
        "minmod.cross_check.share": incl("minmod.min_modulus_toeplitz_hankel") / dispatch if dispatch else 0.0,
        "minmod.min_modulus_corner.s": incl("minmod.min_modulus_corner"),
        "minmod.route_gap_sq.max": max(gaps, default=0.0),
        "minmod.gap_over_budget.max": max(ratios, default=0.0),
        "minmod.galerkin_sweep.self_s": self_s("minmod.galerkin_sweep"),
        "minmod.galerkin.assembly_over_svd": self_s("minmod.galerkin_sweep") / svd if svd else 0.0,
        "linalg.svd.calls": calls("linalg.svd"),
        "linalg.svd.s": svd,
        "linalg.svd.elements": rec.counts["linalg.svd.elements"] / jobs,
        "linalg.eigvalsh.calls": calls("linalg.eigvalsh"),
        "linalg.eigvalsh.s": incl("linalg.eigvalsh"),
        "oracle.normal_dtto_bounds.s": incl("oracle.normal_dtto_bounds"),
        "oracle.truncated_toeplitz_norm_hankel.s": incl("oracle.truncated_toeplitz_norm_hankel"),
        "cli.dispatch_minmod.s": dispatch,
        "cli.main.s": incl("cli.main"),
        "verify.build_catalog.s": incl("verify.build_catalog"),
        "verify.items": rec.maxima["verify.items"],
        "verify.failures": rec.counts["verify.failures"],
    }
    return m, stats
