"""Tests of the benchmark itself: inputs, span arithmetic, wrapping, checks.

Run with ``python -m pytest perfbench``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostfacts  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

dk = wl.ensure_src_on_path()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_depend_only_on_seed(workload):
    a = wl.build_deck(workload, 7)
    assert a.encode() == wl.build_deck(workload, 7).encode()
    assert a != wl.build_deck(workload, 8)
    blocks = wl.parse_deck(a)
    assert len(blocks) == wl.BLOCKS_PER_DECK
    # every block carries the same mix of classes and of oracle-backed jobs
    mixes = {tuple(sorted(j.cls for j in b)) for b in blocks}
    shares = {sum(j.oracle is not None for j in b) for b in blocks}
    assert len(shares) == 1 and shares.pop() > 0
    if workload == "cli":
        assert len(mixes) == 1


def test_modelspace_draws_cover_the_degree_and_radius_ranges():
    blocks = wl.parse_deck(wl.build_deck("modelspace-mix", 3))
    radii = [max(abs(z) for z in j.inner.zeros) for b in blocks for j in b]
    degrees = [j.inner.degree for b in blocks for j in b]
    assert wl.R_MIN - 0.05 < min(radii) and max(radii) <= wl.R_MAX + 1e-9
    assert min(degrees) == wl.D_MIN and max(degrees) == wl.D_MAX


def test_galerkin_median_size_is_the_typical_size():
    # at most one band job per side lies between 64 and the typical n, so
    # the middle two of each block's sizes are the typical n
    for block in wl.parse_deck(wl.build_deck("galerkin", 3)):
        sizes = sorted(j.n for j in block)
        low, high = sizes[len(sizes) // 2 - 1 : len(sizes) // 2 + 1]
        assert low == high and wl.TYPICAL_N[0] <= low <= wl.TYPICAL_N[1]


def _span(name, start, end, parent, excl=0.0, child=0.0):
    return [name, start, end, parent, 0, excl, child]


def test_self_time_on_hand_built_tree(monkeypatch):
    # root [0, 10] holds a [1, 4] (which holds leaf [2, 3]), b [5, 6] and c [8, 9]
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0])
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(clock))
    rec = spans.Recorder()
    root = rec.open("root")
    a = rec.open("a")
    rec.close(rec.open("leaf"))
    rec.close(a)
    rec.close(rec.open("b"))
    rec.close(rec.open("c"))
    rec.close(root)
    stats = spans.per_name(rec.spans)
    assert {n: stats[n][2] for n in stats} == pytest.approx({"root": 5.0, "a": 2.0, "leaf": 1.0, "b": 1.0, "c": 1.0})
    assert stats["root"][1] == pytest.approx(10.0)


def test_inclusive_time_counts_recursion_once_and_drops_excluded_work():
    tree = [
        _span("f", 0.0, 10.0, -1, excl=1.0, child=5.0),
        _span("f", 2.0, 6.0, 0),
        _span(spans.EXCLUDED, 7.0, 8.0, 0),
    ]
    calls, incl, self_s = spans.per_name(tree)["f"]
    assert calls == 2
    assert incl == pytest.approx(9.0)
    assert self_s == pytest.approx(5.0 + 4.0)


def _profile_counts(codes, fn):
    counts = dict.fromkeys(codes, 0)

    def prof(frame, event, _arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    sys.setprofile(prof)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def test_traced_dispatch_reaches_every_layer_through_every_binding():
    from dttokit import cli

    u = dk.BlaschkeProduct(1.0, (0.5, -0.3j, 0.2 + 0.4j))
    phi = dk.BlaschkeQuotient(1.0, -1, (0.3,))
    originals = dict(spans.layer_functions())
    originals["fourier.blaschke_window"] = dk.BlaschkeProduct.window
    rec = spans.Recorder()

    def job():
        with spans.traced(rec):
            cli.dispatch_minmod(u, phi)

    truth = _profile_counts({fn.__code__: name for name, fn in originals.items()}, job)
    stats = spans.per_name(rec.spans)
    for name, fn in originals.items():
        assert stats.get(name, (0,))[0] == truth[fn.__code__], name
    for name in (
        "fourier.window_multiply", "fourier.window_inner_product", "fourier.symbol_to_window",
        "fourier.blaschke_window", "modelspace.tm_basis", "operators.truncated_toeplitz",
        "operators.corner_images", "operators.corner_gram", "minmod.min_modulus_unimodular",
        "minmod.min_modulus_toeplitz_hankel", "linalg.svd", "linalg.eigvalsh", "cli.dispatch_minmod",
    ):
        assert stats[name][0] > 0, name
    metrics, _ = spans.layer_metrics(rec, 1)
    assert metrics["modelspace.tm_basis.calls"] == 2
    assert metrics["minmod.route_gap_sq.max"] < 1e-7
    assert 0.0 < metrics["minmod.cross_check.share"] < 1.0
    assert metrics["modelspace.gram_defect.max"] < 1e-10


def test_wrappers_are_removed_after_a_traced_run_even_on_error():
    import numpy as np
    from dttokit import fourier, operators

    before = (operators.symbol_to_window, fourier.BlaschkeProduct.window, np.linalg.svd)
    with pytest.raises(ZeroDivisionError):
        with spans.traced(spans.Recorder()) as bindings:
            assert hasattr(operators.symbol_to_window, "perfbench_span")
            assert len(bindings) > 50
            1 / 0
    assert spans.leftover_wrappers() == []
    assert (operators.symbol_to_window, fourier.BlaschkeProduct.window, np.linalg.svd) == before
    assert operators.symbol_to_window is fourier.symbol_to_window


def test_negative_control_fails_exactly_the_oracle_backed_jobs():
    blocks = wl.parse_deck(wl.build_deck("modelspace-mix", 5))
    records = []
    for job in blocks[0]:
        value = job.oracle if job.oracle is not None else 0.5 * job.sup
        records.append((job, bench.Outcome(0.01, value, 0.0)))
    assert all(wl.check_value(j, o.value) is None for j, o in records)
    control = bench.negative_control(records)
    assert control["ok"]
    assert control["failed_when_shifted"] == sum(j.oracle is not None for j in blocks[0]) > 0
    assert control["failed_frac_shifted"] == control["oracle_backed_share"]


def test_check_value_rejects_out_of_range_and_missed_oracles():
    job = wl.Job(kind="dispatch", cls="shift", sup=1.0, oracle=0.25)
    assert wl.check_value(job, 0.25) is None
    assert wl.check_value(job, 0.26) is not None
    assert wl.check_value(job, -0.1) is not None
    assert wl.check_value(wl.Job(kind="dispatch", cls="negpow", sup=1.0), 1.5) is not None
    assert wl.check_value(job, float("nan")) is not None
    # a zero minimum modulus comes back as the square root of roundoff
    corner = wl.Job(kind="corner", cls="corner_z", sup=1.0, oracle=0.0)
    assert wl.check_value(corner, 3.65e-8, 2e-9) is None
    assert wl.check_value(corner, 0.5) is not None
    assert wl.check_value(corner, 0.0, 0.0, oracle_shift=bench.ORACLE_SHIFT) is not None


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = bench.tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert sum(x > value for x in range(100)) == 10


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      2000 |      56000 |   numpy\n"
        "import time:       300 |        400 |     numpy.linalg\n"
        "import time:       900 |      91000 | dttokit\n"
        "import time:       100 |       1500 |   dttokit.fourier\n"
    )
    assert hostfacts.parse_importtime(text) == {
        "numpy": pytest.approx(0.056), "dttokit": pytest.approx(0.091), "dttokit.fourier": pytest.approx(0.0015),
    }
