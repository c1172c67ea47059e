import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dttokit import minmod, operators
from dttokit.cli import _fmt, dispatch_minmod, main
from dttokit.fourier import (
    BlaschkeProduct,
    BlaschkeQuotient,
    Conjugate,
    LaurentPoly,
    PiecewiseArcs,
    SumConst,
    SymbolClassError,
    _fold_wrappers,
    shift_symbol,
)

U_Z2 = '{"kind": "blaschke_product", "zeros": [[0, 0], [0, 0]]}'
U_HALF = '{"kind": "blaschke_product", "zeros": [[0.5, 0]]}'
PHI_Z = '{"kind": "laurent", "offset": 1, "coeffs": [[1, 0]]}'
U_HALF_FIFTH = '{"kind": "blaschke_product", "zeros": [[0.5, 0], [0, 0.2]]}'
# q = zbar b_0.3, a unimodular quotient with a pole at 0
Q = '{"kind": "blaschke_quotient", "z_power": -1, "zeros": [[0.3, 0]]}'
REPORT_KEYS = (
    "value", "method", "quantity", "lower", "upper", "oracle", "discrepancy", "entry_error", "truncation",
)
STEP_3I = (
    '{"kind": "sum", "constant": [0, 3], "left": {"kind": "piecewise", "arcs": ['
    '{"from": 0.0, "to": 3.141592653589793, "value": [1, 0]},'
    '{"from": 3.141592653589793, "to": 6.283185307179586, "value": [-1, 0]}]}}'
)


def test_minmod_monomial_shift(capsys):
    code = main(["minmod", "--inner", U_Z2, "--symbol", PHI_Z])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["value"] == 0.0
    assert out["oracle"] == 0.0
    assert out["discrepancy"] == 0.0
    assert out["method"] == "finite_exact"
    assert out["quantity"] == "m(D_phi)"
    assert out["truncation"] is None


def test_minmod_dim_one_shift(capsys):
    code = main(["minmod", "--inner", U_HALF, "--symbol", PHI_Z])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(out["value"] - 0.5) < 1e-9
    assert abs(out["oracle"] - 0.5) < 1e-15


def test_minmod_step_bounds(capsys):
    code = main(["minmod", "--symbol", STEP_3I])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(out["lower"] - 3.0) < 1e-12
    assert abs(out["upper"] - np.sqrt(10.0)) < 1e-12
    assert out["method"] == "bounds"


def test_minmod_conjugated_step_bounds(capsys):
    # conj(step + 3i) = step - 3i: the range {-1 - 3i, 1 - 3i}
    code = main(["minmod", "--symbol", '{"kind": "conjugate", "of": ' + STEP_3I + "}"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(out["lower"] - 3.0) < 1e-12
    assert abs(out["upper"] - np.sqrt(10.0)) < 1e-12
    assert out["method"] == "bounds"


def test_normal_report_is_exact_when_the_bounds_meet():
    step = PiecewiseArcs(((0.0, np.pi, 3.0), (np.pi, 2 * np.pi, 4.0)))
    rep = dispatch_minmod(None, step)
    assert rep["lower"] == rep["upper"] == rep["value"] == 3.0 and rep["method"] == "oracle"


def test_minmod_constant_symbol(capsys):
    code = main(["minmod", "--symbol", '{"kind": "laurent", "offset": 0, "coeffs": [[0, 1]]}'])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["value"] == 1.0 and out["method"] == "oracle"


def test_minmod_exit_code_on_malformed_json(capsys, tmp_path):
    assert main(["minmod", "--inner", "{broken", "--symbol", PHI_Z]) == 2
    assert main(["minmod", "--inner", U_Z2, "--symbol", '{"kind": "nope"}']) == 2
    assert main(["minmod", "--inner", "no-such-file.json", "--symbol", PHI_Z]) == 2
    # non-finite numbers are malformed input, not a failed verification
    for tol in ("inf", "1e400", "nan"):
        assert main(["minmod", "--inner", U_HALF, "--symbol", PHI_Z, "--tol", tol]) == 2
    assert main(["sweep", "--inner", U_HALF, "--symbol", PHI_Z, "--truncations", "4,8", "--tol", "inf"]) == 2
    nan_arc = '{"kind": "piecewise", "arcs": [{"from": 0, "to": 6.283185307179586, "value": [NaN, 0]}]}'
    nan_sum = '{"kind": "sum", "constant": [NaN, 0], "left": ' + PHI_Z + "}"
    inf_coeff = '{"kind": "laurent", "offset": 0, "coeffs": [[1, Infinity]]}'
    for sym in (nan_arc, nan_sum, inf_coeff):
        assert main(["minmod", "--symbol", sym]) == 2
    assert "must be finite" in capsys.readouterr().err
    # an integer field that overflows, a directory and nesting too deep to
    # parse: unreadable input, not a failed verification
    inf_offset = '{"kind": "laurent", "offset": Infinity, "coeffs": [[1, 0]]}'
    huge_power = '{"kind": "blaschke_quotient", "z_power": 1e400, "zeros": [[0.3, 0]]}'
    nested = '{"kind": "conjugate", "of": ' * 3000 + PHI_Z + "}" * 3000
    for sym in (inf_offset, huge_power, nested):
        assert main(["minmod", "--inner", U_HALF, "--symbol", sym]) == 2
    assert main(["minmod", "--inner", str(tmp_path), "--symbol", PHI_Z]) == 2
    err = capsys.readouterr().err
    for name in ("OverflowError", "RecursionError", "IsADirectoryError"):
        assert f"unreadable input: {name}" in err
    # so is an output path that cannot be written
    assert main(["minmod", "--inner", U_HALF, "--symbol", PHI_Z, "--out", str(tmp_path)]) == 2
    assert "input error: unwritable output: IsADirectoryError" in capsys.readouterr().err
    # a non-finite negative-control shift is malformed input, not a failed check
    for shift in ("nan", "inf", "-inf"):
        assert main(["verify", f"--perturb-oracle={shift}"]) == 2
        assert f"--perturb-oracle must be finite, got {shift}" in capsys.readouterr().err


def test_minmod_exit_code_on_unsupported_class(capsys):
    # co-analytic plus a non-real constant: neither unimodular, analytic,
    # constant, nor of the recognized normal form
    weird = '{"kind": "laurent", "offset": -1, "coeffs": [[1, 0], [0, 0], [2, 0]]}'
    assert main(["minmod", "--inner", U_Z2, "--symbol", weird]) == 3


def test_constant_inner_function_is_an_unsupported_class(capsys):
    constant_inner = '{"kind": "blaschke_product", "zeros": []}'
    poly = '{"kind": "laurent", "offset": 0, "coeffs": [[1, 0], [0.5, 0]]}'
    for argv in (
        ["minmod", "--inner", constant_inner, "--symbol", PHI_Z],
        ["minmod", "--inner", constant_inner, "--symbol", Q],
        ["minmod", "--inner", constant_inner, "--symbol", poly],
        ["sweep", "--inner", constant_inner, "--symbol", PHI_Z, "--truncations", "4"],
    ):
        assert main(argv) == 3
        assert "inner function must be nonconstant" in capsys.readouterr().err


def test_minmod_refuses_unreachable_window_width(capsys):
    # zeros at modulus 0.999999 need windows of about 16M coefficients
    near_circle = '{"kind": "blaschke_product", "zeros": [[0.999999, 0], [0, -0.5]]}'
    for argv in (
        ["minmod", "--inner", near_circle, "--symbol", Q],
        ["minmod", "--inner", near_circle, "--symbol", PHI_Z],
        ["sweep", "--inner", near_circle, "--symbol", Q, "--truncations", "4"],
    ):
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1.0
        assert "over budget: predicted window width" in capsys.readouterr().err


def test_removed_route_overrides_are_refused(capsys):
    for argv in (
        ["minmod", "--inner", U_HALF, "--symbol", PHI_Z, "--force-method", "oracle"],
        ["minmod", "--inner", U_HALF, "--symbol", PHI_Z, "--truncations", "8,16"],
        ["sweep", "--inner", U_HALF, "--symbol", PHI_Z, "--truncations", "4,8", "--force-method", "oracle"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sweep_refuses_a_block_above_the_byte_budget(monkeypatch, capsys):
    # the n = 64 block and its SVD copy would take about 0.53 MB; n = 8 fits
    monkeypatch.setattr(operators, "_MAX_BLOCK_BYTES", 200_000)
    factorized = []
    monkeypatch.setattr(minmod, "sigma_min", lambda block: factorized.append(block) or 0.0)
    argv = ["sweep", "--inner", U_HALF, "--symbol", PHI_Z, "--truncations", "8,64"]
    assert main(argv) == 3
    assert "over budget: predicted Galerkin block of" in capsys.readouterr().err
    # the whole schedule is refused before the first factorization
    assert factorized == []
    assert main(argv[:-1] + ["8"]) == 0
    assert len(factorized) == 1


def _run_under_a_2gib_cap(argv):
    """``python -m dttokit`` with argv in a child limited to 2 GiB of address space."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run(
        [sys.executable, "-m", "dttokit", *argv], env=env, preexec_fn=cap,
        capture_output=True, text=True, timeout=10,
    )


def test_hostile_sweep_is_refused_before_any_window_under_an_address_space_cap():
    # n = 1e8 would window the step over [-2n, 2n], about 6 GB, before the
    # exact block check; the early check refuses it within the 2 GiB cap
    step = (
        '{"kind": "piecewise", "arcs": ['
        '{"from": 0.0, "to": 3.141592653589793, "value": [1, 0]},'
        '{"from": 3.141592653589793, "to": 6.283185307179586, "value": [-1, 0]}]}'
    )
    proc = _run_under_a_2gib_cap(["sweep", "--inner", U_HALF, "--symbol", step, "--truncations", "100000000"])
    assert proc.returncode == 3, proc.stderr
    assert "over budget:" in proc.stderr


def test_a_block_whose_svd_copy_breaks_the_byte_budget_is_refused_under_an_address_space_cap():
    # the n = 4000 block alone takes 1.02e9 bytes, and the SVD copies it
    start = time.perf_counter()
    proc = _run_under_a_2gib_cap(["sweep", "--inner", U_HALF, "--symbol", PHI_Z, "--truncations", "4000"])
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 3, proc.stderr
    assert "over budget: predicted Galerkin block of 2048000000 bytes, SVD copy included" in proc.stderr


@pytest.mark.parametrize(
    "inner",
    [
        # 20000 zeros: a 20001 x 20001 long-double realization is 11.9 GiB
        json.dumps({"kind": "blaschke_product", "zeros": [[0.5, 0.0]] * 20000}),
        # 10^8 zeros at 0, refused before the zero tuple is built
        '{"kind": "blaschke_quotient", "z_power": 100000000}',
        # 200 zeros at 0.9999: a 201 x 2^19 window stack at tol 1e-9,
        # 3.4 GB with its two float arrays
        json.dumps({"kind": "blaschke_product", "zeros": [
            [0.9999 * np.cos(t), 0.9999 * np.sin(t)] for t in 2 * np.pi * np.arange(200) / 200
        ]}),
    ],
    ids=["zeros", "z_power", "window_stack"],
)
def test_an_inner_function_over_the_degree_budget_is_refused_under_an_address_space_cap(tmp_path, inner):
    path = tmp_path / "inner.json"
    path.write_text(inner)
    start = time.perf_counter()
    proc = _run_under_a_2gib_cap(["minmod", "--inner", str(path), "--symbol", PHI_Z])
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 3, proc.stderr
    assert "over budget:" in proc.stderr


def test_a_huge_power_of_z_meets_the_divisibility_oracle_at_once(capsys):
    # only deg u zeros at 0 can match u's, so no more are pooled
    huge = LaurentPoly(100_000_000, [1.0])
    start = time.perf_counter()
    rep = dispatch_minmod(BlaschkeProduct(1.0, (0.5,)), huge)
    assert rep["value"] == 0.0 and time.perf_counter() - start < 2.0
    # u = z^2 still divides z^(10^8)
    assert dispatch_minmod(BlaschkeProduct(1.0, (0.0, 0.0)), huge)["oracle"] == 0.0
    # an offset past every list length
    sym = '{"kind": "laurent", "offset": 1e300, "coeffs": [[1, 0]]}'
    assert main(["minmod", "--inner", U_HALF, "--symbol", sym]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0.0


def test_minmod_requires_inner_for_unimodular(capsys):
    assert main(["minmod", "--symbol", PHI_Z]) == 2


def test_sweep_csv_format(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--inner",
            U_HALF,
            "--symbol",
            PHI_Z,
            "--truncations",
            "4,8,16",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == ",".join(REPORT_KEYS)
    rows = [dict(zip(REPORT_KEYS, line.split(","))) for line in lines[1:] if not line.startswith("#")]
    assert [int(r["truncation"]) for r in rows] == [4, 8, 16]
    assert all(r["method"] == "galerkin_sweep" for r in rows)
    values = [float(r["value"]) for r in rows]
    assert all(abs(v - 0.5) < 0.02 for v in values)
    # non-increasing within tolerance
    assert all(b <= a + 2e-9 for a, b in zip(values, values[1:]))


def test_sweep_json_format(capsys):
    code = main(
        ["sweep", "--inner", U_Z2, "--symbol", PHI_Z, "--truncations", "4,8", "--format", "json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [r["truncation"] for r in out] == [4, 8]
    assert all(r["method"] == "galerkin_sweep" for r in out)


def test_sweep_rows_carry_the_closed_form_oracle(capsys):
    # m(D_z) = |u(0)| = 0.5 for u = b_0.5, the oracle that minmod attaches
    argv = ["sweep", "--inner", U_HALF, "--symbol", PHI_Z, "--truncations", "4,8"]
    assert main(argv + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert main(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [r["truncation"] for r in rows] == [4, 8]
    for r in rows:
        assert r["oracle"] == 0.5 and r["discrepancy"] == abs(r["value"] - 0.5)
    assert lines[1:] == [",".join(_fmt(v) for v in r.values()) for r in rows]


def test_sweep_requires_increasing_truncations(capsys):
    assert main(["sweep", "--inner", U_HALF, "--symbol", PHI_Z, "--truncations", "8,8"]) == 2
    assert main(["sweep", "--inner", U_HALF, "--symbol", PHI_Z]) == 2


def test_inner_from_file(tmp_path, capsys):
    p = tmp_path / "inner.json"
    p.write_text(U_HALF)
    code = main(["minmod", "--inner", str(p), "--symbol", PHI_Z])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and abs(out["value"] - 0.5) < 1e-9


def test_verify_clean_and_perturbed(capsys):
    assert main(["verify"]) == 0
    clean = capsys.readouterr().out
    assert "PASS" in clean and "FAIL" not in clean
    assert clean.splitlines()[-1] == "57/57 checks passed"
    assert main(["verify", "--perturb-oracle", "1e-3"]) == 1
    perturbed = capsys.readouterr().out
    # every item can fail: each compares against a shifted oracle
    assert "PASS" not in perturbed
    assert perturbed.splitlines()[-1] == "0/57 checks passed"


# the catalog's item names: items may be added, none lost, renamed or doubled
CATALOG_NAMES = (
    "kernel-at-zero-norm", "piecewise-plus-constant-eval", "continuous-symbol-eval",
    "quotient-conjugate-expansion", "monomial-model-basis", "deep-coanalytic-toeplitz-vanishes",
    "hankel-shift-column", "hankel-quotient-column-norm", "dual-shift-kernel-sigma",
    "dual-shift-reduced-minmod", "compressed-shift-1x1-norm", "tto-vanishes-on-own-symbol",
    "compressed-shift-defect-rank-one", "defect-spectrum-degree-two",
    "corner-gram-constant-symbol", "corner-gram-defect-identity", "corner-gram-shift-eigenvalue",
    "dtto-offdiag-rank-one", "dtto-offdiag-vanishes", "dtto-conjugation-symmetry",
    "unimodular-shift-z2", "gram-route-shift-z2", "unimodular-own-symbol", "unimodular-constant",
    "gram-route-quotient-closed-form", "coanalytic-bounds-collapse", "coanalytic-exact-equality",
    "corner-minmod-multidim-shift", "corner-minmod-dim-one", "corner-shift-pythagoras",
    "corner-minmod-affine-dim-one",
    "sweep-dual-shift-nonzero", "sweep-dual-shift-zero", "sweep-dual-shift-dim-one",
    "adjoint-minmod-compressed-shift", "adjoint-minmod-compressed-shift-star",
    "compressed-shift-near-circle", "compressed-shift-star-near-circle",
    "oracle-compressed-shift-formula", "ess-range-step", "ess-range-continuous-segment",
    "normal-bounds-step-lower", "normal-bounds-step-upper", "normal-bounds-continuous-exact",
    "normal-bounds-real-symbol-lower", "normal-bounds-real-symbol-exact",
    "normal-bounds-shifted-cosine-exact", "normal-bounds-conjugate-shifted-cosine-exact",
    "nehari-own-symbol", "nehari-shift-dim-one", "constant-symbol-oracle", "dispatch-shift-z2",
    "dispatch-shift-z2-oracle", "dispatch-shift-dim-one", "dispatch-step-lower",
    "dispatch-step-upper", "inner-symbol-divisible",
)


def test_catalog_builds_every_pinned_item_once():
    from dttokit.verify import build_catalog

    names = [item.name for item in build_catalog()]
    assert len(CATALOG_NAMES) == 57
    assert [names.count(name) for name in CATALOG_NAMES] == [1] * len(CATALOG_NAMES)


@pytest.mark.parametrize("exc", [ValueError("item blew up"), SymbolClassError("item blew up")])
def test_a_raising_catalog_is_a_failed_verification(monkeypatch, capsys, exc):
    from dttokit import verify

    def build_catalog():
        raise exc

    monkeypatch.setattr(verify, "build_catalog", build_catalog)
    assert main(["verify"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"FAIL  catalog  {type(exc).__name__}: item blew up"]
    assert err == ""


def test_verify_negative_control_hits_shift_item(capsys):
    from dttokit.verify import run_catalog

    lines = []
    failures = run_catalog(perturb_oracle=1e-3, emit=lines.append)
    assert failures > 0
    shift_lines = [ln for ln in lines if "oracle-compressed-shift-formula" in ln]
    assert shift_lines and shift_lines[0].startswith("FAIL")


def test_verify_refuses_empty_catalog():
    from dttokit.verify import run_catalog

    assert run_catalog(items=[], emit=None) == 1


def test_dispatch_deterministic():
    u = BlaschkeProduct(1.0, (0.5,))
    a = dispatch_minmod(u, shift_symbol(1))
    b = dispatch_minmod(u, shift_symbol(1))
    assert a == b


@pytest.mark.parametrize(
    "wrapped",
    [
        SumConst(Conjugate(PiecewiseArcs(((0.0, np.pi, 1.0), (np.pi, 2 * np.pi, 1j)))), 0.0),
        SumConst(SumConst(shift_symbol(1), 1.0), -1.0),
        Conjugate(Conjugate(BlaschkeQuotient(1.0, -1, (0.3,)))),
        SumConst(PiecewiseArcs(((0.0, np.pi, 1.0), (np.pi, 2 * np.pi, -1.0))), 3j),
        SumConst(Conjugate(LaurentPoly(-1, [0.2j, 0.5])), 0.1),
    ],
)
def test_wrapped_symbol_and_its_folded_core_give_identical_reports(wrapped):
    core, added, odd = _fold_wrappers(wrapped)
    assert added == 0 and not odd and core is not wrapped
    u = BlaschkeProduct(1.0, (0.5, 0.2j))
    assert dispatch_minmod(u, wrapped) == dispatch_minmod(u, core)


def test_dispatch_folds_a_wrapped_piecewise_symbol_once(monkeypatch):
    step = PiecewiseArcs(((0.0, np.pi, 1.0), (np.pi, 2 * np.pi, -1.0)))
    built = []
    validate = PiecewiseArcs.__post_init__
    monkeypatch.setattr(PiecewiseArcs, "__post_init__", lambda self: built.append(validate(self)))
    rep = dispatch_minmod(None, SumConst(Conjugate(step), 2j))
    assert len(built) == 1
    assert rep["method"] == "bounds" and rep["value"] == 2.0


def test_minmod_csv_output(capsys):
    code = main(["minmod", "--inner", U_HALF, "--symbol", PHI_Z, "--format", "csv"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0] == ",".join(REPORT_KEYS)
    fields = out[1].split(",")
    assert abs(float(fields[0]) - 0.5) < 1e-9
    assert fields[1] == "finite_exact"


def _sum(left: str, c: str) -> str:
    return '{"kind": "sum", "constant": ' + c + ', "left": ' + left + "}"


def _conj(of: str) -> str:
    return '{"kind": "conjugate", "of": ' + of + "}"


def _minmod_json(capsys, symbol: str, inner: str = U_HALF_FIFTH) -> dict:
    code = main(["minmod", "--inner", inner, "--symbol", symbol])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_cancelling_sum_routes_as_its_core(capsys):
    # (z + 1) - 1 is z: the unimodular route and the dual-shift oracle,
    # not the corner operator of an analytic symbol
    plain = _minmod_json(capsys, PHI_Z)
    nested = _minmod_json(capsys, _sum(_sum(PHI_Z, "[1, 0]"), "[-1, 0]"))
    assert nested["quantity"] == plain["quantity"] == "m(D_phi)"
    assert nested["value"] == plain["value"] and abs(plain["value"] - 0.1) < 1e-9
    assert nested["oracle"] == plain["oracle"] == 0.1


def test_conjugated_cancelling_sum_is_answered(capsys):
    # conj(q + 1) - 1 is conj(q)
    plain = _minmod_json(capsys, _conj(Q))
    nested = _minmod_json(capsys, _sum(_conj(_sum(Q, "[1, 0]")), "[-1, 0]"))
    assert nested["quantity"] == plain["quantity"] == "m(D_phi)"
    assert abs(nested["value"] - plain["value"]) <= nested["entry_error"]


def test_double_conjugate_shift_carries_the_dual_shift_oracle(capsys):
    # conj(zbar) is z
    out = _minmod_json(capsys, _conj('{"kind": "laurent", "offset": -1, "coeffs": [[1, 0]]}'))
    assert out["oracle"] == 0.1
    assert out["discrepancy"] < 1e-12


def _arcs(first: str, second: str) -> str:
    return (
        '{"kind": "piecewise", "arcs": ['
        f'{{"from": 0.0, "to": 3.141592653589793, "value": {first}}},'
        f'{{"from": 3.141592653589793, "to": 6.283185307179586, "value": {second}}}]}}'
    )


def test_piecewise_plus_constant_on_the_circle_is_unimodular(capsys):
    # (1 on the upper arc, i on the lower) - 1 - i takes the values -i and
    # -1: the constant folds into the arc values, and the sum routes as
    # the plain unimodular piecewise symbol
    plain = _minmod_json(capsys, _arcs("[0, -1]", "[-1, 0]"), U_HALF)
    nested = _minmod_json(capsys, _sum(_arcs("[1, 0]", "[0, 1]"), "[-1, -1]"), U_HALF)
    assert nested == plain
    # 2^(-1/2) up to roundoff: the last bits move with the basis width
    assert abs(plain["value"] - 0.5**0.5) <= 4 * np.finfo(float).eps


# the {2, -1} step: the hull of its range holds 0 and its smallest modulus is 1
GAPPED_STEP = _arcs("[2, 0]", "[-1, 0]")


@pytest.mark.parametrize(
    "inner, symbol, quantity",
    [
        (None, '{"kind": "laurent", "offset": 0, "coeffs": [[0, 2]]}', "m(D_phi)"),
        (U_HALF, Q, "m(D_phi)"),
        (U_HALF, '{"kind": "laurent", "offset": 0, "coeffs": [[0.3, 0], [1, 0]]}', "m(B_phi)"),
        (None, '{"kind": "laurent", "offset": -1, "coeffs": [[1, 0], [3, 0], [1, 0]]}', "m(D_phi)"),
        (U_HALF, GAPPED_STEP, "m(D_phi)"),
    ],
    ids=["constant", "unimodular", "analytic-corner", "normal-bounds-meet", "gapped-step"],
)
def test_minmod_csv_and_json_carry_the_same_report(capsys, inner, symbol, quantity):
    argv = ["minmod", "--symbol", symbol] + (["--inner", inner] if inner else [])
    assert main(argv + ["--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert main(argv + ["--format", "csv"]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header.split(",") == list(rep) == list(REPORT_KEYS)
    assert row.split(",") == [_fmt(v) for v in rep.values()]
    assert rep["quantity"] == quantity
    if symbol == GAPPED_STEP:
        assert (rep["method"], rep["lower"], rep["upper"], rep["value"]) == ("bounds", 0.0, 1.0, 0.0)
