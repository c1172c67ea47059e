"""Command-line front end: single computations, sweeps, verification.

Exit codes: 0 success, 1 verification failure, 2 malformed input,
3 unsupported symbol class or over budget.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import Optional

from .fourier import (
    BlaschkeProduct,
    BudgetError,
    SymbolClassError,
    SymbolExpr,
    _check_tol,
    _fold_wrappers,
    blaschke_from_json,
    constant_value,
    is_analytic,
    is_unimodular,
    symbol_from_json,
)
from .minmod import (
    MinModReport,
    galerkin_sweep,
    min_modulus_corner,
    min_modulus_toeplitz_hankel,
    min_modulus_unimodular,
)
from .oracle import is_normal_sufficient_form, normal_dtto_bounds, _oracle_for

DEFAULT_TOL = 1e-9


def _load_json_arg(text: str) -> dict:
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    path = text[1:] if text.startswith("@") else text
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    raise ValueError(f"not inline JSON and not a readable file: {text!r}")


# ---------------------------------------------------------------------------
# dispatch


def dispatch_minmod(
    u: Optional[BlaschkeProduct], phi: SymbolExpr, tol: float = DEFAULT_TOL
) -> dict:
    """Route a minimum-modulus job to the most specific applicable method.

    Order: constant symbols resolve exactly; unimodular symbols use the
    finite model-space reduction (cross-checked against the corner-Gram
    route); analytic non-unimodular symbols fall back to the corner
    operator (the reported quantity is then m(B_phi)); symbols of the
    normal sufficient form get essential-range bounds.  The closed-form
    value, where one applies, is attached to the report as its oracle.
    """
    core, added, odd = _fold_wrappers(phi)
    if added == 0 and not odd:
        # the fold absorbed every wrapper: route on the core, so the
        # predicates below find nothing to rebuild
        phi = core
    oracle = _oracle_for(u, phi)

    c = constant_value(phi)
    if c is not None:
        rep = MinModReport(abs(c), "oracle")
    elif u is None and (is_unimodular(phi) or is_analytic(phi)):
        raise ValueError("this symbol class needs an inner function")
    elif is_unimodular(phi):
        rep = min_modulus_unimodular(u, phi, tol)
        cross = min_modulus_toeplitz_hankel(u, phi, tol)
        # compare on squares: the sqrt amplifies entry noise near zero
        gap = abs(rep.value**2 - cross.value**2)
        budget = 1e-7 + rep.entry_error_bound + cross.entry_error_bound
        if gap > budget:
            raise RuntimeError(
                f"dual-route disagreement: {rep.value} vs {cross.value} (gap {gap:.3g})"
            )
    elif is_analytic(phi):
        rep = min_modulus_corner(u, phi, tol)
    elif is_normal_sufficient_form(phi):
        lower, upper = normal_dtto_bounds(phi)
        rep = MinModReport(lower, "oracle" if lower == upper else "bounds", lower=lower, upper=upper)
    else:
        raise SymbolClassError(
            "no applicable method; supported classes: constant, unimodular "
            "(Blaschke quotients, conjugates, unimodular piecewise), analytic, "
            "real-valued plus constant"
        )
    if oracle is not None:
        rep = replace(rep, oracle_value=oracle)
    return rep.to_dict()


# ---------------------------------------------------------------------------
# commands


def _write_output(text: str, path: Optional[str]):
    text += "\n"
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"unwritable output: {type(exc).__name__}: {exc}") from exc


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def cmd_report(result, fmt: str, tol: float, output: Optional[str]) -> int:
    """Write a ``minmod`` report (a dict) or the ``sweep`` reports (a list):
    JSON as it is; CSV as a header of the report keys and one row per
    report, then a comment for each rise of the value by more than 2 tol."""
    if fmt == "json":
        _write_output(json.dumps(result, indent=2), output)
        return 0
    rows = result if isinstance(result, list) else [result]
    lines = [",".join(rows[0])] + [",".join(_fmt(v) for v in row.values()) for row in rows]
    for prev, cur in zip(rows, rows[1:]):
        if cur["value"] > prev["value"] + 2.0 * tol:
            lines.append(
                f"# monotonicity violation at N={cur['truncation']}: "
                f"+{cur['value'] - prev['value']:.3g} over N={prev['truncation']}"
            )
    _write_output("\n".join(lines), output)
    return 0


def cmd_verify(perturb_oracle: float) -> int:
    """Run the catalog: 1 if an item fails or the catalog raises, which is
    reported as one failed line; 2 for a non-finite shift."""
    if not math.isfinite(perturb_oracle):
        print(f"input error: --perturb-oracle must be finite, got {perturb_oracle!r}", file=sys.stderr)
        return 2
    from .verify import run_catalog

    try:
        failures = run_catalog(perturb_oracle=perturb_oracle)
    except Exception as exc:
        print(f"FAIL  catalog  {type(exc).__name__}: {exc}")
        return 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dttokit",
        description="Minimum moduli of truncated and dual truncated Toeplitz operators.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--inner", help="inner function as inline JSON or a file path")
        sp.add_argument("--symbol", help="symbol as inline JSON or a file path")
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
        sp.add_argument("--out", dest="output", help="output path (default: stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default=None)
        return sp

    common(sub.add_parser("minmod", help="compute one minimum modulus"))
    sweep = common(sub.add_parser("sweep", help="Galerkin convergence sweep (CSV)"))
    sweep.add_argument("--truncations", help="comma-separated increasing sizes, e.g. 8,16,32")
    v = sub.add_parser("verify", help="run the closed-form verification catalog")
    v.add_argument(
        "--perturb-oracle",
        type=float,
        default=0.0,
        help="shift every expected value (negative control; nonzero must fail)",
    )
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.perturb_oracle)
    try:
        try:
            inner = blaschke_from_json(_load_json_arg(args.inner)) if args.inner else None
            symbol = symbol_from_json(_load_json_arg(args.symbol)) if args.symbol else None
        except (OverflowError, OSError, RecursionError) as exc:
            # an infinite integer, an unreadable path or nesting too deep to parse
            raise ValueError(f"unreadable input: {type(exc).__name__}: {exc}") from exc
        truncs = [int(t) for t in (getattr(args, "truncations", None) or "").split(",") if t.strip()]
        _check_tol(args.tol)
        if any(b <= a for a, b in zip(truncs, truncs[1:])):
            raise ValueError("truncations must be strictly increasing")
        if symbol is None:
            raise ValueError("--symbol is required")
        if args.command == "minmod":
            rep = dispatch_minmod(inner, symbol, args.tol)
            return cmd_report(rep, args.format or "json", args.tol, args.output)
        if inner is None:
            raise ValueError("--inner is required")
        if not truncs:
            raise ValueError("--truncations is required for a sweep")
        oracle = _oracle_for(inner, symbol)
        reps = [
            replace(r, oracle_value=oracle).to_dict()
            for r in galerkin_sweep(inner, symbol, truncs, args.tol)
        ]
        return cmd_report(reps, args.format or "csv", args.tol, args.output)
    except BudgetError as exc:
        print(f"over budget: {exc}", file=sys.stderr)
        return 3
    except SymbolClassError as exc:
        print(f"unsupported symbol class: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
