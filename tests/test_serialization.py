import json

import numpy as np
import pytest

from dttokit import (
    BlaschkeProduct,
    BlaschkeQuotient,
    Conjugate,
    LaurentPoly,
    PiecewiseArcs,
    SumConst,
    blaschke_from_json,
    blaschke_to_json,
    symbol_from_json,
    symbol_to_json,
)


def _round_trip(phi):
    return symbol_from_json(json.loads(json.dumps(symbol_to_json(phi))))


def test_laurent_round_trip():
    phi = LaurentPoly(-2, [1.0, 0.5j, -0.25])
    back = _round_trip(phi)
    assert isinstance(back, LaurentPoly)
    assert back.offset == -2
    assert np.array_equal(back.coeffs, phi.coeffs)


def test_blaschke_quotient_round_trip():
    phi = BlaschkeQuotient(1j, -1, (0.5, 0.2 - 0.1j))
    back = _round_trip(phi)
    assert isinstance(back, BlaschkeQuotient)
    assert back.constant == 1j and back.z_power == -1
    assert back.zeros == phi.zeros


def test_nested_conjugate_sum_round_trip():
    phi = SumConst(Conjugate(BlaschkeQuotient(1.0, 1, (0.3,))), 2 - 1j)
    back = _round_trip(phi)
    assert isinstance(back, SumConst) and back.constant == 2 - 1j
    assert isinstance(back.term, Conjugate)


def test_piecewise_round_trip():
    phi = PiecewiseArcs(((0.0, np.pi, 1.0), (np.pi, 2 * np.pi, -1.0)))
    back = _round_trip(phi)
    assert isinstance(back, PiecewiseArcs)
    assert len(back.arcs) == 2
    assert back.arcs[0][2] == 1.0 and back.arcs[1][2] == -1.0


def test_schema_field_names():
    doc = symbol_to_json(BlaschkeQuotient(1.0, -1, (0.5,)))
    assert doc == {
        "kind": "blaschke_quotient",
        "constant": [1.0, 0.0],
        "z_power": -1,
        "zeros": [[0.5, 0.0]],
    }
    doc2 = symbol_to_json(LaurentPoly(1, [1.0]))
    assert doc2 == {"kind": "laurent", "offset": 1, "coeffs": [[1.0, 0.0]]}
    # Laurent polynomials are stored, and so re-emitted, from their first
    # nonzero coefficient to their last; the zero polynomial sits at index 0
    padded = {"kind": "laurent", "offset": -1, "coeffs": [[0, 0], [2, 0], [0, 0], [0, 1], [0, 0]]}
    assert symbol_to_json(symbol_from_json(padded)) == {
        "kind": "laurent", "offset": 0, "coeffs": [[2.0, 0.0], [0.0, 0.0], [0.0, 1.0]]
    }
    zero = {"kind": "laurent", "offset": 3, "coeffs": [[0, 0], [0, 0]]}
    assert symbol_to_json(symbol_from_json(zero)) == {"kind": "laurent", "offset": 0, "coeffs": [[0.0, 0.0]]}
    arcs = symbol_to_json(PiecewiseArcs(((0.0, np.pi, 1.0), (np.pi, 2 * np.pi, -1.0))))
    assert arcs["kind"] == "piecewise"
    assert set(arcs["arcs"][0]) == {"from", "to", "value"}


def test_symbol_json_rejects_garbage():
    with pytest.raises(ValueError):
        symbol_from_json({"no_kind": 1})
    with pytest.raises(ValueError):
        symbol_from_json({"kind": "mystery"})
    with pytest.raises(ValueError):
        symbol_from_json({"kind": "laurent", "offset": 0, "coeffs": [[1.0]]})


def test_blaschke_round_trip():
    u = BlaschkeProduct(1j, (0.5, -0.3j))
    back = blaschke_from_json(json.loads(json.dumps(blaschke_to_json(u))))
    assert back.unimodular_constant == 1j
    assert back.zeros == u.zeros


def test_blaschke_accepts_quotient_form_with_nonnegative_power():
    u = blaschke_from_json({"kind": "blaschke_quotient", "z_power": 2, "zeros": [[0.5, 0.0]]})
    assert u.degree == 3
    assert u.zeros.count(0.0 + 0.0j) == 2
    with pytest.raises(ValueError):
        blaschke_from_json({"kind": "blaschke_quotient", "z_power": -1, "zeros": []})

