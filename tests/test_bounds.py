from __future__ import annotations

import warnings

import numpy as np
import pytest

from adaptstab.bounds import (
    ResourceProfile,
    approximate_tolerance_table,
    check_adaptive_weight,
    check_clifford_adaptive,
    check_correlation,
    check_nonadaptive,
    weight_checks,
)
from adaptstab.circuit import AdaptiveCircuit, Gate, Geometry, depth, g_value, ghz_adaptive
from adaptstab.densesim import dicke_correlation_formula, make_state
from adaptstab.errors import ResourceGuardError
from adaptstab.metrics import WeightVector, global_correlation, min_weight_generators
from adaptstab.prep import verify_preparation
from adaptstab.tableau import ghz_state, random_stabilizer_state
from helpers_bounds import reference_tolerance_table


def test_profile_validation():
    p = ResourceProfile(n=4, m=7, K=2, L=3)
    assert p.n_a == 3
    with pytest.raises(ValueError):
        ResourceProfile(n=5, m=4, K=2, L=1)
    with pytest.raises(ValueError):
        ResourceProfile(n=4, m=4, K=2, L=-1)
    with pytest.raises(ValueError):
        ResourceProfile(n=4, m=4, K=1, L=1)


def test_profile_from_circuit():
    c = ghz_adaptive(16, 4, 2)
    p = ResourceProfile.from_circuit(c, 16)
    assert (p.n, p.m, p.n_a) == (16, 19, 3)
    assert p.K == 2
    assert p.L == depth(c)


def test_profile_from_invalid_circuit_rejected():
    bad = AdaptiveCircuit(2, 0, [[Gate("CNOT", (0, 0))]])
    with pytest.raises(ValueError, match="invalid circuit"):
        ResourceProfile.from_circuit(bad, 2)


def test_nonadaptive_ghz_fanout_tree_tight_at_powers_of_two():
    # A fan-out tree reaches GHZ_n in ceil(log2 n) layers of 2-qubit gates.
    for n in (4, 8, 16):
        L = int(np.ceil(np.log2(n)))
        p = ResourceProfile(n=n, m=n, K=2, L=L)
        wts = WeightVector((n,) + (2,) * (n - 1))
        rec = check_nonadaptive(p, wts[0])
        assert rec["satisfied"]
        assert rec["lhs"] == rec["rhs"] == n
    # One layer short of the tree cannot reach weight n.
    p = ResourceProfile(n=8, m=8, K=2, L=2)
    assert not check_nonadaptive(p, 8)["satisfied"]


def test_nonadaptive_bell_and_guard():
    rec = check_nonadaptive(ResourceProfile(n=2, m=2, K=2, L=1), 2)
    assert rec["satisfied"] and rec["lhs"] == 2
    with pytest.raises(ValueError, match="n_a = 0"):
        check_nonadaptive(ResourceProfile(n=2, m=3, K=2, L=1), 2)


def test_adaptive_weight_on_ghz_circuit():
    c = ghz_adaptive(16, 4, 2)
    p = ResourceProfile.from_circuit(c, 16)
    rec = check_adaptive_weight(p, 16)
    assert rec["satisfied"]
    assert rec["lhs"] == (p.n_a + 1) * 2 ** (2 * p.L - 1)
    assert rec["profile"]["n_a"] == 3


def test_adaptive_weight_warns_without_ancillas():
    # The n_a = 0 case is loose but legal: the check returns its record and
    # raises no warning.
    p = ResourceProfile(n=8, m=8, K=2, L=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = check_adaptive_weight(p, 8)
    assert rec["lhs"] == 2 ** (2 * 3 - 1)


def test_bound_checks_raise_no_warning_at_zero_ancillas():
    p = ResourceProfile(n=8, m=8, K=2, L=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = check_adaptive_weight(p, 8)
        vector, recs = weight_checks(p, ghz_state(8), (check_adaptive_weight,))
        report = verify_preparation(ghz_adaptive(8, 8, 2), ghz_state(8))
    assert rec == {
        "check": "adaptive_weight",
        "lhs": 32,
        "rhs": 8,
        "satisfied": True,
        "profile": {"n": 8, "m": 8, "n_a": 0, "K": 2, "L": 3, "geometry": "all"},
        "conjectured": {"lhs": 8, "rhs": 8, "satisfied": True},
    }
    assert list(vector.entries) == [8, 2, 2, 2, 2, 2, 2, 2] and recs == [rec]
    profile = {"n": 8, "m": 8, "n_a": 0, "K": 2, "L": 4, "geometry": "all"}
    assert report == {
        "n": 8,
        "m": 8,
        "n_a": 0,
        "depth": 4,
        "random_trials": 20,
        "branches": 1,
        "realizable": 1,
        "all_match": True,
        "counterexample": None,
        "unsupported": None,
        "bounds": [
            {
                "check": "adaptive_weight",
                "lhs": 128,
                "rhs": 8,
                "satisfied": True,
                "profile": profile,
                "conjectured": {"lhs": 16, "rhs": 8, "satisfied": True},
            },
            {"check": "clifford_adaptive", "lhs": 16, "rhs": 8, "satisfied": True, "profile": profile},
        ],
    }


def test_adaptive_weight_conjectured_field_is_advisory():
    # Choose a weight between K^L-scale and K^(2L-1)-scale so the proven
    # form passes while the conjectured sharper form fails.
    p = ResourceProfile(n=12, m=13, K=2, L=2)
    rec = check_adaptive_weight(p, 10)
    assert rec["satisfied"]  # 2 * 2^3 = 16 >= 10
    assert rec["conjectured"] == {"lhs": 8, "rhs": 10, "satisfied": False}


def test_adaptive_weight_grid_geometry():
    g = Geometry.grid(1)
    p = ResourceProfile(n=20, m=22, K=2, L=2, geometry=g)
    rec = check_adaptive_weight(p, 15)
    assert rec["lhs"] == 3 * g_value(2, 3, g) == 3 * 7
    assert rec["satisfied"]
    assert not check_adaptive_weight(p, 22)["satisfied"]


def test_nonadaptive_implies_adaptive_weight():
    # With n_a = 0 and the same depth, the adaptive form is weaker:
    # g(K, L) >= wt forces (0 + 1) * g(K, 2L-1) >= wt.
    rng = np.random.default_rng(7)
    for _ in range(50):
        K = int(rng.integers(2, 4))
        L = int(rng.integers(1, 5))
        p = ResourceProfile(n=30, m=30, K=K, L=L)
        wt = int(rng.integers(1, 30))
        if check_nonadaptive(p, wt)["satisfied"]:
            assert check_adaptive_weight(p, wt)["satisfied"]


def test_clifford_adaptive():
    p = ResourceProfile(n=7, m=13, K=2, L=3)
    rec = check_clifford_adaptive(p, 4)
    assert rec["satisfied"] and rec["lhs"] == 7 * 8
    # Falsified profile: pretend the same circuit ran in depth 0 without ancillas.
    lied = ResourceProfile(n=7, m=7, K=2, L=0)
    assert not check_clifford_adaptive(lied, 4)["satisfied"]


def test_correlation_check_and_guards():
    c = ghz_adaptive(8, 2, 2)
    p = ResourceProfile.from_circuit(c, 8)
    rec = check_correlation(p, 1, 8.0)
    assert rec["satisfied"]
    assert rec["lhs"] == (p.n_a + 1) * 2 ** (2 * p.L - 1)
    with pytest.raises(ValueError):
        check_correlation(p, 0, 1.0)
    with pytest.raises(ValueError, match="disjoint"):
        check_correlation(p, 5, 1.0)
    # w = n/2 is the largest admissible block size.
    assert check_correlation(p, 4, 8.0)["check"] == "correlation"


def test_ghz_circuits_satisfy_all_applicable_bounds():
    for n, a, K in [(8, 2, 2), (8, 4, 2), (16, 4, 2), (9, 3, 3)]:
        p = ResourceProfile.from_circuit(ghz_adaptive(n, a, K), n)
        assert check_adaptive_weight(p, n)["satisfied"]
        assert check_clifford_adaptive(p, n)["satisfied"]
        assert check_correlation(p, 1, float(n))["satisfied"]


def test_weight_checks_vector_is_the_generators_weights():
    # weight_checks reads the weights of the greedy's classes and multiplies
    # out no generator; the generators min_weight_generators builds from the
    # same picks must weigh the same.
    targets = [random_stabilizer_state(n, seed) for n in range(1, 13) for seed in range(3)]
    for t in targets + [ghz_state(16), ghz_state(20)]:
        vector, records = weight_checks(ResourceProfile(n=t.n, m=t.n, K=2, L=1), t, ())
        picked, generator_vector = min_weight_generators(t)
        assert records == []
        assert vector == generator_vector == WeightVector(tuple(p.weight() for p in picked))


def test_tolerance_table_ghz():
    row = approximate_tolerance_table("ghz:6")
    assert row["formula"] == "1/36"
    assert row["formula_value"] == pytest.approx(1 / 36, abs=0)
    assert row["delta_formula"] == 1.0
    assert row["tolerance_computed"] == pytest.approx(1 / 36, abs=1e-12)
    # Consistency with the metrics module it quotes.
    assert row["delta_computed"] == pytest.approx(global_correlation(make_state("ghz", 6)), abs=0)


def test_tolerance_table_hypergraph_reports_both_routes():
    n = 6
    row = approximate_tolerance_table(f"hypergraph:{n}")
    assert row["formula_value"] == pytest.approx(1 / (9 * 4**n), abs=0)
    assert row["delta_computed"] == pytest.approx(2.0 ** (2 - n), abs=1e-12)
    assert row["tolerance_computed"] == pytest.approx(row["delta_computed"] ** 2 / 36, abs=0)
    # The quoted closed form uses a smaller delta than the computed optimum,
    # so the two tolerances differ by a constant factor; both are reported.
    assert row["tolerance_computed"] > row["formula_value"]


def test_tolerance_table_dicke_and_w():
    row = approximate_tolerance_table("dicke:8:2")
    assert row["k"] == 2
    assert row["delta_formula"] == pytest.approx(dicke_correlation_formula(8, 2, 1), abs=0)
    roww = approximate_tolerance_table("w:6")
    assert roww["delta_formula"] == pytest.approx(4 / 36, abs=1e-15)
    assert roww["delta_computed"] == pytest.approx(2 / 6, abs=1e-9)


_TOLERANCE_ROWS = [(f"{family}:{n}", (family, n, None)) for family in ("ghz", "w", "hypergraph") for n in range(2, 17)] + [
    (f"dicke:{n}:{k}", ("dicke", n, k)) for n in range(2, 11) for k in range(n + 1)
]


def _row_or_error(table, *args):
    try:
        return table(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("compute", [True, False])
def test_tolerance_table_spec_rows_are_the_family_rows(monkeypatch, compute):
    # The table read (family, n, k) before it read specs; each spec's row must
    # be the row its family, size and excitation number gave (k = 0 and k = n
    # the same ValueError).
    monkeypatch.delenv("ADAPTSTAB_MAX_QUBITS", raising=False)
    for spec, (family, n, k) in _TOLERANCE_ROWS:
        want = _row_or_error(reference_tolerance_table, family, n, k, compute)
        assert _row_or_error(approximate_tolerance_table, spec, compute) == want, spec
    assert sum(isinstance(_row_or_error(approximate_tolerance_table, spec), str) for spec, _ in _TOLERANCE_ROWS) == 2 * 9


@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_tolerance_table_computes_up_to_the_dense_cap(monkeypatch, n):
    # Every family is permutation-symmetric, so the computed delta costs one
    # qubit pair; only the dense state's own cap applies.
    monkeypatch.delenv("ADAPTSTAB_MAX_QUBITS", raising=False)
    for spec, state in ((f"ghz:{n}", ("ghz", n)), (f"w:{n}", ("w", n)), (f"dicke:{n}:2", ("dicke", n, 2)), (f"hypergraph:{n}", ("hypergraph", n))):
        assert approximate_tolerance_table(spec)["delta_computed"] == global_correlation(make_state(*state)), spec


def test_tolerance_table_compute_stops_at_the_dense_cap(monkeypatch):
    monkeypatch.delenv("ADAPTSTAB_MAX_QUBITS", raising=False)
    for spec in ("ghz:17", "w:17", "dicke:17:2", "hypergraph:17"):
        with pytest.raises(ResourceGuardError, match="^dense simulation of 17 qubits exceeds the cap of 16"):
            approximate_tolerance_table(spec)


@pytest.mark.parametrize("n", [511, 512, 537, 538, 600, 10**400])
def test_tolerance_table_hypergraph_formula_past_the_float_range(monkeypatch, n):
    # 4.0**n overflows from n = 512, and 2.0**-n from n ~ 1e308; below those
    # the closed forms equal the exact and float expressions, above them 0.0.
    monkeypatch.delenv("ADAPTSTAB_MAX_QUBITS", raising=False)
    row = approximate_tolerance_table(f"hypergraph:{n}", compute=False)
    assert row["formula_value"] == (1 / (9 * 4**n) if n < 5000 else 0.0)
    assert row["delta_formula"] == (2.0 ** (2 - n) * (1.0 - 2.0 ** (2 - n)) if n < 5000 else 0.0)
    assert row["delta_computed"] is None
    with pytest.raises(ResourceGuardError, match=f"^dense simulation of {n} qubits"):
        approximate_tolerance_table(f"hypergraph:{n}")


def test_tolerance_table_hypergraph_formula_is_the_float_form_below_the_overflow():
    for n in range(2, 511):
        assert approximate_tolerance_table(f"hypergraph:{n}", False) == reference_tolerance_table("hypergraph", n, compute=False), n


def test_tolerance_table_guards():
    with pytest.raises(ValueError, match="^unknown state family 'cluster'"):
        approximate_tolerance_table("cluster:4")
    with pytest.raises(ValueError, match="^state spec 'dicke:6' does not have the form dicke:N:K$"):
        approximate_tolerance_table("dicke:6")
    with pytest.raises(ValueError, match="^the tolerance table has no row for state family 'plus'$"):
        approximate_tolerance_table("plus:4")
    with pytest.raises(ValueError, match="^need n >= 2$"):
        approximate_tolerance_table("ghz:1")
    with pytest.raises(ValueError, match="^dicke needs 0 < k < n$"):
        approximate_tolerance_table("dicke:6:6")
    with pytest.raises(ResourceGuardError):
        approximate_tolerance_table("ghz:40")
    row = approximate_tolerance_table("ghz:40", compute=False)
    assert row["delta_computed"] is None and row["tolerance_computed"] is None
