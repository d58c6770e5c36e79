"""Weight vectors, correlation estimators, anti-shallowness, lemma sweeps."""

from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest

from adaptstab import densesim as ds
from adaptstab import metrics as mt
from adaptstab.errors import ResourceGuardError
from adaptstab.pauli import format_pauli, parse_pauli
from adaptstab.tableau import (
    apply_gate,
    from_stabilizers,
    ghz_state,
    is_stabilized_by,
    random_stabilizer_state,
    zero_state,
)
from helpers_checks import (
    correlation_continuity_check,
    flip_generator_sign,
    group_elements,
    lemma1_check,
    local_indistinguishable,
)


def ghz_tableau(n):
    t = zero_state(n)
    apply_gate(t, "H", (0,))
    for q in range(1, n):
        apply_gate(t, "CNOT", (0, q))
    return t


def steane_state_tableau():
    supports = [(0, 2, 4, 6), (1, 2, 5, 6), (3, 4, 5, 6)]
    gens = []
    for letter in "XZ":
        for sup in supports:
            gens.append(
                parse_pauli(
                    "+" + "".join(letter if q in sup else "I" for q in range(7))
                )
            )
    gens.append(parse_pauli("+ZZZZZZZ"))
    return from_stabilizers(gens)


def test_weight_vector_ordering():
    v = mt.WeightVector((2, 4, 2, 2))
    assert v.entries == (4, 2, 2, 2)
    assert v[0] == 4 and len(v) == 4
    assert mt.WeightVector((2, 2, 2)) < mt.WeightVector((3, 1, 1))
    assert mt.WeightVector((3, 1, 1)) < mt.WeightVector((3, 2, 1))
    assert mt.WeightVector((3, 2, 1)) <= mt.WeightVector((3, 2, 1))
    with pytest.raises(ValueError):
        mt.WeightVector((0, 1))
    with pytest.raises(ValueError):
        mt.WeightVector((3,))  # entry exceeds length


def test_group_elements():
    t = ghz_tableau(3)
    elems = group_elements(t)
    assert len(elems) == 7
    assert all(is_stabilized_by(t, e) == 1 for e in elems)


def test_min_weight_generators_families():
    for n in range(3, 9):
        gens, vec = mt.min_weight_generators(ghz_tableau(n))
        assert vec.entries == (n,) + (2,) * (n - 1)
        assert mt.stabilizer_weight(ghz_tableau(n)) == n
        t = ghz_tableau(n)
        assert all(is_stabilized_by(t, g) == 1 for g in gens)
    assert mt.min_weight_generators(ghz_tableau(2))[1].entries == (2, 2)
    for n in (2, 5):
        assert mt.min_weight_generators(zero_state(n))[1].entries == (1,) * n
        assert mt.stabilizer_weight(zero_state(n)) == 1


def test_steane_logical_zero_weight():
    assert mt.stabilizer_weight(steane_state_tableau()) == 4


def test_weight_vector_oracle():
    t4 = ghz_tableau(4)
    assert mt.weight_vector_oracle(t4, 1) == 4
    assert mt.weight_vector_oracle(t4, 4) == 2
    assert [mt.weight_vector_oracle(t4, k) for k in (1, 2, 3, 4)] == [4, 2, 2, 2]
    with pytest.raises(ValueError):
        mt.weight_vector_oracle(t4, 0)


def test_greedy_matches_oracle_random_states():
    for s in range(60):
        n = 2 + s % 5
        t = random_stabilizer_state(n, seed=1000 + s)
        _, vec = mt.min_weight_generators(t)
        assert vec.entries == tuple(
            mt.weight_vector_oracle(t, k) for k in range(1, n + 1)
        )


def test_weight_invariant_under_local_cliffords():
    for s in range(20):
        n = 3 + s % 3
        t = random_stabilizer_state(n, seed=s)
        w0 = mt.stabilizer_weight(t)
        rng = np.random.default_rng(s)
        t2 = t.copy()
        for q in range(n):
            for g in rng.choice(["H", "S", "X", "Z"], size=2):
                apply_gate(t2, str(g), (q,))
        assert mt.stabilizer_weight(t2) == w0


def pauli_correlation_strength(s, region):
    """min over qubit pairs in the region of the best single-site Pauli |Cor|."""
    return mt.correlation_strength_w(s, region, 1).value


def test_pauli_correlation_strength():
    for n in (3, 5, 8):
        assert pauli_correlation_strength(ds.ghz(n), range(n)) == pytest.approx(
            1.0, abs=1e-12
        )
    assert pauli_correlation_strength(ds.plus_state(4), range(4)) == pytest.approx(
        0.0, abs=1e-12
    )
    # max over letter pairs: XX reaches 2/n on the W state, beating ZZ's 4/n^2
    assert pauli_correlation_strength(ds.w_state(6), range(6)) == pytest.approx(
        1 / 3, abs=1e-12
    )
    with pytest.raises(ValueError, match="region cannot hold two disjoint size-w subsets"):
        pauli_correlation_strength(ds.ghz(3), [1])


def test_global_correlation_values():
    for n in (3, 6):
        assert mt.global_correlation(ds.ghz(n)) == pytest.approx(1.0, abs=1e-12)
    for n in (3, 4, 5, 6):
        # XZ / ZX / YY pairs all reach 2^(2-n), above the XX value
        assert mt.global_correlation(ds.hypergraph(n)) == pytest.approx(
            2.0 ** (2 - n), abs=1e-10
        )
    assert mt.global_correlation(ds.basis_state("0101")) == pytest.approx(0.0, abs=1e-12)


def global_correlation_reports(s, restarts, seed):
    full = range(s.n)
    return (
        mt.correlation_strength_w(s, full, 1, "pauli-enum"),
        mt.correlation_strength_w(s, full, 1, "alternating-sign", restarts, seed),
    )


def test_method_reports_and_dominance():
    for state in (ds.ghz(4), ds.hypergraph(4), ds.w_state(5)):
        pauli, alt = global_correlation_reports(state, restarts=4, seed=7)
        assert pauli.method == "pauli-enum" and alt.method == "alternating-sign"
        assert pauli.value <= alt.value + 1e-9
    pauli, alt = global_correlation_reports(ds.ghz(5), restarts=2, seed=0)
    assert alt.value == pytest.approx(1.0, abs=1e-9)
    # the ascent genuinely beats Pauli strings on hypergraph pairs
    pauli, alt = global_correlation_reports(ds.hypergraph(4), restarts=4, seed=0)
    assert alt.value > pauli.value + 0.05


def test_pauli_correlation_range():
    assert mt.pauli_correlation_range(ds.ghz(6)) == 6
    assert mt.pauli_correlation_range(ds.w_state(6)) == 6
    assert mt.pauli_correlation_range(ds.basis_state("00000")) == 1
    assert mt.pauli_correlation_range(ds.plus_state(4)) == 1


def test_correlation_strength_w():
    r = mt.correlation_strength_w(ds.ghz(6), range(6), 1)
    assert r.value == pytest.approx(1.0, abs=1e-12)
    assert r.w == 1 and r.method == "pauli-enum"
    r = mt.correlation_strength_w(ds.w_state(8), range(8), 2)
    assert r.value == pytest.approx(4 * 4 / 64, abs=1e-10)
    assert set(r.pair) == {"a1", "a2", "o1", "o2"}
    # Z-products are a lower bound for the string max on Dicke states
    formula = ds.dicke_correlation_formula(8, 2, 2)
    r = mt.correlation_strength_w(ds.dicke(8, 2), range(8), 2)
    assert r.value >= formula - 1e-12
    assert mt.correlation_strength_w(ds.plus_state(4), range(4), 2).value == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(ValueError):
        mt.correlation_strength_w(ds.ghz(4), range(4), 3)  # region too small
    with pytest.raises(ResourceGuardError):
        mt.correlation_strength_w(ds.ghz(8), range(8), 4)
    with pytest.raises(ValueError):
        mt.correlation_strength_w(ds.ghz(4), range(4), 1, method="magic")


@pytest.mark.parametrize("region,bad", [((0, 9), 9), ((0, -1), -1), ((-1, 0, 1, 2), -1)])
def test_correlation_strength_w_rejects_region_outside_register(region, bad, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built an RDM before checking the region")

    monkeypatch.setattr(mt, "_rdm", refuse)
    with pytest.raises(ValueError, match=rf"^region qubit {bad} outside 0\.\.3$"):
        mt.correlation_strength_w(ds.ghz(4), region, 1)


@pytest.mark.parametrize(
    "call,name,limit,value,message",
    [
        (lambda: mt.min_weight_generators(ghz_state(21)), "group_table", 20, 21, "group enumeration capped at n <= 20, got n = 21"),
        (lambda: mt.weight_vector_oracle(ghz_state(15), 1), "oracle", 14, 15, "rank-sweep oracle capped at n <= 14, got n = 15"),
        (lambda: mt.correlation_strength_w(ds.ghz(8), range(8), 4), "pauli_enum_w", 3, 4, "pauli-enum supports w <= 3, got w = 4"),
        (lambda: mt.correlation_range_w(ds.ghz(13), 2, 0.1), "subset_scan", 12, 13, "subset scan capped at n <= 12, got n = 13"),
        (lambda: ds.make_state("ghz", 17), "dense", 16, 17, "dense simulation of 17 qubits exceeds the cap of 16 (set ADAPTSTAB_MAX_QUBITS to override)"),
        (lambda: random_stabilizer_state(65, seed=0), "random_state", 64, 65, "random_stabilizer_state supports n <= 64, got n = 65"),
    ],
    ids=["group_table", "oracle", "pauli_enum_w", "subset_scan", "dense", "random_state"],
)
def test_resource_guards_name_their_cap(monkeypatch, call, name, limit, value, message):
    monkeypatch.delenv("ADAPTSTAB_MAX_QUBITS", raising=False)
    with pytest.raises(ResourceGuardError, match=f"^{re.escape(message)}$") as info:
        call()
    assert (info.value.name, info.value.limit, info.value.value) == (name, limit, value)


def test_correlation_range_w():
    assert mt.correlation_range_w(ds.ghz(6), 1, 0.5) == 6
    assert mt.correlation_range_w(ds.ghz(6), 1, 2.0) == 1
    w8 = ds.w_state(8)
    sweep = [mt.correlation_range_w(w8, 1, d) for d in (0.0, 0.2, 0.26, 1.5)]
    assert sweep == sorted(sweep, reverse=True)
    assert mt.correlation_range_w(w8, 1, 0.2) <= mt.correlation_range_w(w8, 2, 0.2)


@pytest.mark.parametrize("bad,shown", [(-1.0, "-1.0"), (-1e-12, "-1e-12"), (float("nan"), "nan")])
def test_correlation_ranges_reject_a_negative_or_nan_threshold(bad, shown):
    message = f"^correlation threshold must be >= 0, got {re.escape(shown)}$"
    for s in (ds.basis_state("0"), ds.basis_state("0000"), ds.ghz(6)):
        with pytest.raises(ValueError, match=message):
            mt.pauli_correlation_range(s, bad)
        for w in (1, 2):
            with pytest.raises(ValueError, match=message):
                mt.correlation_range_w(s, w, bad)


def test_correlation_ranges_take_an_infinite_threshold():
    # No pair value exceeds inf, so every state reads as range 1.
    inf = float("inf")
    assert mt.pauli_correlation_range(ds.ghz(6), inf) == 1
    assert mt.correlation_range_w(ds.ghz(6), 1, inf) == mt.correlation_range_w(ds.w_state(6), 2, inf) == 1
    assert mt.pauli_correlation_range(ds.basis_state("0000"), 0.0) == 1


def test_anti_shallowness_lower():
    for n in (3, 6):
        assert mt.anti_shallowness_lower(ds.ghz(n)) == pytest.approx(
            math.log2(36 / 35), abs=1e-12
        )
    assert mt.anti_shallowness_lower(ds.basis_state("000")) == pytest.approx(
        0.0, abs=1e-12
    )
    for n in (3, 5):
        cor = 2.0 ** (2 - n)
        assert mt.anti_shallowness_lower(ds.hypergraph(n)) == pytest.approx(
            -math.log2(1 - cor**2 / 36), abs=1e-10
        )


def test_anti_shallowness_upper():
    for n in (3, 7):
        g = ds.ghz(n)
        assert mt.anti_shallowness_upper(g, [ds.basis_state("0" * n)]) == pytest.approx(
            1.0, abs=1e-12
        )
        assert mt.anti_shallowness_upper(g, [g]) == pytest.approx(0.0, abs=1e-12)
    for n in (3, 6):
        h = ds.hypergraph(n)
        got = mt.anti_shallowness_upper(h, [ds.plus_state(n)])
        overlap = 1 - 2.0 ** (1 - n)
        assert got == pytest.approx(-2 * math.log2(overlap), abs=1e-12)
    with pytest.raises(ValueError):
        mt.anti_shallowness_upper(ds.ghz(3))


def test_anti_shallowness_product_search():
    val = mt.anti_shallowness_upper(ds.ghz(5), [], product_search=True, restarts=6, seed=2)
    assert val == pytest.approx(1.0, abs=1e-9)
    h = ds.hypergraph(5)
    via_plus = mt.anti_shallowness_upper(h, [ds.plus_state(5)])
    via_search = mt.anti_shallowness_upper(h, [], product_search=True, restarts=6, seed=2)
    assert via_search <= via_plus + 1e-9  # the search can only tighten the bound
    assert mt.anti_shallowness_lower(h) <= via_search + 1e-9


def test_anti_shallowness_continuity():
    assert mt.anti_shallowness_continuity(-1.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert mt.anti_shallowness_continuity(-1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    grid = np.linspace(0, 1, 41)
    vals = [mt.anti_shallowness_continuity(-1.0, float(e)) for e in grid]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(v >= 0 for v in vals)
    with pytest.raises(ValueError):
        mt.anti_shallowness_continuity(-1.0, 1.5)


def test_correlation_continuity_check():
    g = ds.ghz(6)
    assert correlation_continuity_check(
        g, g, ds.pauli_op([0], "Z"), ds.pauli_op([5], "Z")
    )
    th = 0.1
    rot = ds.SupportedOperator(
        (2,), np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    )
    g2 = ds.StateVector(6, ds.apply_supported(g, rot))
    assert correlation_continuity_check(
        g, g2, ds.pauli_op([0], "Z"), ds.pauli_op([5], "Z")
    )
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(3, 6))
        s1 = ds.from_amplitudes(rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
        s2 = ds.from_amplitudes(
            s1.amps + 0.15 * (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
        )
        i, j = rng.choice(n, size=2, replace=False)
        o1 = ds.pauli_op([int(i)], str(rng.choice(list("XYZ"))))
        o2 = ds.pauli_op([int(j)], str(rng.choice(list("XYZ"))))
        assert correlation_continuity_check(s1, s2, o1, o2)
    with pytest.raises(ValueError):
        correlation_continuity_check(
            g, g, ds.SupportedOperator((0,), 2 * np.eye(2)), ds.pauli_op([1], "Z")
        )


def test_flip_sign_and_local_indistinguishability():
    gens, vec = mt.min_weight_generators(ghz_tableau(4))
    t1 = from_stabilizers(gens)
    flip_at = max(range(4), key=lambda i: gens[i].weight())
    assert format_pauli(gens[flip_at]) == "+XXXX"
    t2 = flip_generator_sign(t1, flip_at)
    assert is_stabilized_by(t2, parse_pauli("+XXXX")) == -1
    assert local_indistinguishable(t1, t2, 3)
    assert not local_indistinguishable(t1, t2, 4)
    one = zero_state(1)
    apply_gate(one, "X", (0,))
    assert not local_indistinguishable(zero_state(1), one, 1)
    with pytest.raises(IndexError):
        flip_generator_sign(t1, 9)


def test_lemma1_weight_growth():
    x0 = parse_pauli("+XII")
    assert lemma1_check(x0, [("CNOT", (0, 1))], 2)
    assert lemma1_check(parse_pauli("+XYZ"), [], 2)  # identity layer
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(2, 6)
        K = rng.choice([2, 3])
        qubits = list(range(n))
        rng.shuffle(qubits)
        layer = []
        while qubits:
            k = rng.randint(1, min(K, len(qubits)))
            qs, qubits = tuple(qubits[:k]), qubits[k:]
            if k == 1:
                layer.append((rng.choice(["H", "S", "X", "Z"]), qs))
            elif k == 2:
                layer.append((rng.choice(["CZ", "SWAP", "CNOT"]), qs))
            else:
                layer.append(("CNOT", qs))
        p = parse_pauli("+" + "".join(rng.choice("IXYZ") for _ in range(n)))
        assert lemma1_check(p, layer, K)
    with pytest.raises(ValueError):
        lemma1_check(x0, [("CNOT", (0, 1, 2))], 2)
    with pytest.raises(ValueError):
        lemma1_check(x0, [("H", (0,)), ("CNOT", (0, 1))], 2)


def test_lemma2_bound():
    assert mt.lemma2_check(ghz_tableau(6))
    assert mt.lemma2_check(zero_state(5))
    for s in range(30):
        assert mt.lemma2_check(random_stabilizer_state(2 + s % 7, seed=s))
    # No cap of its own: the dense state's cap (n <= 16) is the limit.
    for n in range(13, 17):
        assert mt.lemma2_check(random_stabilizer_state(n, seed=n))
    with pytest.raises(ResourceGuardError, match="^dense simulation of 17 qubits"):
        mt.lemma2_check(zero_state(17))
