"""Dense statevector layer: families, operators, correlators, fidelity."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from adaptstab import densesim as ds
from adaptstab.densesim import apply_pauli
from adaptstab.errors import ResourceGuardError
from adaptstab.pauli import parse_pauli
from adaptstab.tableau import apply_gate, random_stabilizer_state, zero_state

from helpers_dense import dense_pauli, embed_unitary


def test_family_amplitudes():
    g = ds.ghz(3)
    assert abs(g.amps[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(g.amps[7] - 1 / math.sqrt(2)) < 1e-15
    assert np.abs(g.amps[1:7]).max() == 0

    w = ds.w_state(3)
    # qubit 0 is the most significant index bit
    assert abs(w.amps[0b100] - 1 / math.sqrt(3)) < 1e-15
    assert abs(w.amps[0b010] - 1 / math.sqrt(3)) < 1e-15
    assert abs(w.amps[0b001] - 1 / math.sqrt(3)) < 1e-15
    assert abs(w.amps[0b101]) == 0

    d = ds.dicke(4, 2)
    hot = [i for i in range(16) if bin(i).count("1") == 2]
    for i in hot:
        assert abs(d.amps[i] - 1 / math.sqrt(6)) < 1e-15
    assert sum(abs(a) > 0 for a in d.amps) == 6

    h = ds.hypergraph(3)
    assert abs(h.amps[0] + 1 / math.sqrt(8)) < 1e-15
    assert np.allclose(h.amps[1:], 1 / math.sqrt(8))

    b = ds.basis_state("0101")
    assert b.amps[0b0101] == 1.0
    assert np.linalg.norm(ds.plus_state(5).amps) == pytest.approx(1.0)


def test_dicke_edge_cases():
    assert ds.fidelity(ds.dicke(4, 0), ds.basis_state("0000")) == pytest.approx(1.0)
    assert ds.fidelity(ds.dicke(4, 4), ds.basis_state("1111")) == pytest.approx(1.0)
    assert ds.fidelity(ds.dicke(5, 1), ds.w_state(5)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ds.dicke(4, 5)


def test_normalization_checks():
    s = ds.from_amplitudes([3, 4])
    assert abs(s.amps[0] - 0.6) < 1e-15
    with pytest.raises(ValueError):
        ds.StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ds.from_amplitudes([0, 0])
    with pytest.raises(ValueError):
        ds.from_amplitudes([1, 0, 0])  # not a power of two


def test_resource_guard(monkeypatch):
    monkeypatch.delenv("ADAPTSTAB_MAX_QUBITS", raising=False)
    with pytest.raises(ResourceGuardError):
        ds.ghz(17)
    monkeypatch.setenv("ADAPTSTAB_MAX_QUBITS", "17")
    assert ds.ghz(17).n == 17


def test_apply_pauli_matches_matrices():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        p = parse_pauli(
            rng.choice(["+", "-", "+i", "-i"])
            + "".join(rng.choice("IXYZ") for _ in range(n))
        )
        v = np.random.default_rng(rng.randrange(1 << 30)).normal(size=1 << n) + 1j
        out = ds.apply_pauli(v, p)
        assert np.allclose(out, dense_pauli(p) @ v, atol=1e-12)


def test_apply_supported_matches_embedding():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(3, n) + 1))
        support = tuple(rng.choice(n, size=k, replace=False).tolist())
        m = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        state = ds.StateVector(n, amps)
        got = ds.apply_supported(state, ds.SupportedOperator(support, m))
        assert np.allclose(got, embed_unitary(m, support, n) @ amps, atol=1e-11)


def test_expectation_values():
    assert ds.expectation(ds.basis_state("000"), ds.pauli_op([0], "Z")) == 1.0
    assert ds.expectation(ds.ghz(4), ds.pauli_op(range(4), "XXXX")) == pytest.approx(1.0)
    for n in (3, 5, 8):
        w = ds.w_state(n)
        for q in range(n):
            assert ds.expectation(w, ds.pauli_op([q], "Z")) == pytest.approx((n - 2) / n)
    with pytest.raises(ValueError):
        ds.expectation(ds.ghz(2), ds.SupportedOperator((0,), np.array([[0, 1], [0, 0]])))


def test_correlation_ghz_zz():
    for n in range(3, 9):
        g = ds.ghz(n)
        c = ds.correlation(g, ds.pauli_op([0], "Z"), ds.pauli_op([n - 1], "Z"))
        assert abs(c - 1.0) < 1e-12


def test_correlation_hypergraph_letter_pairs():
    # XX sits slightly below the extremal pairs (XZ, ZX, YY all reach 2^(2-n)).
    for n in range(3, 9):
        h = ds.hypergraph(n)
        xx = ds.correlation(h, ds.pauli_op([0], "X"), ds.pauli_op([1], "X"))
        assert abs(xx - 2 ** (2 - n) * (1 - 2 ** (2 - n))) < 1e-10
        yy = ds.correlation(h, ds.pauli_op([0], "Y"), ds.pauli_op([1], "Y"))
        assert abs(yy - 2 ** (2 - n)) < 1e-10
        xz = ds.correlation(h, ds.pauli_op([0], "X"), ds.pauli_op([1], "Z"))
        assert abs(xz + 2 ** (2 - n)) < 1e-10


def test_correlation_w_state_z_products():
    for n in (6, 8):
        w = ds.w_state(n)
        for wt in (1, 2):
            o1 = ds.pauli_op(range(wt), "Z" * wt)
            o2 = ds.pauli_op(range(wt, 2 * wt), "Z" * wt)
            assert abs(ds.correlation(w, o1, o2)) == pytest.approx(
                4 * wt * wt / n**2, abs=1e-12
            )


def test_correlation_validation_and_product_states():
    assert ds.correlation(
        ds.plus_state(4), ds.pauli_op([0], "X"), ds.pauli_op([3], "X")
    ) == pytest.approx(0.0, abs=1e-12)
    assert ds.correlation(
        ds.basis_state("0110"), ds.pauli_op([0], "Z"), ds.pauli_op([2], "Z")
    ) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        ds.correlation(ds.ghz(3), ds.pauli_op([0, 1], "XX"), ds.pauli_op([1], "Z"))
    with pytest.warns(UserWarning):
        ds.correlation(
            ds.ghz(3),
            ds.SupportedOperator((0,), 2 * np.eye(2)),
            ds.pauli_op([1], "Z"),
        )


def test_fidelity_known_overlaps():
    for n in (3, 5, 7):
        assert ds.fidelity(ds.ghz(n), ds.basis_state("0" * n)) == pytest.approx(0.5)
        f = ds.fidelity(ds.hypergraph(n), ds.plus_state(n))
        overlap = 1 - 2 ** (1 - n)
        assert f == pytest.approx(overlap**2, abs=1e-12)
        assert math.sqrt(f) == pytest.approx(overlap, abs=1e-12)
    g = ds.ghz(4)
    assert ds.fidelity(g, g) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ds.fidelity(ds.ghz(3), ds.ghz(4))


def test_from_tableau_states():
    z = ds.from_tableau(zero_state(3))
    assert ds.fidelity(z, ds.basis_state("000")) == pytest.approx(1.0)

    t = zero_state(4)
    apply_gate(t, "H", (0,))
    for q in range(1, 4):
        apply_gate(t, "CNOT", (0, q))
    assert ds.fidelity(ds.from_tableau(t), ds.ghz(4)) == pytest.approx(1.0)

    for seed in range(12):
        n = 2 + seed % 4
        t = random_stabilizer_state(n, seed=seed)
        s = ds.from_tableau(t)
        for g in t.generators:
            val = complex(np.vdot(s.amps, ds.apply_pauli(s, g)))
            assert abs(val - 1.0) < 1e-10


def start_loop_from_tableau(t):
    """The replaced search: project basis states 0, 1, 2, ... until one survives."""
    dim = 1 << t.n
    for start in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[start] = 1.0
        for g in t.generators:
            v = (v + ds.apply_pauli(v, g)) / 2
        norm = float(np.linalg.norm(v))
        if norm > 1e-9:
            return v / norm
    raise AssertionError("no basis state overlaps the stabilized subspace")


def test_from_tableau_matches_start_loop():
    rng = random.Random(5)
    for seed in range(160):
        n = 1 + seed % 8
        t = random_stabilizer_state(n, seed=seed)
        for q in rng.sample(range(n), rng.randrange(n + 1)):  # move the support off index 0
            apply_gate(t, "X", (q,))
        assert ds.from_tableau(t).amps.tobytes() == start_loop_from_tableau(t).tobytes(), seed


def test_from_tableau_projects_once(monkeypatch):
    calls = []
    monkeypatch.setattr(ds, "apply_pauli", lambda v, p: calls.append(p) or apply_pauli(v, p))
    t = zero_state(12)
    for q in range(12):
        apply_gate(t, "X", (q,))
    s = ds.from_tableau(t)
    assert len(calls) == 12
    assert s.amps[-1] == 1.0 and np.count_nonzero(s.amps) == 1


def test_dicke_formula_matches_dense():
    cases = [(6, 1, 1), (6, 2, 1), (8, 2, 2), (8, 3, 1), (10, 5, 2), (7, 3, 3)]
    for n, k, w in cases:
        o1 = ds.pauli_op(range(w), "Z" * w)
        o2 = ds.pauli_op(range(w, 2 * w), "Z" * w)
        dense = abs(ds.correlation(ds.dicke(n, k), o1, o2))
        assert ds.dicke_correlation_formula(n, k, w) == pytest.approx(dense, abs=1e-12)
    for n in (5, 8, 11):
        for w in (1, 2):
            assert ds.dicke_correlation_formula(n, 1, w) == pytest.approx(
                4 * w * w / n**2, abs=1e-12
            )
    assert ds.dicke_correlation_formula(6, 3, 0) == 0.0
    with pytest.raises(ValueError):
        ds.dicke_correlation_formula(5, 2, 3)


def test_make_state_dispatch():
    assert ds.fidelity(ds.make_state("ghz", 3), ds.ghz(3)) == pytest.approx(1.0)
    assert ds.fidelity(ds.make_state("dicke", 5, 2), ds.dicke(5, 2)) == pytest.approx(1.0)
    assert ds.fidelity(ds.make_state("basis", "10"), ds.basis_state("10")) == 1.0
    with pytest.raises(ValueError):
        ds.make_state("cat", 3)


def test_zero_family_is_the_zero_tableau_byte_for_byte(monkeypatch):
    monkeypatch.delenv("ADAPTSTAB_MAX_QUBITS", raising=False)
    for n in range(1, 17):
        assert ds.make_state("zero", n).amps.tobytes() == ds.from_tableau(zero_state(n)).amps.tobytes()
    with pytest.raises(ResourceGuardError, match="dense simulation of 17 qubits"):
        ds.make_state("zero", 17)
