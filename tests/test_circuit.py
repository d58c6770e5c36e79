"""Circuit IR: validation, depth accounting, simulation, lightcones, GHZ scheme."""

from __future__ import annotations

import dataclasses
import math
import random
import re
from itertools import product

import pytest

from adaptstab import circuit as ci
from adaptstab.circuit import AdaptiveCircuit, Condition, Gate, Geometry, Measure
from adaptstab.errors import ContradictionError
from adaptstab.pauli import parse_pauli
from adaptstab.tableau import (
    apply_gate,
    is_stabilized_by,
    random_stabilizer_state,
    states_equal,
    zero_state,
)


def ghz_tableau(n):
    t = zero_state(n)
    apply_gate(t, "H", (0,))
    for q in range(1, n):
        apply_gate(t, "CNOT", (0, q))
    return t


def test_validate_clean_circuit():
    c = ci.ghz_adaptive(8, 4, 2)
    rep = ci.validate(c, K=2)
    assert rep.ok and rep.violations == []


def test_validate_flags_violations():
    c = AdaptiveCircuit(3, cbits=1)
    c.add_layer([Gate("H", (0,)), Gate("CNOT", (0, 1))])  # share qubit 0
    rep = ci.validate(c, K=2)
    assert not rep.ok and "shared" in rep.violations[0]

    c = AdaptiveCircuit(3)
    c.add_layer([Gate("CNOT", (0, 1, 2))])  # fan-in 3
    assert not ci.validate(c, K=2).ok
    assert ci.validate(c, K=3).ok

    c = AdaptiveCircuit(2)
    c.add_layer([])
    assert any("empty" in v for v in ci.validate(c, K=2).violations)

    c = AdaptiveCircuit(2, cbits=1)
    c.add_layer([Gate("X", (0,), cond=Condition((0,), 1)), Measure(1, 0)])
    rep = ci.validate(c, K=2)  # condition reads a bit written in the same layer
    assert any("earlier layer" in v for v in rep.violations)

    c = AdaptiveCircuit(2, cbits=1)
    c.add_layer([Measure(1, 0)])
    c.add_layer([Gate("H", (1,))])  # measured qubit reused
    assert any("after measurement" in v for v in ci.validate(c, K=2).violations)

    c = AdaptiveCircuit(2)
    c.add_layer([Gate("TOFFOLI", (0, 1))])
    assert any("unknown gate" in v for v in ci.validate(c, K=2).violations)

    c = AdaptiveCircuit(2)
    c.add_layer([Gate("H", (0, 1))])
    assert any("H expects 1 qubits" in v for v in ci.validate(c, K=2).violations)

    c = AdaptiveCircuit(2)
    c.add_layer([Gate("CP", (0, 1))])  # missing pauli letter
    assert any("needs pauli" in v for v in ci.validate(c, K=2).violations)

    c = AdaptiveCircuit(2, cbits=1)
    c.add_layer([Measure(0, 0)])
    c.add_layer([Measure(1, 0)])  # cbit written twice
    assert any("written twice" in v for v in ci.validate(c, K=2).violations)


@pytest.mark.parametrize(
    "gate,violation,message",
    [
        (Gate(["H"], (0,)), "unknown gate ['H']", "unknown gate ['H']"),
        (Gate("CP", (0, 1), pauli=["X"]), "CP gate needs pauli X/Y/Z", "CP needs a pauli in X/Y/Z, got ['X']"),
    ],
)
def test_unhashable_gate_name_or_letter_is_rejected_alike(gate, violation, message):
    # validate, simulate and apply_gate each test a name's or letter's type
    # before a lookup would hash it.
    c = AdaptiveCircuit(2)
    c.add_layer([gate])
    assert ci.validate(c, K=2).violations == [f"layer 0: {violation}"]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ci.simulate(c, seed=0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        apply_gate(zero_state(2), gate.op, gate.qubits, gate.pauli)


def test_sdg_circuit_validates_and_simulates():
    c = AdaptiveCircuit(2)
    c.add_layer([Gate("H", (0,)), Gate("H", (1,))])
    c.add_layer([Gate("SDG", (0,)), Gate("S", (1,))])
    rep = ci.validate(c, K=2)
    assert rep.ok, rep.violations
    t, _ = ci.simulate(c)
    assert is_stabilized_by(t, parse_pauli("-YI")) == 1  # SDG X SDG^dagger = -Y
    assert is_stabilized_by(t, parse_pauli("+IY")) == 1


def test_validate_grid_geometry():
    chain = Geometry.grid(1, sides=(4,))
    c = AdaptiveCircuit(4)
    c.add_layer([Gate("CNOT", (0, 1)), Gate("CNOT", (2, 3))])
    assert ci.validate(c, 2, chain).ok
    c = AdaptiveCircuit(4)
    c.add_layer([Gate("CNOT", (0, 2))])
    assert any("grid locality" in v for v in ci.validate(c, 2, chain).violations)

    square = Geometry.grid(2, sides=(2, 2))
    c = AdaptiveCircuit(4)
    c.add_layer([Gate("CZ", (0, 3))])  # diagonal fits in a 2x2 box
    assert ci.validate(c, 2, square).ok


def test_g_value():
    assert ci.g_value(2, 3) == 8
    assert ci.g_value(2, 3, Geometry.grid(1)) == 7
    assert ci.g_value(2, 0) == 1
    assert ci.g_value(3, 0, Geometry.grid(2)) == 1
    assert ci.g_value(3, 2, Geometry.grid(2)) == 81
    with pytest.raises(ValueError):
        ci.g_value(1, 2)
    with pytest.raises(ValueError):
        ci.g_value(2, -1)


def test_depth_and_merged_layers():
    assert ci.depth(AdaptiveCircuit(2)) == 0
    c = AdaptiveCircuit(2)
    c.add_layer([Gate("H", (0,), merged=True)])
    c.add_layer([Gate("CP", (0, 1), pauli="X")])
    c.add_layer([Gate("H", (0,), merged=True)])
    assert ci.depth(c) == 1
    assert len(c.layers) == 3


def test_ancilla_count():
    c = ci.ghz_adaptive(16, 4, 2)
    assert ci.ancilla_count(c, 16) == 3
    with pytest.raises(ValueError):
        ci.ancilla_count(c, 20)


def test_simulate_forced_correction():
    # measure |+> and push the result to |0> with a conditioned X
    c = AdaptiveCircuit(1, cbits=1)
    c.add_layer([Gate("H", (0,))])
    c.add_layer([Measure(0, 0)])
    for bit in (0, 1):
        t, rec = ci.simulate(c, forced=[bit])
        assert rec == [bit]
    c2 = AdaptiveCircuit(2, cbits=1)
    c2.add_layer([Gate("H", (0,))])
    c2.add_layer([Gate("CNOT", (0, 1))])
    c2.add_layer([Measure(1, 0)])
    c2.add_layer([Gate("X", (0,), cond=Condition((0,), 1))])
    for bit in (0, 1):
        t, _ = ci.simulate(c2, forced=[bit])
        assert states_equal(t, zero_state(1))


def test_simulate_bell_then_measure():
    c = AdaptiveCircuit(2, cbits=1)
    c.add_layer([Gate("H", (0,))])
    c.add_layer([Gate("CNOT", (0, 1))])
    c.add_layer([Measure(1, 0)])
    t, rec = ci.simulate(c, forced=[0])
    assert rec == [0] and states_equal(t, zero_state(1))


def test_simulate_contradiction():
    c = AdaptiveCircuit(1, cbits=1)
    c.add_layer([Measure(0, 0)])
    with pytest.raises(ContradictionError):
        ci.simulate(c, forced=[1])  # |0> cannot give outcome 1


def test_simulate_rejects_bad_initial():
    c = AdaptiveCircuit(2, cbits=0)
    c.add_layer([Gate("H", (0,))])
    with pytest.raises(ValueError):
        ci.simulate(c, initial=zero_state(3))


def test_simulate_with_initial_tableau():
    for seed in range(10):
        t0 = random_stabilizer_state(3, seed=seed)
        c = AdaptiveCircuit(3)
        c.add_layer([Gate("H", (0,)), Gate("CNOT", (1, 2))])
        got, _ = ci.simulate(c, initial=t0)
        want = t0.copy()
        apply_gate(want, "H", (0,))
        apply_gate(want, "CNOT", (1, 2))
        assert states_equal(got, want)
        assert states_equal(t0, random_stabilizer_state(3, seed=seed))  # input untouched


def test_ghz_adaptive_exhaustive_branches():
    for n, a in [(8, 2), (8, 4), (16, 4)]:
        c = ci.ghz_adaptive(n, a, 2)
        assert ci.validate(c, 2).ok
        nb = -(-n // a)
        assert ci.ancilla_count(c, n) == nb - 1
        target = ghz_tableau(n)
        for bits in product([0, 1], repeat=nb - 1):
            t, _ = ci.simulate(c, forced=list(bits))
            assert states_equal(t, target)


def test_ghz_adaptive_random_seeds():
    for n in (4, 8, 16):
        c = ci.ghz_adaptive(n, 4, 2)
        target = ghz_tableau(n)
        for seed in range(50):
            t, _ = ci.simulate(c, seed=seed)
            assert states_equal(t, target)


def test_ghz_adaptive_structure():
    c = ci.ghz_adaptive(16, 4, 2)
    assert ci.ancilla_count(c, 16) == 3
    assert ci.fanout_depth(4, 2) == 2
    # pure fan-out when a = n: no ancillas, depth 1 + ceil(log_K n)
    c = ci.ghz_adaptive(8, 8, 2)
    assert ci.ancilla_count(c, 8) == 0
    assert ci.depth(c) == 1 + 3
    # a = 1 degenerates to the constant-depth adaptive chain
    c = ci.ghz_adaptive(4, 1, 2)
    assert ci.ancilla_count(c, 4) == 3
    assert ci.depth(c) == 5
    with pytest.raises(ValueError):
        ci.ghz_adaptive(4, 5, 2)
    with pytest.raises(ValueError):
        ci.ghz_adaptive(4, 2, 1)


def test_ghz_adaptive_saturation():
    for n, a, K in [(8, 2, 2), (8, 4, 2), (16, 4, 2), (9, 3, 3), (7, 3, 2)]:
        c = ci.ghz_adaptive(n, a, K)
        na = ci.ancilla_count(c, n)
        L = ci.fanout_depth(a, K)
        lhs = (na + 1) * K**L
        assert lhs >= n
        assert lhs <= K * n  # tight within a factor K


def test_lightcones_basic():
    c = AdaptiveCircuit(4)
    c.add_layer([Gate("CNOT", (0, 1)), Gate("CNOT", (2, 3))])
    assert ci.forward_lightcone(c, [0]) == {0, 1}
    assert ci.forward_lightcone(c, [2]) == {2, 3}
    assert ci.backward_lightcone(c, [1]) == {0, 1}
    c.add_layer([Gate("CZ", (1, 2))])
    assert ci.forward_lightcone(c, [0]) == {0, 1, 2}
    assert ci.backward_lightcone(c, [0]) == {0, 1}  # the CZ comes after the CNOT reaches 1


def test_lightcone_brickwork_growth():
    n, D = 12, 4
    c = AdaptiveCircuit(n)
    for layer in range(D):
        off = layer % 2
        c.add_layer([Gate("CZ", (q, q + 1)) for q in range(off, n - 1, 2)])
    cone = ci.forward_lightcone(c, [6])
    assert len(cone) <= 2 * D + 1
    assert cone == set(range(min(cone), max(cone) + 1))  # contiguous


def test_backward_lightcone_bounded_by_g():
    rng = random.Random(5)
    for trial in range(30):
        m = rng.randint(4, 10)
        D = rng.randint(1, 4)
        c = AdaptiveCircuit(m)
        for _ in range(D):
            free = list(range(m))
            rng.shuffle(free)
            layer = []
            while len(free) >= 2:
                a, b = free.pop(), free.pop()
                layer.append(Gate(rng.choice(["CNOT", "CZ"]), (a, b)))
            c.add_layer(layer)
        assert ci.validate(c, 2).ok
        A = set(rng.sample(range(m), rng.randint(1, 3)))
        cone = ci.backward_lightcone(c, A)
        assert len(cone) <= len(A) * ci.g_value(2, ci.depth(c))


def test_json_roundtrip_deterministic():
    c = ci.ghz_adaptive(8, 4, 2)
    text = ci.to_json(c)
    c2 = ci.from_json(text)
    assert ci.to_json(c2) == text
    assert text.index('"m"') < text.index('"cbits"') < text.index('"layers"')
    t1, _ = ci.simulate(c, forced=[1])
    t2, _ = ci.simulate(c2, forced=[1])
    assert states_equal(t1, t2)


def test_json_preserves_cond_pauli_merged():
    c = AdaptiveCircuit(2, cbits=1)
    c.add_layer([Gate("H", (1,), merged=True)])
    c.add_layer([Measure(1, 0)])
    c.add_layer([Gate("CP", (0, 1), pauli="Y", cond=Condition((0,), 0))])
    c2 = ci.from_json(ci.to_json(c))
    assert c2.layers[0][0].merged is True
    assert c2.layers[2][0].pauli == "Y"
    assert c2.layers[2][0].cond == Condition((0,), 0)


def test_gate_is_a_frozen_hashable_value():
    g = Gate("CP", [5, 3], "X")
    assert g.qubits == (5, 3) and isinstance(g.qubits, tuple)
    assert g == Gate(op="CP", qubits=(5, 3), pauli="X", cond=None, merged=False)
    assert hash(g) == hash(Gate("CP", (5, 3), pauli="X"))
    assert g != Gate("CP", (5, 3), "X", merged=True)
    assert repr(g) == "Gate(op='CP', qubits=(5, 3), pauli='X', cond=None, merged=False)"
    assert [f.name for f in dataclasses.fields(Gate)] == ["op", "qubits", "pauli", "cond", "merged"]
    assert dataclasses.replace(g, qubits=[1, 2]).qubits == (1, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.op = "CZ"
    c = Gate("X", (0,), cond=Condition((1, 2), 0))
    assert c.cond == Condition((1, 2), 0) and c.pauli is None and not c.merged
