"""Tableau simulation against the dense oracle."""

from __future__ import annotations

import numpy as np
import pytest

from helpers_dense import dense_pauli, dense_state_from_ops, gate_unitary
from helpers_tableau import canonical_form, plane_measure_pauli, restricted_group_elements, row_conjugate_pauli, tensor_tableau

from adaptstab.circuit import AdaptiveCircuit, Measure, simulate
from adaptstab.densesim import from_tableau
from adaptstab.errors import ContradictionError
from adaptstab.pauli import PauliOperator, format_pauli, parse_pauli, single_site
from adaptstab.tableau import (
    StabilizerTableau,
    apply_gate,
    factor_out_qubits,
    from_json,
    from_stabilizers,
    is_stabilized_by,
    random_stabilizer_state,
    states_equal,
    to_json,
    validate_tableau,
    zero_state,
)


def ghz_tableau(n: int):
    t = zero_state(n)
    apply_gate(t, "H", (0,))
    for q in range(1, n):
        apply_gate(t, "CNOT", (0, q))
    return t


# -- conjugation correctness -------------------------------------------------


def all_paulis(n: int):
    return [
        PauliOperator.from_exponent(n, x, z, e)
        for x in range(1 << n)
        for z in range(1 << n)
        for e in range(4)
    ]


@pytest.mark.parametrize(
    "name,qubits,pauli",
    [("H", (0,), None), ("H", (1,), None), ("S", (0,), None), ("SDG", (1,), None),
     ("X", (0,), None), ("Y", (1,), None), ("Z", (0,), None),
     ("CNOT", (0, 1), None), ("CNOT", (1, 0), None),
     ("CZ", (0, 1), None), ("SWAP", (0, 1), None),
     ("CP", (0, 1), "X"), ("CP", (0, 1), "Y"), ("CP", (0, 1), "Z"),
     ("CP", (1, 0), "Y")],
)
def test_conjugation_matches_dense(name, qubits, pauli):
    u = gate_unitary(name, qubits, 2, pauli)
    for p in all_paulis(2):
        got = row_conjugate_pauli(p, name, qubits, pauli)
        np.testing.assert_allclose(
            dense_pauli(got), u @ dense_pauli(p) @ u.conj().T, atol=1e-12
        )


def test_multitarget_cnot_is_fanout():
    u = gate_unitary("CNOT", (1, 0, 2), 3)
    for p in all_paulis(3)[:: 7]:
        got = row_conjugate_pauli(p, "CNOT", (1, 0, 2))
        np.testing.assert_allclose(
            dense_pauli(got), u @ dense_pauli(p) @ u.conj().T, atol=1e-12
        )


def test_zero_state_and_bell():
    t = zero_state(3)
    assert [format_pauli(g) for g in t.generators] == ["+ZII", "+IZI", "+IIZ"]
    assert is_stabilized_by(zero_state(2), parse_pauli("+ZZ")) == 1
    t = zero_state(1)
    apply_gate(t, "H", (0,))
    assert format_pauli(t.generators[0]) == "+X"
    bell = zero_state(2)
    apply_gate(bell, "H", (0,))
    apply_gate(bell, "CNOT", (0, 1))
    assert {format_pauli(g) for g in bell.generators} == {"+XX", "+ZZ"}
    validate_tableau(bell)


def test_cp_z_equals_cz():
    for seed in range(5):
        t1 = random_stabilizer_state(4, seed)
        t2 = t1.copy()
        apply_gate(t1, "CZ", (1, 3))
        apply_gate(t2, "CP", (1, 3), pauli="Z")
        assert states_equal(t1, t2)


def test_gate_errors():
    t = zero_state(2)
    with pytest.raises(ValueError):
        apply_gate(t, "T", (0,))
    with pytest.raises(ValueError):
        apply_gate(t, "CNOT", (0, 0))
    with pytest.raises(ValueError):
        apply_gate(t, "H", (5,))


# -- measurement --------------------------------------------------------------


def test_measure_deterministic():
    out, det, _ = plane_measure_pauli(zero_state(1), parse_pauli("+Z"))
    assert (out, det) == (1, True)
    t = ghz_tableau(3)
    out, det, _ = plane_measure_pauli(t, parse_pauli("+ZZI"))
    assert (out, det) == (1, True)
    with pytest.raises(ContradictionError):
        plane_measure_pauli(zero_state(1), parse_pauli("+Z"), forced=-1)


def test_measure_random_forced():
    t = zero_state(1)
    apply_gate(t, "H", (0,))
    out, det, t = plane_measure_pauli(t, parse_pauli("+Z"), forced=-1)
    assert (out, det) == (-1, False)
    assert format_pauli(t.generators[0]) == "-Z"
    out2, det2, _ = plane_measure_pauli(t, parse_pauli("+Z"))
    assert (out2, det2) == (-1, True)


def test_measure_negative_observable():
    t = zero_state(1)
    out, det, _ = plane_measure_pauli(t, parse_pauli("-Z"))
    assert (out, det) == (-1, True)
    t = zero_state(1)
    apply_gate(t, "H", (0,))
    out, _, t = plane_measure_pauli(t, parse_pauli("-Z"), forced=1)
    assert out == 1
    assert format_pauli(t.generators[0]) == "-Z"  # +1 outcome of -Z is |1>


def test_measure_signed_identity_is_deterministic():
    t = ghz_tableau(3)
    assert plane_measure_pauli(t, parse_pauli("+III"))[:2] == (1, True)
    assert plane_measure_pauli(t, parse_pauli("-III"))[:2] == (-1, True)
    with pytest.raises(ContradictionError):
        plane_measure_pauli(t, parse_pauli("-III"), forced=1)


def test_measure_requires_rng_or_forced():
    t = zero_state(1)
    apply_gate(t, "H", (0,))
    with pytest.raises(ValueError):
        plane_measure_pauli(t, parse_pauli("+Z"))
    with pytest.raises(ValueError):
        plane_measure_pauli(zero_state(1), parse_pauli("+iX"))


def test_measure_invariants_random_sequences():
    rng = np.random.default_rng(42)
    for seed in range(25):
        t = random_stabilizer_state(5, seed)
        for _ in range(8):
            p = PauliOperator.from_exponent(
                5, int(rng.integers(0, 32)), int(rng.integers(0, 32)), 0
            )
            if p.is_identity_bits():
                continue
            p = PauliOperator.from_exponent(5, p.x, p.z, p.y_count % 4)
            out, det, t = plane_measure_pauli(t, p, rng=rng)
            validate_tableau(t)
            out2, det2, t = plane_measure_pauli(t, p, rng=rng)
            assert det2 and out2 == out


# -- group queries -------------------------------------------------------------


def test_is_stabilized_by():
    ghz = ghz_tableau(3)
    assert is_stabilized_by(ghz, parse_pauli("+XXX")) == 1
    assert is_stabilized_by(ghz, parse_pauli("+ZZZ")) is None
    assert is_stabilized_by(ghz, parse_pauli("-ZZI")) == -1
    one = zero_state(1)
    apply_gate(one, "X", (0,))
    assert is_stabilized_by(one, parse_pauli("+Z")) == -1
    for wrong_width in ("XXXXX", "XXX"):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            is_stabilized_by(zero_state(4), parse_pauli(wrong_width))
    with pytest.raises(ValueError, match="hermitian"):
        is_stabilized_by(zero_state(1), parse_pauli("+iX"))


def test_states_equal():
    a = zero_state(1)
    apply_gate(a, "H", (0,))
    b = from_stabilizers([parse_pauli("+X")])
    assert states_equal(a, b) and states_equal(b, a)
    assert states_equal(a, a)
    c = zero_state(1)
    apply_gate(c, "X", (0,))
    assert not states_equal(zero_state(1), c)


def test_restricted_group_elements():
    ghz = ghz_tableau(3)
    elems = restricted_group_elements(ghz, [0, 1])
    assert [format_pauli(p) for p in elems] == ["+III", "+ZZI"]
    elems = restricted_group_elements(zero_state(2), [0])
    assert [format_pauli(p) for p in elems] == ["+II", "+ZI"]
    bell = from_stabilizers([parse_pauli("+XX"), parse_pauli("+ZZ")])
    assert [format_pauli(p) for p in restricted_group_elements(bell, [0])] == ["+II"]


def test_canonical_form():
    t = canonical_form(zero_state(3))
    assert [format_pauli(g) for g in t.generators] == ["+ZII", "+IZI", "+IIZ"]
    bell = from_stabilizers([parse_pauli("+ZZ"), parse_pauli("+XX")])
    c = canonical_form(bell)
    assert [format_pauli(g) for g in c.generators] == ["+XX", "+ZZ"]
    for seed in range(20):
        t = random_stabilizer_state(5, seed)
        c1 = canonical_form(t)
        validate_tableau(c1)
        assert states_equal(t, c1)
        c2 = canonical_form(c1)
        assert [format_pauli(g) for g in c1.generators] == [
            format_pauli(g) for g in c2.generators
        ]
        assert [format_pauli(d) for d in c1.destabilizers] == [
            format_pauli(d) for d in c2.destabilizers
        ]


def test_random_stabilizer_state():
    assert states_equal(random_stabilizer_state(4, 9), random_stabilizer_state(4, 9))
    seen = set()
    for seed in range(80):
        t = random_stabilizer_state(1, seed)
        validate_tableau(t)
        seen.add(format_pauli(canonical_form(t).generators[0]))
    assert seen == {"+X", "-X", "+Y", "-Y", "+Z", "-Z"}
    for seed in range(10):
        validate_tableau(random_stabilizer_state(6, seed))


# -- dense cross-check ---------------------------------------------------------


def random_ops(n: int, rng: np.random.Generator) -> list[tuple]:
    ops: list[tuple] = []
    names1 = ["H", "S", "SDG", "X", "Y", "Z"]
    for _ in range(2 * n):
        for q in range(n):
            if rng.random() < 0.5:
                ops.append((names1[int(rng.integers(0, 6))], (q,)))
        perm = rng.permutation(n)
        for i in range(0, n - 1, 2):
            a, b = int(perm[i]), int(perm[i + 1])
            choice = int(rng.integers(0, 4))
            if choice == 0:
                ops.append(("CNOT", (a, b)))
            elif choice == 1:
                ops.append(("CZ", (a, b)))
            elif choice == 2:
                ops.append(("SWAP", (a, b)))
            else:
                ops.append(("CP", (a, b), "Y"))
    return ops


def test_projector_matches_dense_simulation():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(2, 5))
        ops = random_ops(n, rng)
        t = zero_state(n)
        for op in ops:
            apply_gate(t, op[0], op[1], op[2] if len(op) > 2 else None)
        validate_tableau(t)
        psi = dense_state_from_ops(n, ops)
        proj = np.zeros((1 << n, 1 << n), dtype=complex)
        for mask in range(1 << n):
            prod = None
            for i in range(n):
                if (mask >> i) & 1:
                    g = t.generators[i]
                    prod = g if prod is None else prod * g
            m = dense_pauli(prod) if prod is not None else np.eye(1 << n)
            proj += m
        proj /= 1 << n
        np.testing.assert_allclose(proj, np.outer(psi, psi.conj()), atol=1e-12)


# -- construction helpers --------------------------------------------------------


def test_from_stabilizers_roundtrip():
    for seed in range(15):
        t = random_stabilizer_state(5, seed)
        rebuilt = from_stabilizers(t.generators)
        validate_tableau(rebuilt)
        assert states_equal(t, rebuilt)
    with pytest.raises(ValueError):
        from_stabilizers([parse_pauli("+XX"), parse_pauli("+ZI")])  # anticommute
    with pytest.raises(ValueError):
        from_stabilizers([parse_pauli("+ZZ"), parse_pauli("+ZZ")])  # dependent


def test_from_stabilizers_rejects_empty_list():
    with pytest.raises(ValueError, match="at least one generator"):
        from_stabilizers([])


def test_from_stabilizers_rejects_mixed_widths():
    with pytest.raises(ValueError, match=r"^generator \+Z acts on 1 qubits, expected 2$"):
        from_stabilizers([parse_pauli("+ZI"), parse_pauli("+Z")])
    with pytest.raises(ValueError, match=r"^generator \+IIZZ acts on 4 qubits, expected 3$"):
        from_stabilizers([parse_pauli("+ZII"), parse_pauli("+IZI"), parse_pauli("+IIZZ")])


def test_from_json_checks_n_against_generator_widths():
    with pytest.raises(ValueError, match=r"^generator \+ZII acts on 3 qubits, expected 4$"):
        from_json({"n": 4, "generators": ["+ZII", "+IZI", "+IIZ"]})
    data = to_json(from_stabilizers([parse_pauli("+ZI"), parse_pauli("+IZ")]))
    data["n"] = 3
    with pytest.raises(ValueError, match=r"^generator \+ZI acts on 2 qubits, expected 3$"):
        from_json(data)


def test_tensor_and_factor_out():
    bell = from_stabilizers([parse_pauli("+XX"), parse_pauli("+ZZ")])
    t = tensor_tableau(bell, zero_state(1))
    validate_tableau(t)
    assert is_stabilized_by(t, parse_pauli("+XXI")) == 1
    assert is_stabilized_by(t, parse_pauli("+IIZ")) == 1

    ghz = ghz_tableau(3)
    out, _, ghz = plane_measure_pauli(ghz, parse_pauli("+IIZ"), forced=-1)
    reduced = factor_out_qubits(ghz, [2])
    assert states_equal(
        reduced, from_stabilizers([parse_pauli("-ZI"), parse_pauli("-IZ")])
    )
    with pytest.raises(ValueError):
        factor_out_qubits(ghz_tableau(3), [0])


def test_json_roundtrip():
    for seed in range(8):
        t = random_stabilizer_state(4, seed)
        data = to_json(t)
        t2 = from_json(data)
        assert states_equal(t, t2)
        t3 = from_json({"n": data["n"], "generators": data["generators"]})
        assert states_equal(t, t3)
    assert to_json(zero_state(2))["generators"] == ["+ZI", "+IZ"]


@pytest.mark.parametrize("entry", ["simulate", "from_tableau"])
def test_mispaired_destabilizers_rejected_by_name(entry):
    """A tableau whose destabilizers pair wrongly is named as such before a
    measurement would reach it, not met as a corrupt group mid-run."""
    t = StabilizerTableau(2, [parse_pauli("ZI"), parse_pauli("IZ")], [parse_pauli("IX"), parse_pauli("XI")])
    run = {
        "simulate": lambda: simulate(AdaptiveCircuit(2, 1, [[Measure(0, 0)]]), initial=t),
        "from_tableau": lambda: from_tableau(t),
    }[entry]
    with pytest.raises(ValueError, match="^destabilizer 0 pairs incorrectly with generator 0$"):
        run()
