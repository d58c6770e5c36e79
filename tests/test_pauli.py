"""Pauli algebra against a dense matrix oracle, plus GF(2) solver checks."""

from __future__ import annotations

import numpy as np
import pytest

from adaptstab.pauli import (
    GF2Elimination,
    PauliOperator,
    format_pauli,
    from_bits,
    gf2_rank,
    identity,
    parse_pauli,
    single_site,
    tensor,
)
from helpers_checks import gf2_solve, restrict, solve_rhs

_I = np.eye(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def dense(p: PauliOperator) -> np.ndarray:
    """Independent matrix form: qubit 0 is the most significant factor."""
    m = np.eye(1, dtype=complex)
    for q in range(p.n):
        site = np.eye(2, dtype=complex)
        if (p.x >> q) & 1:
            site = site @ _X
        if (p.z >> q) & 1:
            site = site @ _Z
        m = np.kron(m, site)
    return p.phase * m


def test_multiply_frozen_examples():
    x = parse_pauli("+X")
    z = parse_pauli("+Z")
    assert format_pauli(x * x) == "+I"
    assert format_pauli(x * z) == "-iY"
    xx = parse_pauli("+XX")
    zz = parse_pauli("+ZZ")
    assert format_pauli(xx * zz) == "-YY"


def test_multiply_matches_dense_exhaustive_n2():
    paulis = [
        PauliOperator.from_exponent(2, x, z, e)
        for x in range(4)
        for z in range(4)
        for e in range(4)
    ]
    for p in paulis:
        np.testing.assert_allclose(dense(p.dagger()), dense(p).conj().T, atol=1e-12)
    rng = np.random.default_rng(7)
    for _ in range(400):
        p, q = rng.choice(len(paulis), size=2)
        p, q = paulis[p], paulis[q]
        np.testing.assert_allclose(dense(p * q), dense(p) @ dense(q), atol=1e-12)


def test_commutes_matches_dense_exhaustive_n2():
    for xa in range(4):
        for za in range(4):
            for xb in range(4):
                for zb in range(4):
                    p = PauliOperator(2, xa, za)
                    q = PauliOperator(2, xb, zb)
                    comm = dense(p) @ dense(q) - dense(q) @ dense(p)
                    assert p.commutes(q) == (np.abs(comm).max() < 1e-12)


def test_commutes_examples():
    assert not parse_pauli("X").commutes(parse_pauli("Z"))
    assert parse_pauli("XX").commutes(parse_pauli("ZZ"))
    assert parse_pauli("XIZ").commutes(parse_pauli("ZIX"))


def test_square_and_hermitian():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        p = PauliOperator.from_exponent(
            n,
            int(rng.integers(0, 1 << n)),
            int(rng.integers(0, 1 << n)),
            int(rng.integers(0, 4)),
        )
        sq = p * p
        assert sq.x == 0 and sq.z == 0 and sq.e in (0, 2)
        if p.hermitian:
            assert sq.e == 0  # hermitian Paulis square to +I
            np.testing.assert_allclose(dense(p), dense(p).conj().T, atol=1e-12)
        else:
            assert np.abs(dense(p) - dense(p).conj().T).max() > 0.5


def test_associativity_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        ps = [
            PauliOperator.from_exponent(
                n,
                int(rng.integers(0, 1 << n)),
                int(rng.integers(0, 1 << n)),
                int(rng.integers(0, 4)),
            )
            for _ in range(3)
        ]
        a, b, c = ps
        assert (a * b) * c == a * (b * c)


def test_weight():
    assert parse_pauli("IIII").weight() == 0
    assert parse_pauli("XIZY").weight() == 3
    assert parse_pauli("X" * 9).weight() == 9
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        p = PauliOperator(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        q = PauliOperator(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        assert (p * q).weight() <= p.weight() + q.weight()


def test_parse_format():
    p = parse_pauli("-XZZXI")
    assert p.phase == -1
    assert p.x == 0b01001
    assert p.z == 0b00110
    assert p.weight() == 4
    q = parse_pauli("ZZ")
    assert q.phase == 1 and q.x == 0 and q.z == 0b11
    assert format_pauli(parse_pauli("Y")) == "+Y"
    assert parse_pauli("Y").phase == 1j  # Y = i XZ in the stored convention
    with pytest.raises(ValueError):
        parse_pauli("")
    with pytest.raises(ValueError):
        parse_pauli("XQ")
    for value in (1, None, 2.5, ["X"], b"XZ"):
        with pytest.raises(ValueError, match=r"^Pauli must be a string, got "):
            parse_pauli(value)
    rng = np.random.default_rng(13)
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        p = PauliOperator.from_exponent(
            n,
            int(rng.integers(0, 1 << n)),
            int(rng.integers(0, 1 << n)),
            int(rng.integers(0, 4)),
        )
        assert parse_pauli(format_pauli(p)) == p


def test_helpers():
    assert format_pauli(identity(3)) == "+III"
    assert format_pauli(single_site(3, 1, "Y")) == "+IYI"
    assert single_site(3, 1, "Y").hermitian
    p = from_bits(2, 0b11, 0b11)
    assert format_pauli(p) == "+YY"
    t = tensor(parse_pauli("+X"), parse_pauli("-Z"))
    assert format_pauli(t) == "-XZ"
    np.testing.assert_allclose(dense(t), np.kron(dense(parse_pauli("+X")), -_Z))
    e = parse_pauli("+XZ").embed(4, 1)
    assert format_pauli(e) == "+IXZI"
    assert restrict(parse_pauli("-IZX"), [1, 2]) == parse_pauli("-ZX")
    assert restrict(parse_pauli("+IYI"), [1]) == parse_pauli("+Y")
    with pytest.raises(ValueError):
        parse_pauli("X").multiply(parse_pauli("XX"))


# -- GF(2) ----------------------------------------------------------------


def test_gf2_identity_system():
    sol = gf2_solve([0b0001, 0b0010, 0b0100, 0b1000], [1, 0, 1, 0], cols=4)
    assert sol is not None
    assert sol.particular == 0b0101  # x = 1010 reading columns left to right
    assert sol.null_basis == []


def test_gf2_inconsistent():
    sol = gf2_solve([0b11, 0b11, 0], [1, 0, 1], cols=2)
    assert sol is None
    assert gf2_solve([0], [1], cols=3) is None


def test_gf2_random_full_rank_solve():
    rng = np.random.default_rng(17)
    for _ in range(20):
        rows = []
        while gf2_rank(rows) < 20:
            rows.append(int(rng.integers(0, 1 << 40)))
            if gf2_rank(rows) < len(rows):
                rows.pop()
        b = [int(rng.integers(0, 2)) for _ in range(20)]
        sol = gf2_solve(rows, b, cols=40)
        assert sol is not None
        assert len(sol.null_basis) == 40 - 20
        for extra in [0, 1, 3]:
            x = sol.particular
            for i, v in enumerate(sol.null_basis):
                if (extra >> i) & 1:
                    x ^= v
            for row, bb in zip(rows, b):
                assert ((row & x).bit_count() & 1) == bb


def test_gf2_elimination_solves_every_rhs_from_tags():
    rng = np.random.default_rng(29)
    for _ in range(40):
        nrows, ncols = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        rows = [int(rng.integers(0, 1 << ncols)) for _ in range(nrows)]
        elim = GF2Elimination(ncols, rows)
        images = {
            sum((((r & x).bit_count() & 1) << i) for i, r in enumerate(rows)): x
            for x in range(1 << ncols)
        }
        for rhs in range(1 << nrows):
            x = solve_rhs(elim, rhs)
            if rhs not in images:
                assert x is None
                continue
            assert sum((((r & x).bit_count() & 1) << i) for i, r in enumerate(rows)) == rhs
            assert x & ~elim.pivot_mask == 0  # free columns zero
            b = [(rhs >> i) & 1 for i in range(nrows)]
            assert gf2_solve(rows, b, cols=ncols).particular == x


def test_gf2_solution_count_matches_rank():
    rng = np.random.default_rng(23)
    for _ in range(50):
        nrows, ncols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        rows = [int(rng.integers(0, 1 << ncols)) for _ in range(nrows)]
        x0 = int(rng.integers(0, 1 << ncols))
        b = [((r & x0).bit_count() & 1) for r in rows]
        sol = gf2_solve(rows, b, cols=ncols)
        assert sol is not None  # consistent by construction
        solutions = set(sol.solutions())
        assert len(solutions) == 1 << (ncols - gf2_rank(rows))
        assert x0 in solutions


def per_qubit_letters(p: PauliOperator) -> str:
    """The replaced letter string: one ``letter(q)`` call per qubit."""
    return "".join(p.letter(q) for q in range(p.n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 63, 64, 65, 128, 511, 2048])
def test_letters_match_per_qubit_loop(n):
    rng = np.random.default_rng(n)
    full = (1 << n) - 1
    masks = [0, full, 1, 1 << (n - 1)] + [int.from_bytes(rng.bytes((n + 7) // 8), "little") & full for _ in range(20)]
    for x in masks:
        for z in masks[:6] + [int.from_bytes(rng.bytes((n + 7) // 8), "little") & full]:
            p = PauliOperator(n, x, z)
            assert p.letters() == per_qubit_letters(p)
    assert PauliOperator(n, 0, 0).letters() == "I" * n
    assert PauliOperator(n, full, full).letters() == "Y" * n

