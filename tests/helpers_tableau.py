"""Tableau builders shared by test modules."""

from __future__ import annotations

from adaptstab.pauli import PauliOperator
from adaptstab.tableau import StabilizerTableau


def tensor_tableau(t1: StabilizerTableau, t2: StabilizerTableau) -> StabilizerTableau:
    """Product state tableau: t1 on qubits 0..n1-1, t2 above them."""
    n = t1.n + t2.n
    gens = [g.embed(n, 0) for g in t1.generators] + [
        g.embed(n, t1.n) for g in t2.generators
    ]
    destabs = [d.embed(n, 0) for d in t1.destabilizers] + [
        d.embed(n, t1.n) for d in t2.destabilizers
    ]
    return StabilizerTableau(n, gens, destabs)


def canonical_form(t: StabilizerTableau) -> StabilizerTableau:
    """Deterministic row-reduced copy of the tableau.

    Pivots scan X columns before Z columns, so rows carrying X support come
    first (their x-parts form a full-rank block) and pure-Z rows sink to the
    bottom.  Generator row operations are mirrored on the destabilizers to
    keep the pairing.  Repeated application is the identity.
    """
    n = t.n
    gens, destabs = list(t.generators), list(t.destabilizers)

    def bit(row: PauliOperator, col: int) -> int:
        return (row.x >> col) & 1 if col < n else (row.z >> (col - n)) & 1

    pivot_row = 0
    for col in range(2 * n):
        hit = next((r for r in range(pivot_row, n) if bit(gens[r], col)), None)
        if hit is None:
            continue
        gens[hit], gens[pivot_row] = gens[pivot_row], gens[hit]
        destabs[hit], destabs[pivot_row] = destabs[pivot_row], destabs[hit]
        for r in range(n):
            if r != pivot_row and bit(gens[r], col):
                gens[r] = gens[r] * gens[pivot_row]
                destabs[pivot_row] = destabs[pivot_row] * destabs[r]
        pivot_row += 1
        if pivot_row == n:
            break
    return StabilizerTableau(n, gens, destabs)
