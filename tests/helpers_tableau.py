"""Tableau builders shared by test modules."""

from __future__ import annotations

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
