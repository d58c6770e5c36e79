"""Two-point correlations and correlation range across state families.

Cor(O1, O2) = <O1 O2> - <O1><O2> for disjoint-support, norm-1 observables.
The global figure takes the minimum over qubit pairs of the best single-site
Pauli pair, so it measures how correlated the *least* correlated pair is.
On permutation-symmetric states every subset pair has the same connected
tensor, so the w = 2 sign-operator ascent runs once per state.
"""

import adaptstab.densesim as ds
from adaptstab.bounds import approximate_tolerance_table
from adaptstab.metrics import (
    correlation_strength_w,
    global_correlation,
    pauli_correlation_range,
)


def main():
    n = 6
    print(f"global correlation at n = {n}")
    for family, params in (("ghz", (n,)), ("w", (n,)), ("dicke", (n, 2)), ("hypergraph", (n,))):
        s = ds.make_state(family, *params)
        print(f"  {family}{params}: {global_correlation(s):.6f}")

    print("\ncorrelation range (largest region with all pairs correlated)")
    for family, params in (("ghz", (8,)), ("w", (8,)), ("hypergraph", (6,))):
        s = ds.make_state(family, *params)
        print(f"  {family}{params}: CR = {pauli_correlation_range(s)}")

    print("\nw = 2 correlation strength, alternating-sign ascent (n = 12)")
    for family, params in (("w", (12,)), ("dicke", (12, 3)), ("ghz", (12,))):
        s = ds.make_state(family, *params)
        rep = correlation_strength_w(s, range(s.n), 2, "alternating-sign")
        print(f"  {family}{params}: {rep.value:.6f} at a1 = {rep.pair['a1']}, a2 = {rep.pair['a2']}")

    print("\nW-state Z-product check: Cor(Z^w, Z^w) = 4 w^2 / n^2")
    for w in (1, 2, 3):
        o1 = ds.pauli_op(range(w), "Z" * w)
        o2 = ds.pauli_op(range(w, 2 * w), "Z" * w)
        dense = abs(ds.correlation(ds.w_state(8), o1, o2))
        print(f"  w = {w}: dense {dense:.6f} vs 4w^2/n^2 = {4 * w * w / 64:.6f}")

    print("\nphase-identification tolerance table (delta^2 / 36)")
    for family in ("ghz", "w", "hypergraph"):
        row = approximate_tolerance_table(family, 6)
        print(
            f"  {family}: formula {row['formula']},"
            f" delta_computed {row['delta_computed']:.6g},"
            f" tolerance {row['tolerance_computed']:.3e}"
        )


if __name__ == "__main__":
    main()
