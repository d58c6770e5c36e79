"""Minimal generator weights of a few stabilizer states.

The stabilizer weight wt_s is the largest entry of the lexicographically
minimal non-increasing weight vector over all generating sets.  GHZ states
are the extreme case: one generator (the X string) cannot be made lighter
than n, while every other generator reduces to a weight-2 ZZ pair.
"""

from adaptstab.metrics import min_weight_generators, weight_vector_oracle
from adaptstab.pauli import format_pauli
from adaptstab.prep import builtin_code, prepare_state
from adaptstab.tableau import ghz_state, random_stabilizer_state


def show(label, t):
    picked, vector = min_weight_generators(t)
    oracle = [weight_vector_oracle(t, k) for k in range(1, t.n + 1)]  # one rank sweep per entry
    print(f"{label}: wt_s = {vector[0]}, vector = {list(vector.entries)}")
    print(f"  oracle agrees: {list(vector.entries) == oracle}")
    for g in picked:
        print(f"  {format_pauli(g)}")


def main():
    for n in (4, 6):
        show(f"GHZ_{n}", ghz_state(n))

    _, steane_zero = prepare_state(builtin_code("steane"))
    show("steane logical zero", steane_zero)

    show("random stabilizer state (n=5)", random_stabilizer_state(5, seed=42))


if __name__ == "__main__":
    main()
