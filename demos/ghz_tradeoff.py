"""Ancilla/depth trade-off for adaptive GHZ preparation.

Fusing block leaders with mid-circuit parity measurements buys constant
depth at the price of one ancilla per extra block: n_a = ceil(n/a) - 1
ancillas leave only a fan-out tree of depth ceil(log_K a) per block, and
(n_a + 1) * K^L stays within a factor 2 of n across the sweep.
"""

from adaptstab.circuit import depth, fanout_depth, ghz_adaptive
from adaptstab.prep import verify_preparation
from adaptstab.tableau import ghz_state


def main():
    n, K = 16, 2
    print(f"n = {n}, K = {K}")
    print(f"{'a':>3} {'ancillas':>9} {'depth':>6} {'fanout L':>9} {'(n_a+1)K^L':>11} verified")
    for a in (1, 2, 4, 8, 16):
        circ = ghz_adaptive(n, a, K)
        n_a = circ.m - n
        fan = fanout_depth(a, K)
        rep = verify_preparation(circ, ghz_state(n), trials=6)
        sat = (n_a + 1) * K**fan
        print(
            f"{a:>3} {n_a:>9} {depth(circ):>6} {fan:>9} {sat:>11}"
            f" {rep['all_match']}"
        )
    print("\na = n is the measurement-free extreme: log-depth, zero ancillas.")
    print("a = 1 is the opposite: depth stays constant, ancillas grow as n - 1.")


if __name__ == "__main__":
    main()
