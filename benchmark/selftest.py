"""Self-test of the benchmark, at reduced size.

    python3 benchmark/selftest.py

Checks the checker's own Pauli algebra against numpy.kron matrices, then
runs every workload twice, traced, at ``--scale small`` with one seed and
asserts that the traced counters are identical between the two runs, that
every correctness check passes and that no operation fails.
"""

from __future__ import annotations

import random
import sys

import numpy as np

import run as bench

import checker as ck

COUNTER_SUFFIXES = (".calls", ".branches", ".spans")


def check_pauli_algebra(trials: int = 200) -> None:
    rng = random.Random(7)
    for _ in range(trials):
        n = rng.randint(1, 4)
        a = ck.Pauli(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))
        b = ck.Pauli(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))
        assert np.allclose((a * b).dense(), a.dense() @ b.dense()), "Pauli product phase"
        ab, ba = a.dense() @ b.dense(), b.dense() @ a.dense()
        assert a.commutes(b) == np.allclose(ab, ba), "commutation test"
        assert ck.Pauli.parse(("+" if a.r % 2 == 0 else "+i") + a.letters()).letters() == a.letters()
    gens = ck.ghz_stabilizers(3)
    ghz = ck.Group(3, gens)
    product = gens[0] * gens[1]
    assert ghz.sign_of(product) == 1
    assert ghz.sign_of(ck.Pauli(3, product.x, product.z, product.r + 2)) == -1
    assert ghz.sign_of(ck.Pauli.parse("+ZII")) is None
    assert not ck.Group(2, ck.parse_all(["+ZZ", "+ZZ"])).independent


def counters(values: dict) -> dict:
    return {k: v for k, v in values.items() if k.endswith(COUNTER_SUFFIXES)}


def main() -> int:
    check_pauli_algebra()
    print("checker algebra: ok")
    ok = True
    for workload in ("code-prep", "ghz-verify", "state-metrics"):
        first, second = (bench.execute(workload, seed=3, seconds=0.5, trace=True, scale="small") for _ in range(2))
        same = counters(first["values"]) == counters(second["values"])
        problems = first["problems"] + second["problems"]
        failed = first["failed"] + second["failed"]
        ok &= same and not problems and failed == 0
        print(f"{workload}: counters {'identical' if same else 'DIFFER'}, "
              f"{len(problems)} check failures, {failed} failed operations")
        for line in problems + [f"{k}: {v}" for k, v in {**first['errors'], **second['errors']}.items()]:
            print(f"  {line}")
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
