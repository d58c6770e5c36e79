"""The tolerance table as it was when it read ``(family, n, k)``, kept as the
oracle for ``bounds.approximate_tolerance_table(spec)``.

``reference_tolerance_table`` reads a family name (``ghz``, ``w``,
``hypergraph``, or ``dicke(k)`` / ``dickeK`` / ``dicke`` with ``k``), a size
and an optional excitation number, and returns the same row dict the spec
reader must return for ``ghz:n`` or ``dicke:n:k``.  Its hypergraph closed form
raises OverflowError from ``4.0**n`` for n >= 512, so it is compared below that.
"""

from __future__ import annotations

from adaptstab.densesim import dicke_correlation_formula, make_state
from adaptstab.metrics import global_correlation
from adaptstab.tableau import _split_name


def _parse_family(family: str, k: int | None) -> tuple[str, int | None]:
    name, size = _split_name(family)
    k = k if size is None else size
    if name not in ("ghz", "w", "dicke", "hypergraph"):
        raise ValueError(f"unknown state family: {family!r}")
    if name == "dicke" and k is None:
        raise ValueError("dicke family needs an excitation number, e.g. 'dicke(2)'")
    return name, k


def reference_tolerance_table(family: str, n: int, k: int | None = None, compute: bool = True) -> dict:
    name, k = _parse_family(family, k)
    if n < 2:
        raise ValueError("need n >= 2")

    if name == "ghz":
        formula, formula_value = "1/36", 1.0 / 36.0
        delta_formula = 1.0
    elif name == "w":
        formula, formula_value = "O(1/n^eps)", None
        delta_formula = dicke_correlation_formula(n, 1, 1)
    elif name == "dicke":
        if not 0 < k < n:
            raise ValueError("dicke needs 0 < k < n")
        formula, formula_value = "O(k^2/n^2)", None
        delta_formula = dicke_correlation_formula(n, k, 1)
    else:  # hypergraph
        formula, formula_value = "1/(9*4^n)", 1.0 / (9.0 * 4.0**n)
        # Two-point X correlation of the hypergraph state.
        delta_formula = 2.0 ** (2 - n) * (1.0 - 2.0 ** (2 - n))

    row = {
        "family": name,
        "n": n,
        "k": k if name == "dicke" else None,
        "formula": formula,
        "formula_value": formula_value,
        "delta_formula": delta_formula,
        "tolerance_formula": delta_formula**2 / 36.0,
        "delta_computed": None,
        "tolerance_computed": None,
    }
    if compute:
        state = make_state(name, n, k) if name == "dicke" else make_state(name, n)
        delta = global_correlation(state)
        row["delta_computed"] = delta
        row["tolerance_computed"] = delta**2 / 36.0
    return row
