"""Resource trade-off checks for adaptive circuits.

Each check compares a resource profile (qubit counts, fan-in, depth,
geometry) against a state metric and reports whether the corresponding
lower bound is respected.  The bounds hold unconditionally: every circuit
built by this package, profiled honestly, must satisfy them, so a failed check
signals a bug in either the circuit construction or the metric.

Checks return structured records instead of asserting so that callers
(CLI, tests) can decide how to surface violations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .circuit import AdaptiveCircuit, Gate, Geometry, depth, g_value, validate
from .densesim import dicke_correlation_formula, make_state
from .errors import ResourceGuardError
from .metrics import WeightVector, _min_weight_picks, global_correlation
from .pauli import _transpose
from .tableau import StabilizerTableau, _split_name

__all__ = [
    "ResourceProfile",
    "check_nonadaptive",
    "check_adaptive_weight",
    "check_clifford_adaptive",
    "check_correlation",
    "weight_checks",
    "approximate_tolerance_table",
]

@dataclass(frozen=True)
class ResourceProfile:
    """Resource usage of a circuit: qubit counts, fan-in, depth, geometry.

    ``n`` counts target qubits, ``m`` the total register (targets plus
    ancillas), so ``n_a = m - n`` ancillas are measured out along the way.
    ``L`` is the circuit depth with measurement layers included.
    """

    n: int
    m: int
    K: int
    L: int
    geometry: Geometry = field(default_factory=Geometry.all_to_all)

    def __post_init__(self) -> None:
        if self.m < self.n:
            raise ValueError(f"m={self.m} < n={self.n}: negative ancilla count")
        if self.L < 0:
            raise ValueError("depth must be >= 0")
        if self.K < 2:
            raise ValueError("fan-in K must be >= 2")

    @property
    def n_a(self) -> int:
        return self.m - self.n

    def to_json(self) -> dict:
        d = {"n": self.n, "m": self.m, "n_a": self.n_a, "K": self.K, "L": self.L}
        if self.geometry.kind == "all":
            d["geometry"] = "all"
        else:
            sides = self.geometry.sides
            d["geometry"] = {"kind": self.geometry.kind, "r": self.geometry.r, "sides": None if sides is None else list(sides)}
        return d

    @classmethod
    def from_circuit(
        cls,
        c: AdaptiveCircuit,
        n_target: int,
        K: int | None = None,
        geometry: Geometry | None = None,
    ) -> "ResourceProfile":
        """Profile a circuit, inferring fan-in from its widest gate.

        The circuit is validated first; profiling an invalid circuit would
        produce meaningless bounds.
        """
        if K is None:
            arities = [len(op.qubits) for layer in c.layers for op in layer if isinstance(op, Gate)]
            K = max(2, max(arities, default=2))
        report = validate(c, K, geometry)
        if not report.ok:
            raise ValueError("cannot profile an invalid circuit: " + "; ".join(report.violations))
        return cls(n=n_target, m=c.m, K=K, L=depth(c), geometry=geometry or Geometry.all_to_all())


def _record(check: str, lhs: float, rhs: float, profile: ResourceProfile) -> dict:
    return {
        "check": check,
        "lhs": lhs,
        "rhs": rhs,
        "satisfied": bool(lhs >= rhs),
        "profile": profile.to_json(),
    }


def check_nonadaptive(profile: ResourceProfile, wt_s: int) -> dict:
    """Lightcone bound for measurement-free circuits: g(K, L) >= wt_s.

    A depth-L non-adaptive circuit maps any single-site operator into the
    lightcone of one qubit, so no stabilizer generator of the output state
    can be heavier than the lightcone volume ``g_value(K, L, geometry)``.
    """
    if profile.n_a != 0:
        raise ValueError("non-adaptive check applies only to profiles without measurements (n_a = 0)")
    lhs = g_value(profile.K, profile.L, profile.geometry)
    return _record("nonadaptive", lhs, wt_s, profile)


def check_adaptive_weight(profile: ResourceProfile, wt_s: int) -> dict:
    """Ancilla/depth trade-off: (n_a + 1) * g(K, 2L-1) >= wt_s.

    The record carries an advisory ``conjectured`` entry evaluating the
    sharper (n_a + 1) * g(K, L) form.  It is informational only and never
    contributes to ``satisfied``.
    """
    if profile.n_a == 0:
        warnings.warn(
            "check_adaptive_weight with n_a = 0 is loose; check_nonadaptive gives the tighter g(K, L) bound",
            stacklevel=2,
        )
    lhs = (profile.n_a + 1) * g_value(profile.K, max(0, 2 * profile.L - 1), profile.geometry)
    rec = _record("adaptive_weight", lhs, wt_s, profile)
    lhs_c = (profile.n_a + 1) * g_value(profile.K, profile.L, profile.geometry)
    rec["conjectured"] = {"lhs": lhs_c, "rhs": wt_s, "satisfied": bool(lhs_c >= wt_s)}
    return rec


def check_clifford_adaptive(profile: ResourceProfile, wt_s: int) -> dict:
    """Clifford-circuit form of the trade-off: (n_a + 1) * K^L >= wt_s."""
    lhs = (profile.n_a + 1) * profile.K**profile.L
    return _record("clifford_adaptive", lhs, wt_s, profile)


def check_correlation(profile: ResourceProfile, w: int, cr_w: float) -> dict:
    """Correlation-range bound: (n_a + w) * g(K, 2L-1) + w - 1 >= CR_w."""
    if w < 1:
        raise ValueError("w must be >= 1")
    if 2 * w > profile.n:
        raise ValueError(f"w={w} needs two disjoint size-w subsets; requires 2w <= n={profile.n}")
    lhs = (profile.n_a + w) * g_value(profile.K, max(0, 2 * profile.L - 1), profile.geometry) + w - 1
    return _record("correlation", lhs, cr_w, profile)


def weight_checks(
    profile: ResourceProfile, target: StabilizerTableau, checks: Sequence[Callable]
) -> tuple[WeightVector | None, list[dict]]:
    """Run each weight check ``check(profile, wt_s)`` against the target's
    stabilizer weight; returns the minimal weight vector and the records.

    wt_s is exact up to the n <= 20 group-enumeration cap.  Above it the
    vector is None and wt_s is replaced by the weight of the heaviest target
    generator, an upper bound on it: a record whose lhs reaches that bound is
    ``"proved"``, any other is ``"inconclusive"`` and never satisfied, and
    each says ``"wt_s_exact": false``.
    """
    try:
        vector = _min_weight_picks(target)[1]
        wt_s = vector[0]
    except ResourceGuardError:  # one transpose of the support planes, no row views
        n = target.n
        support = _transpose([(x | z) & ((1 << n) - 1) for x, z in zip(target.xs, target.zs)], n)
        vector, wt_s = None, max(s.bit_count() for s in support)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        records = [check(profile, wt_s) for check in checks]
    if vector is None:
        for rec in records:
            rec["wt_s_exact"] = False
            rec["status"] = "proved" if rec["satisfied"] else "inconclusive"
    return vector, records


def _parse_family(family: str, k: int | None) -> tuple[str, int | None]:
    name, size = _split_name(family)
    k = k if size is None else size
    if name not in ("ghz", "w", "dicke", "hypergraph"):
        raise ValueError(f"unknown state family: {family!r}")
    if name == "dicke" and k is None:
        raise ValueError("dicke family needs an excitation number, e.g. 'dicke(2)'")
    return name, k


def approximate_tolerance_table(family: str, n: int, k: int | None = None, compute: bool = True) -> dict:
    """Tolerable infidelity that preserves a state's complexity lower bound.

    A state within infidelity delta^2/36 of the target inherits the
    target's correlation-range bound, so each table row reports the closed
    form from the literature together with the correlation strength delta
    behind it.  When ``compute`` is set, the row also carries the exactly
    computed global correlation and the tolerance it implies, which may
    differ from the quoted closed form by a constant factor (the closed
    forms are not always the tightest choice of delta).  Every family is
    permutation-symmetric, so that costs one qubit pair; only the dense
    state's own cap applies.

    Families: ``ghz``, ``w``, ``dicke(k)`` (or ``dickeK``), ``hypergraph``.
    """
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
