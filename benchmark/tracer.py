"""Spans and counters recorded from outside the package.

The tracer replaces each listed public function with a timing wrapper on
every module binding that holds it (``adaptstab.tableau.apply_gate`` and
``adaptstab.circuit.apply_gate`` are one function bound twice), so calls
made inside the package are seen as well as the benchmark's own calls.
Spans stay in memory as ``(name id, start, end, parent index)`` and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# Functions timed by span, by defining module.  A name missing from the
# package (removed by a later change) is skipped and reads as zero calls.
TIMED = {
    "pauli": ["gf2_solve", "gf2_membership"],
    "tableau": [
        "apply_gate",
        "measure_pauli",
        "states_equal",
        "factor_out_qubit",
        "from_stabilizers",
        "validate_tableau",
    ],
    "circuit": ["simulate"],
    "prep": [
        "prepare_state",
        "x_type_logicals",
        "synthesize_measurement_circuit",
        "edge_color_bipartite",
        "build_tangling",
        "edge_color_general",
        "verify_preparation",
    ],
    "metrics": [
        "group_elements",
        "min_weight_generators",
        "weight_vector_oracle",
        "correlation_strength_w",
        "pauli_correlation_range",
    ],
    "densesim": ["make_state", "from_tableau"],
    "cli": ["main"],
}

# The resource-bound report, timed as one layer.
BOUNDS_FUNCTIONS = [
    "check_nonadaptive",
    "check_adaptive_weight",
    "check_clifford_adaptive",
    "check_correlation",
]

BRANCH_CHILD, BRANCH_PARENT = "circuit.simulate", "prep.verify_preparation"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.products = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, parent)

        return wrapper

    def run_span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span recorded by the benchmark itself."""
        return self.timed(name, fn)(*args)

    def _counting(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.products += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "adaptstab" and not modname.startswith("adaptstab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self, program) -> None:
        for modname, fnames in TIMED.items():
            module = getattr(program, modname)
            for fname in fnames:
                original = getattr(module, fname, None)
                if original is not None:
                    self._rebind(original, self.timed(f"{modname}.{fname}", original))
        for fname in BOUNDS_FUNCTIONS:
            original = getattr(program.bounds, fname, None)
            if original is not None:
                self._rebind(original, self.timed(f"bounds.{fname}", original))
        profile = getattr(program.bounds, "ResourceProfile", None)
        if profile is not None and isinstance(vars(profile).get("from_circuit"), classmethod):
            method = vars(profile)["from_circuit"]
            self._restore.append((profile, "from_circuit", method))
            profile.from_circuit = classmethod(self.timed("bounds.ResourceProfile.from_circuit", method.__func__))
        # Row products: count only; a span per product would cost more than
        # the product itself.
        pauli_cls = getattr(program.pauli, "PauliOperator", None)
        for attr in ("multiply", "__mul__"):
            method = vars(pauli_cls).get(attr) if pauli_cls is not None else None
            if method is not None:
                self._restore.append((pauli_cls, attr, method))
                setattr(pauli_cls, attr, self._counting(method))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reduction -------------------------------------------------------------

    def pass_profile(self, first_span: int) -> tuple[Counter, Counter, int]:
        """Calls and self time by name for spans recorded since ``first_span``,
        plus the number of simulations run inside branch verification."""
        spans = self.spans[first_span:]
        child_time = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= first_span:
                child_time[parent - first_span] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        branches = 0
        for i, (nid, start, end, parent) in enumerate(spans):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            if (
                name == BRANCH_CHILD
                and parent >= first_span
                and self.names[self.spans[parent][0]] == BRANCH_PARENT
            ):
                branches += 1
        return calls, self_s, branches

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            **meta,
            "fields": ["name", "start_s", "end_s", "parent"],
            "names": self.names,
            "spans": [[nid, round(s - origin, 7), round(e - origin, 7), p] for nid, s, e, p in self.spans],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
