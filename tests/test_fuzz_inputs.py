"""Malformed inputs through the command line, and JSON round trips.

Valid tableau JSON, circuit JSON, code text and partition JSON are mutated
by hypothesis: values swapped for other JSON values or deleted, text cut,
spliced or given stray characters.  Each input runs through ``cli.main``
(``weight``, ``bounds``, ``lightcone``, ``prep --partition``), as do state
specs built from the loader's tokens (``weight``, ``cor``).  Every run
exits 0-3 and writes exactly one JSON report; a failure is reported as an
``error`` object, never escapes as a traceback, and is never an
``AssertionError``, ``KeyError`` or ``TypeError`` (a missing or misshapen
field is a ``ValueError`` naming it).  The tableau and circuit serializers
must round-trip.
"""

from __future__ import annotations

import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from adaptstab import circuit as ci
from adaptstab import cli
from adaptstab import tableau as tb
from adaptstab.circuit import AdaptiveCircuit, Condition, Gate, Measure
from adaptstab.cli import main
from test_cli import _JSON_VALUES, _slots, mutated_circuits
from test_tableau_paths import _ONE_Q

# Well-formed Paulis of any small width, and strings that only look like one.
_PAULI_TEXT = st.tuples(st.sampled_from(("", "+", "-", "i", "-i")), st.text("IXYZ", min_size=1, max_size=6)).map("".join)
_VALUES = st.one_of(_PAULI_TEXT, st.lists(_PAULI_TEXT, max_size=4), st.text("+-iIXYZ", max_size=5), _JSON_VALUES)


# A misshapen field is a ValueError naming it; these kinds mean one was read
# unchecked, or an internal check failed.
_UNEXPECTED = ("AssertionError", "KeyError", "TypeError")


def run_cli(argv: list[str]) -> tuple[int, dict]:
    """Exit code and the one JSON report of ``main(argv)``."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    report = json.loads(out.getvalue())  # one document: trailing text would not parse
    assert code in (0, 1, 2, 3), (argv, report)
    if "error" in report:
        assert code in (1, 3) and report["error"]["kind"] not in _UNEXPECTED, report
    return code, report


def mutate_doc(draw, doc):
    """``doc`` with one to three nested values replaced or deleted; a string
    is as often replaced by a Pauli of another width or sign."""
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = slots[draw(st.integers(0, len(slots) - 1))]
        if draw(st.booleans()):
            like = isinstance(container[key], str) and draw(st.booleans())
            container[key] = draw(_PAULI_TEXT if like else _VALUES)
        else:
            del container[key]
    return doc


def mutate_text(draw, text):
    """``text`` cut short, with a span deleted, or with stray characters."""
    kind = draw(st.sampled_from(("cut", "delete", "insert")))
    i = draw(st.integers(0, len(text)))
    if kind == "cut":
        return text[:i]
    if kind == "delete":
        return text[:i] + text[i + draw(st.integers(1, 4)) :]
    return text[:i] + draw(st.text("IXYZ+-i#{}[]\",:0123 \n", min_size=1, max_size=3)) + text[i:]


@st.composite
def tableau_texts(draw):
    """Tableau JSON of a small state, mutated; sometimes only its generators."""
    t = tb.random_stabilizer_state(draw(st.integers(1, 4)), draw(st.integers(0, 2**31 - 1)))
    doc = tb.to_json(t)
    if draw(st.booleans()):
        del doc["destabilizers"]
    doc = mutate_doc(draw, doc)
    text = json.dumps(doc)
    return mutate_text(draw, text) if draw(st.integers(0, 4)) == 0 else text


_CODES = ("ZZI\nIZZ\n", "# steane\nXIXIXIX\nIXXIIXX\nIIIXXXX\nZIZIZIZ\nIZZIIZZ\nIIIZZZZ\n", "XX\nZZ\n", "XXXX\nZZZZ\n")


@st.composite
def code_texts(draw):
    """Check-list text or a JSON code object, mutated."""
    text = draw(st.sampled_from(_CODES))
    if draw(st.booleans()):
        checks = [line for line in text.splitlines() if line and not line.startswith("#")]
        doc = mutate_doc(draw, {"name": "fuzz", "n": len(checks[0]), "checks": checks})
        return json.dumps(doc)
    return mutate_text(draw, text)


@st.composite
def partition_texts(draw):
    """A partition for ``repetition(3)``, mutated."""
    doc = {"s1": ["+ZZI", "+IZZ"], "s2": ["+XXX"], "phi": draw(st.sampled_from(("plus", "zero")))}
    text = json.dumps(mutate_doc(draw, doc))
    return mutate_text(draw, text) if draw(st.integers(0, 4)) == 0 else text


def _write(tmp: str, name: str, text: str) -> str:
    path = Path(tmp) / name
    path.write_text(text)
    return str(path)


@settings(max_examples=80, deadline=None)
@given(tableau_texts())
def test_mutated_tableau_json_gets_one_report(text):
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(["weight", _write(tmp, "t.json", text)])


@settings(max_examples=40, deadline=None)
@given(mutated_circuits(), tableau_texts())
def test_mutated_circuit_and_target_get_one_report(circuit_text, target_text):
    with tempfile.TemporaryDirectory() as tmp:
        cpath, tpath = _write(tmp, "c.json", circuit_text), _write(tmp, "t.json", target_text)
        run_cli(["bounds", "--circuit", cpath, "--target", tpath])
        run_cli(["lightcone", "--circuit", cpath, "--from", "0,1"])


@settings(max_examples=60, deadline=None)
@given(code_texts())
def test_mutated_code_text_gets_one_report(text):
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(["prep", _write(tmp, "code.txt", text), "--verify", "exhaustive", "--seed", "0"])


@settings(max_examples=100, deadline=None)
@given(partition_texts())
def test_mutated_partition_json_gets_one_report(text):
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(["prep", "builtin:repetition3", "--partition", _write(tmp, "p.json", text), "--seed", "0"])


# State specs from the loader's family names (and two code names), the
# ``builtin:`` alias, colons, digits and parentheses: any mix of them, or a
# name followed by the rest, so that many are well formed.  At most two digits
# in a row keep every size small.
_SPEC_NAMES = (*cli._FAMILIES, "steane", "repetition")
_SPEC_MARKS = (":", "(", ")", *"0123456789")
_SPECS = st.one_of(
    st.lists(st.sampled_from((*_SPEC_NAMES, "builtin:", *_SPEC_MARKS)), max_size=6).map("".join),
    st.tuples(
        st.sampled_from(("", "builtin:")), st.sampled_from(_SPEC_NAMES), st.lists(st.sampled_from(_SPEC_MARKS), max_size=5).map("".join)
    ).map("".join),
).filter(lambda s: not re.search(r"\d{3}", s))


@settings(max_examples=150, deadline=None)
@given(_SPECS)
def test_state_specs_get_one_report(spec):
    for command in ("weight", "cor"):
        _, report = run_cli([command, spec, "--seed", "0"])
        assert report.get("error", {}).get("kind") != "IndexError", report


# -- round trips --------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**31 - 1))
def test_tableau_json_round_trip(n, seed):
    t = tb.random_stabilizer_state(n, seed)
    doc = tb.to_json(t)
    back = tb.from_json(doc)
    assert tb.to_json(back) == doc
    assert tb.states_equal(back, t)
    assert tb.states_equal(tb.from_json({"n": doc["n"], "generators": doc["generators"]}), t)


@st.composite
def circuits(draw):
    """Layers of gates (some conditioned, merged or CP) and measurements on
    disjoint qubits; not necessarily a valid adaptive circuit."""
    m = draw(st.integers(2, 6))
    cbits, layers = 0, []
    for _ in range(draw(st.integers(0, 5))):
        free = list(draw(st.permutations(range(m))))
        layer = []
        while free and draw(st.booleans()):
            kind = draw(st.sampled_from(("one", "two", "measure")))
            if kind == "measure":
                layer.append(Measure(free.pop(), cbits))
                cbits += 1
                continue
            if kind == "two" and len(free) >= 2:
                name = draw(st.sampled_from(("CNOT", "CZ", "SWAP", "CP")))
                qubits, pauli = (free.pop(), free.pop()), draw(st.sampled_from("XYZ")) if name == "CP" else None
            else:
                name, qubits, pauli = draw(st.sampled_from(_ONE_Q)), (free.pop(),), None
            cond = None
            if cbits and draw(st.booleans()):
                bits = tuple(draw(st.lists(st.integers(0, cbits - 1), min_size=1, max_size=3, unique=True)))
                cond = Condition(bits, draw(st.integers(0, 1)))
            layer.append(Gate(name, qubits, pauli, cond, draw(st.booleans())))
        layers.append(layer)
    return AdaptiveCircuit(m, cbits + draw(st.integers(0, 2)), layers)


@settings(max_examples=100, deadline=None)
@given(circuits())
def test_circuit_json_round_trip(c):
    text = ci.to_json(c)
    back = ci.from_json(text)
    assert back == c
    assert ci.to_json(back) == text
