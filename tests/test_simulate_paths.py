"""The shared layer walk against the concrete ``simulate`` loop it replaced.

``simulate`` runs through the same private walk as ``simulate_symbolic``.
On random circuits, with conditioned non-Pauli gates, forced contradictions,
repeated measurements and repeated classical bits, and on the circuits the
package builds, it must give what the earlier loop (``helpers_circuit``)
gives, byte for byte: the tableau JSON with destabilizers and the record,
or the exception type and message.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from adaptstab.circuit import AdaptiveCircuit, Condition, Gate, Measure, ghz_adaptive, simulate
from adaptstab.errors import ContradictionError
from adaptstab.prep import builtin_code, prepare_state, verify_preparation
from adaptstab.tableau import ghz_state, random_stabilizer_state, states_equal, to_json
from helpers_circuit import reference_simulate
from test_tableau_paths import random_gate


def _outcome(fn, circuit, **kwargs):
    """JSON text of (tableau, record), or (exception type, message)."""
    try:
        tab, record = fn(circuit, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the failures must match too
        return type(exc), str(exc)
    return json.dumps(to_json(tab)), record


def _same(circuit, **kwargs):
    got = _outcome(simulate, circuit, **kwargs)
    assert got == _outcome(reference_simulate, circuit, **kwargs), kwargs
    return got


def random_circuit(rng):
    """Random layers of gates, conditioned gates of any kind and measurements,
    with qubits and classical bits free to repeat."""
    n = int(rng.integers(1, 6))
    cbits = int(rng.integers(0, 5))
    layers = []
    for _ in range(int(rng.integers(1, 16))):
        kind = rng.random()
        if kind < 0.3 and cbits:
            layers.append([Measure(int(rng.integers(0, n)), int(rng.integers(0, cbits)))])
        elif kind < 0.5 and cbits:
            name, qubits, pauli = random_gate(n, rng)
            bits = tuple(sorted({int(b) for b in rng.integers(0, cbits, size=int(rng.integers(1, 3)))}))
            xor = int(rng.choice([0, 1, 1, 2]))
            layers.append([Gate(name, qubits, pauli, cond=Condition(bits, xor))])
        else:
            layers.append([Gate(*random_gate(n, rng))])
    return AdaptiveCircuit(n, cbits, layers)


def _kind(result):
    """"tableau", the exception type's name, or the ValueError message with
    its numbers dropped."""
    if isinstance(result[0], str):
        return "tableau"
    if result[0] is not ValueError:
        return result[0].__name__
    return " ".join(w for w in result[1].split() if not w.rstrip(":").isdigit() and w != "layer")


def test_random_circuits_match_reference_loop():
    rng = np.random.default_rng(14)
    seen = set()
    for _ in range(300):
        c = random_circuit(rng)
        runs = [{"seed": s} for s in range(2)]
        runs += [{"forced": [int(b) for b in rng.integers(0, 2, c.cbits)]} for _ in range(3)]
        runs.append({"seed": 7, "initial": random_stabilizer_state(c.m, int(rng.integers(0, 1000)))})
        conditioned = [op for layer in c.layers for op in layer if isinstance(op, Gate) and op.cond and op.op not in "XYZ"]
        for kwargs in runs:
            result = _same(c, **kwargs)
            seen.add(_kind(result))
            # a run that ends writes each bit once, before any condition reads it
            if _kind(result) == "tableau" and any(sum(result[1][b] for b in op.cond.bits) % 2 == op.cond.xor for op in conditioned):
                seen.add("conditioned non-Pauli fired")
    assert seen == {
        "tableau",
        "conditioned non-Pauli fired",
        "ContradictionError",
        "qubit measured a second time",
        "classical bit written twice",
        "condition reads unwritten classical bit",
        "qubit is not in a definite Z eigenstate",
    }


@pytest.mark.parametrize("make", [lambda: prepare_state(builtin_code("toric(2)"))[0], lambda: ghz_adaptive(12, 3, 2)])
def test_built_circuits_match_reference_loop(make):
    c = make()
    rng = np.random.default_rng(c.m)
    for s in range(3):
        _same(c, seed=s)
    for _ in range(4):
        _same(c, forced=[int(b) for b in rng.integers(0, 2, c.cbits)])
    assert isinstance(_same(c, forced=[0] * c.cbits)[0], str)


def test_counterexample_string_replays_its_branch():
    c = ghz_adaptive(6, 2, 2)
    stripped = AdaptiveCircuit(c.m, c.cbits, c.layers[:4] + c.layers[5:])  # no correction layer
    report = verify_preparation(stripped, ghz_state(6), trials=0)
    assert report["counterexample"] == "10"
    tab, record = simulate(stripped, forced="10")
    assert record == [1, 0] and not states_equal(tab, ghz_state(6))
    assert _outcome(simulate, stripped, forced=[1, 0]) == _outcome(simulate, stripped, forced="10")


@pytest.mark.parametrize("forced", [[0], [0, 0, 0], [0, 2], "1", "102"])
def test_forced_of_wrong_length_or_value_raises(forced):
    with pytest.raises(ValueError, match="^forced needs 2 outcome bits, each 0 or 1$"):
        simulate(ghz_adaptive(6, 2, 2), forced=forced)


# -- errors inside one measurement layer ---------------------------------------------------


def _one_layer(ops, prep=()):
    """Qubits 0 and 1 in a Bell pair, qubit 2 in |0>, the ``prep`` layers,
    then ``ops`` as one layer; three classical bits."""
    return AdaptiveCircuit(3, 3, [[Gate("H", (0,))], [Gate("CNOT", (0, 1))], *prep, list(ops)])


_FLIP = [[Gate("X", (1,))]]  # qubit 1 then reads the opposite of qubit 0
_WRITE0 = [[Measure(2, 0)]]  # bit 0 written before the layer

# Each case's error, as the per-measurement walk raised it: a bad classical
# bit or qubit before its own measurement, a classical bit written twice
# after it, so a contradiction on that op or an earlier one comes first.
_LAYER_ERRORS = [
    ([], [Measure(0, 0), Measure(0, 1)], None, ValueError, "layer 2: qubit 0 measured a second time"),
    ([], [Measure(0, 0), Measure(1, 5)], None, ValueError, "classical bit 5 out of range"),
    ([], [Measure(0, 0), Measure(1, -1)], None, ValueError, "classical bit -1 out of range"),
    ([], [Measure(0, 0), Measure(1, 0)], None, ValueError, "classical bit 0 written twice"),
    ([], [Measure(2, 0), Measure(7, 1)], None, ValueError, "qubit 7 out of range for n=3"),
    (_WRITE0, [Measure(1, 0)], None, ValueError, "classical bit 0 written twice"),
    ([], [Measure(2, 0)], [1, 0, 0], ContradictionError, "measurement of +IIZ is deterministic (+1); cannot force -1"),
    # qubit 1 is fixed by qubit 0's outcome, so forcing the other value contradicts
    ([], [Measure(0, 0), Measure(1, 1)], [1, 0, 0], ContradictionError, "measurement of +IZI is deterministic (-1); cannot force +1"),
    # the contradiction on op 0 comes before op 1's repeated qubit
    ([], [Measure(2, 0), Measure(2, 1)], [1, 0, 0], ContradictionError, "measurement of +IIZ is deterministic (+1); cannot force -1"),
    # op 0 fails its bit check before op 1's contradiction
    ([], [Measure(0, 4), Measure(2, 0)], [1, 0, 0], ValueError, "classical bit 4 out of range"),
    # op 1 writes bit 0 again, but its own forced outcome contradicts first
    (_FLIP, [Measure(0, 0), Measure(1, 0)], [1, 0, 0], ContradictionError, "measurement of +IZI is deterministic (+1); cannot force -1"),
    # op 1 writes bit 0 again with a possible outcome: the double write is the error
    ([], [Measure(0, 0), Measure(1, 0)], [1, 0, 0], ValueError, "classical bit 0 written twice"),
]


@pytest.mark.parametrize("prep,ops,forced,error,message", _LAYER_ERRORS)
def test_errors_inside_one_measure_layer(prep, ops, forced, error, message):
    c = _one_layer(ops, prep)
    kwargs = {"seed": 0} if forced is None else {"forced": forced}
    with pytest.raises(error) as info:
        simulate(c, **kwargs)
    assert str(info.value) == message
    if "range" not in message:  # the reference loop has no range checks of its own
        assert _outcome(reference_simulate, c, **kwargs) == (error, message)
