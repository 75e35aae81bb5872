"""The documented input errors of the public entry points, one case each."""

import numpy as np
import pytest

from usynth import bounds, channels, cli, linalg, qubit1, synth
from usynth.channels import choi

X = np.array([[0, 1], [1, 0]], dtype=complex)

ERRORS = {
    "lower_family eps above 1": (
        lambda: bounds.lower_family(1.5, 3), "eps must lie in \\(0, 1\\]"),
    "upper_family eps 1": (lambda: bounds.upper_family(1.0, 3), "eps must lie in \\(0, 1\\)"),
    "choi_mixture of nothing": (lambda: channels.choi_mixture([], []), "empty candidate list"),
    "choi_mixture of mixed dims": (
        lambda: channels.choi_mixture([choi(np.eye(2)), choi(np.eye(3))], [0.5, 0.5]),
        "mixed Choi dimensions"),
    "unitary_distance of mixed dims": (
        lambda: channels.unitary_distance(np.eye(2), np.eye(3)), "dimension mismatch"),
    "diamond_distance of mixed dims": (
        lambda: channels.diamond_distance(choi(np.eye(2)), choi(np.eye(3))),
        "dimension mismatch"),
    "magic_embed of a 3x3": (lambda: qubit1.magic_embed(np.eye(3)), "expects a 2x2 unitary"),
    "magic_embed_batch of a 2x2": (
        lambda: qubit1.magic_embed_batch(np.eye(2)), "expected shape \\(n, 2, 2\\)"),
    "GateSet of unequal lengths": (
        lambda: synth.GateSet(labels=("H", "X"), unitaries=(X,)),
        "labels and unitaries length mismatch"),
    "enumerate_sequences to -1": (
        lambda: synth.enumerate_sequences(synth.standard_gate_set(), -1),
        "max_len must be >= 0"),
    "campbell_mix of nothing": (lambda: synth.campbell_mix(X, []), "empty candidate list"),
    "synth1q --target Foo": (lambda: cli._load_target("Foo"), "unknown named target 'Foo'"),
    "check_unitary with a unit trace": (
        lambda: linalg.check_unitary([[1, 1], [0, 0]]), "not unitary within tolerance"),
}


@pytest.mark.parametrize("call, message", ERRORS.values(), ids=ERRORS.keys())
def test_documented_input_errors_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
