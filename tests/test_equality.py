"""Dataclasses that hold arrays compare and hash by identity; those that hold
only scalars, strings and lists keep value equality."""

import numpy as np
import pytest

import factorlab as fl
from factorlab import cli, protocols

ARRAY_HOLDERS = {
    "DensityMatrix": lambda: fl.werner(0.5),
    "Spectrum": lambda: fl.werner(0.5).spectrum,
    "SchmidtDecomposition": lambda: fl.schmidt_decompose(fl.bell_vector("psi-"), (2, 2)),
    "BlochForm": lambda: fl.to_bloch(fl.werner(0.5)),
    "FactorizationSwitch": fl.u_switch,
    "LocalFilter": lambda: fl.gisin_filter(0.3),
    "Witness": lambda: fl.witness_projector(fl.bell_state("psi-").matrix, 2),
    "ChshSetting": lambda: fl.chsh_maximize(fl.werner(0.9))[1],
    "Isometry": lambda: fl.Isometry.identity(2),
    "BellMeasurementOutcome": lambda: fl.teleport_outcomes(np.array([0.6, 0.8]))[0],
    "OutcomeStack": lambda: protocols.teleport_stack(np.array([0.6, 0.8]), [0], [0]),
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS)
def test_array_holders_compare_by_identity(build):
    a, b = build(), build()
    assert type(a).__name__ in ARRAY_HOLDERS
    assert a == a and a != b
    assert a in [a] and a not in [b]
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_scalar_holders_keep_value_equality():
    assert fl.PptVerdict("PPT", 0.1) == fl.PptVerdict("PPT", 0.1)
    assert fl.NotApplicable(0.25, 0.75) == fl.NotApplicable(0.25, 0.75)
    assert fl.NotApplicable(0.25, 0.75) != fl.NotApplicable(0.25, 0.5)
    assert cli.SweepSpec("werner", 0.0, 1.0, 3, ["C"]) == cli.SweepSpec("werner", 0.0, 1.0, 3, ["C"])
