"""Every validated dataclass holds a read-only copy of each array it checked,
so its checks cannot be undone after construction and the caller's array is
never aliased or frozen."""

import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

import factorlab as fl
from factorlab import linalg, protocols, states


def _outcome_stack(indices, probabilities, post_states, maps, fidelities):
    return protocols.OutcomeStack(2, indices, probabilities, post_states, maps, fidelities, ("x",))


# name -> (constructor, the caller's writable arguments)
HOLDERS = {
    "DensityMatrix": (lambda m: fl.DensityMatrix(m, (2, 2)), [np.eye(4, dtype=complex) / 4]),
    # a switched qutrit pair whose spectrum conjugate carries rather than solves
    "DensityMatrix carried": (lambda m: fl.conjugate(fl.DensityMatrix(m, (3, 3)), fl.identity_switch(9, (3, 3))),
                              [np.diag(np.arange(1.0, 10.0) / 45).astype(complex)]),
    "BlochForm": (fl.BlochForm, [np.zeros(3), np.full(3, 0.1), np.eye(3) / 3]),
    "Witness": (lambda op: fl.Witness(op, (2, 2)), [np.eye(4, dtype=complex)]),
    "ChshSetting": (fl.ChshSetting, [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                                     np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.8, 0.0])]),
    "FactorizationSwitch": (lambda u: fl.FactorizationSwitch(u, (2, 2)),
                            [np.eye(4, dtype=complex)]),
    "LocalFilter": (fl.LocalFilter, [np.diag([0.5, 1.0]), np.diag([1.0, 0.25])]),
    "Isometry": (lambda m: fl.Isometry(m, 2), [np.eye(2, dtype=complex)]),
    "Spectrum": (linalg.Spectrum, [np.array([0.75, 0.25]), np.eye(2, dtype=complex)]),
    "SchmidtDecomposition": (lambda c, u, v: linalg.SchmidtDecomposition(c, u, v, (2, 2)),
                             [np.full(2, np.sqrt(0.5)), np.eye(2, dtype=complex),
                              np.eye(2, dtype=complex)]),
    "OutcomeStack": (_outcome_stack, [np.array([[0, 0]]), np.array([0.25]),
                                      np.array([[1.0, 0.0]], dtype=complex),
                                      np.eye(2, dtype=complex)[None], np.array([1.0])]),
}


def _held_arrays(obj, prefix=""):
    """(name, array) for every ndarray field of obj and of the dataclasses it holds."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            yield prefix + f.name, value
        elif dataclasses.is_dataclass(value):
            yield from _held_arrays(value, f"{prefix}{f.name}.")


@pytest.mark.parametrize("name", HOLDERS)
def test_every_array_field_is_a_read_only_copy(name):
    build, args = HOLDERS[name]
    before = [a.copy() for a in args]
    obj = build(*args)
    held = dict(_held_arrays(obj))
    assert len(held) >= len(args)
    for field_name, a in held.items():
        assert not a.flags.writeable, field_name
        with pytest.raises(ValueError, match="read-only"):
            a.reshape(-1)[0] = 0
        assert not any(np.shares_memory(a, arg) for arg in args), field_name
    for arg, old in zip(args, before):
        assert arg.flags.writeable
        np.testing.assert_array_equal(arg, old)
        arg.reshape(-1)[0] = 0  # still the caller's to change, without touching obj
    for field_name, a in _held_arrays(obj):
        np.testing.assert_array_equal(a, held[field_name])


def test_outcomes_hold_read_only_rows_of_the_stack():
    stack = protocols.teleport_stack(np.array([0.6, 0.8]), *states.weyl_indices(2))
    for out in stack.outcomes():
        assert not out.post_state.flags.writeable
        assert np.shares_memory(out.post_state, stack.post_states)
        assert not out.correction.map.flags.writeable
        assert not np.shares_memory(out.correction.map, stack.maps)


def test_broken_laws_cannot_be_written_in():
    stack = protocols.teleport_stack(np.array([0.6, 0.8]), [0], [0])
    setting = fl.chsh_maximize(fl.werner(0.9))[1]
    writes = [
        lambda: stack.probabilities.__setitem__(0, 0.9),
        lambda: fl.gisin_filter(0.3).t_left.__setitem__((1, 1), 7.0),
        lambda: setting.a.__setitem__(slice(None), 0.0),
        lambda: fl.schmidt_decompose(fl.bell_vector("psi-"), (2, 2)).coefficients.__setitem__(0, 5.0),
        lambda: fl.herm_eigensystem(np.eye(2)).vectors.__setitem__((0, 0), 5.0),
    ]
    for write in writes:
        with pytest.raises(ValueError, match="read-only"):
            write()
    assert stack.outcomes()[0].probability == pytest.approx(0.25)


def test_setflags_is_called_only_by_hold():
    package = Path(fl.__file__).parent
    found = {p.name: p.read_text().count("setflags(") for p in package.glob("*.py")}
    assert {name: n for name, n in found.items() if n} == {"linalg.py": 1}
    assert "setflags(" in inspect.getsource(linalg.hold)
