"""Every diagnosed error survives pickle.

The package sends no error between processes itself. Pickle is how a
caller's multiprocessing or concurrent.futures pool carries an error back
to its parent, so each error must round-trip through it."""

from __future__ import annotations

import pickle

import pytest

from clustersc import errors


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


ERRORS = sorted(set(subclasses(errors.ClusterScError)), key=lambda cls: cls.__name__)
# constructor arguments of the errors that take more than a message
ARGS = {errors.DegenerateClusterError: (1, 2)}


def test_every_error_is_covered():
    assert len(ERRORS) == 12


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    error = cls(*ARGS.get(cls, ("what went wrong",)))
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert str(back) == str(error)
    assert back.args == error.args
    assert vars(back) == vars(error)
