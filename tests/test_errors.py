"""The error contract: where an error happened, and crossing a pickle."""

import pickle

import pytest

from diproperm import errors
from diproperm.errors import DppError, LabelDomainError, NonConvergedError


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


SUBCLASSES = sorted(set(_subclasses(DppError)), key=lambda c: c.__name__)


def _sample(cls):
    """An instance with its own arguments, located in a file if it can be."""
    if cls is LabelDomainError:
        return cls(2, row=3)
    if cls is NonConvergedError:
        return cls(50, 1.25e-3)
    return cls("something is off", row=4, col=7)


@pytest.mark.parametrize("cls", [DppError, *SUBCLASSES], ids=lambda c: c.__name__)
@pytest.mark.parametrize("perm_index", [None, 6])
def test_error_survives_a_pickle(cls, perm_index):
    # users pickle errors (to store a failed run, or to send it to another
    # process): its type, message and every attribute (location included)
    # must come back
    err = _sample(cls)
    if perm_index is not None:
        err.perm_index = perm_index
    again = pickle.loads(pickle.dumps(err))
    assert type(again) is cls
    assert str(again) == str(err)
    assert again.args == err.args
    assert vars(again) == vars(err)
    assert (again.perm_index, again.row) == (perm_index, err.row)


def test_args_hold_the_message_without_its_location():
    err = errors.ParseError("bad token", row=2, col=5)
    assert (str(err), err.args) == ("bad token (row 2, col 5)", ("bad token",))
    err = LabelDomainError(2, row=3)
    assert str(err) == err.args[0] + " (row 3)" and err.value == 2
