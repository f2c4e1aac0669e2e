"""The frozen record base: binding, immutability, equality, repr and replace."""

import pytest

from rosenau import InputDomainError, ModelParams, QuadratureConfig, TailBound
from rosenau.bounds import EnvelopeReport
from rosenau.records import FrozenInstanceError, Record, replace

P = ModelParams(1.0, 1.0, 1.0, 2.0, 1)


class Pair(Record):
    first: float
    second: float = 0.5


class OtherPair(Record):
    first: float
    second: float = 0.5


def test_fields_are_bound_in_order_with_defaults():
    assert Pair._fields == ("first", "second")
    assert vars(Pair(1.0)) == {"first": 1.0, "second": 0.5}
    assert vars(Pair(second=2.0, first=1.0)) == {"first": 1.0, "second": 2.0}
    assert list(vars(P)) == ["delta", "mu", "kappa", "theta", "dim"]


def test_assignment_and_deletion_are_refused():
    with pytest.raises(FrozenInstanceError, match="'delta'"):
        P.delta = 2.0
    with pytest.raises(FrozenInstanceError, match="'mu'"):
        del P.mu
    with pytest.raises(AttributeError):
        P.extra = 1
    assert P.delta == 1.0 and P.mu == 1.0 and not hasattr(P, "extra")


def test_equality_and_hash_by_class_and_values():
    same = ModelParams(delta=1.0, mu=1.0, kappa=1.0, theta=2.0, dim=1)
    assert same == P and hash(same) == hash(P)
    assert ModelParams(1.0, 2.0, 1.0, 2.0, 1) != P
    assert len({P, same, ModelParams(1.0, 2.0, 1.0, 2.0, 1)}) == 2
    # equal values in another class are not equal
    assert Pair(1.0, 2.0) == Pair(1.0, 2.0)
    assert Pair(1.0, 2.0) != OtherPair(1.0, 2.0)
    assert Pair(1.0, 2.0).__eq__((1.0, 2.0)) is NotImplemented


def test_repr_lists_every_field():
    tail = TailBound(kind="gaussian", amplitude=2.0, rate=0.25)
    assert repr(tail) == "TailBound(kind='gaussian', amplitude=2.0, rate=0.25, cutoff=0.0)"
    assert repr(Pair(1)) == "Pair(first=1, second=0.5)"


def test_replace_changes_fields_and_validates_again():
    changed = replace(P, dim=3)
    assert changed == ModelParams(1.0, 1.0, 1.0, 2.0, 3) and P.dim == 1
    with pytest.raises(InputDomainError, match="delta must be positive"):
        replace(P, delta=-1)
    with pytest.raises(TypeError, match="'nu'"):
        replace(P, nu=1.0)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((1.0, 2.0, 3.0), {}, "takes 2 arguments but 3 were given"),
        ((1.0,), {"third": 3.0}, "unexpected keyword argument 'third'"),
        ((1.0,), {"first": 2.0}, "multiple values for argument 'first'"),
        ((), {"second": 2.0}, "missing required argument 'first'"),
    ],
)
def test_bad_arguments_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Pair(*args, **kwargs)


def test_defaults_are_not_shared_between_instances():
    with pytest.raises(ValueError, match="mutable default"):

        class Shared(Record):
            items: list = []

    # a record that holds a dict takes it from its caller, one per instance
    first, second = (EnvelopeReport(1.0, None, None, None, {}) for _ in range(2))
    assert first.components is not second.components


def test_post_init_runs_on_every_construction():
    with pytest.raises(InputDomainError):
        QuadratureConfig(rel_tol=-1.0)
    with pytest.raises(InputDomainError):
        TailBound(kind="power")
