"""The package surface: lazy exports and the value classes' contract."""

import importlib

import pytest

import kacmax
from kacmax import (
    AlphaExpansion,
    ExtendedYoungDiagram,
    LatticePath,
    MaxWeightReport,
    PathSequence,
    maximal_dominant_weights,
)


def test_every_export_resolves_to_its_defining_object():
    for name in kacmax.__all__:
        obj = getattr(kacmax, name)
        home = obj.__module__
        assert home.startswith("kacmax."), (name, home)
        assert getattr(importlib.import_module(home), name) is obj, name
        assert name in dir(kacmax), name
    namespace = {}
    exec("from kacmax import *", namespace)
    assert set(kacmax.__all__) <= set(namespace)


def test_second_implementations_are_not_in_the_package():
    # no command runs them; they live in tests/oracles.py as references
    for name in ("u_closed_form", "u_recursive", "level2_explicit_weights", "enumerate_S_bruteforce"):
        with pytest.raises(AttributeError, match=name):
            getattr(kacmax, name)
    assert not hasattr(importlib.import_module("kacmax.patterns"), "count_avoiding_bruteforce")
    # _EXPORTS is the one list of public names
    for module in kacmax._EXPORTS:
        assert not hasattr(importlib.import_module(f"kacmax.{module}"), "__all__"), module


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        kacmax.no_such_name
    with pytest.raises(ImportError):
        exec("from kacmax import no_such_name", {})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AlphaExpansion(1, 1, 0, (0,)), "need n >= 2, got 1"),
        (lambda: AlphaExpansion(3, 0, 0, (0, 0, 0)), "need k >= 1, got 0"),
        (lambda: AlphaExpansion(3, 1, 3, (0, 0, 0)), "need 0 <= s < n = 3, got 3"),
        (lambda: AlphaExpansion(3, 1, 0, (0, 0)), "m must have 3 entries, got 2"),
        (lambda: LatticePath(""), "nonempty string over R/U"),
        (lambda: LatticePath("RXU"), "nonempty string over R/U"),
        (lambda: LatticePath("RRU"), "equally many R and U moves"),
        (lambda: PathSequence(1, 1, ()), "need k >= 2, got 1"),
        (lambda: PathSequence(1, 3, (LatticePath("RU"),)), "expected 2 paths, got 1"),
        (lambda: PathSequence(2, 2, (LatticePath("RU"),)), "every path must cross an 2-column"),
        (lambda: ExtendedYoungDiagram((1,)), "must be nonpositive"),
        (lambda: ExtendedYoungDiagram((-1, -2)), "must be weakly increasing"),
        (lambda: ExtendedYoungDiagram((-1, 0)), "trailing zero columns"),
    ],
)
def test_value_classes_validate(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _samples():
    path = LatticePath("RURU")
    return [
        AlphaExpansion(n=3, k=2, s=1, m=(1, 0, 0)),
        maximal_dominant_weights(3, 2, 0),
        path,
        PathSequence(2, 3, (path, path)),
        ExtendedYoungDiagram((-2, -1)),
    ]


def test_value_classes_are_immutable_and_hash_their_fields():
    for value in _samples():
        fields = tuple(getattr(value, f) for f in value._fields)
        # the hash a frozen dataclass with these fields had, and a plain tuple has
        assert hash(value) == hash(fields), value
        assert value == type(value)(*fields) and hash(type(value)(*fields)) == hash(value)
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
        with pytest.raises(AttributeError):
            value.extra = 1


def test_value_classes_repr_and_fields():
    assert repr(AlphaExpansion(2, 1, 0, (0, 0))) == "AlphaExpansion(n=2, k=1, s=0, m=(0, 0))"
    assert repr(LatticePath("RU")) == "LatticePath(moves='RU')"
    assert repr(PathSequence(1, 2, (LatticePath("RU"),))) == (
        "PathSequence(ell=1, k=2, paths=(LatticePath(moves='RU'),))"
    )
    assert repr(ExtendedYoungDiagram()) == "ExtendedYoungDiagram(entries=())"
    assert MaxWeightReport._fields == (
        "n", "k", "s", "weights", "count", "formula_count", "agree"
    )
    # the field `count` shadows tuple.count
    report = maximal_dominant_weights(3, 2, 0)
    assert (report.count, report.formula_count, report.agree) == (2, 2, True)
    # str keeps the CLI's text forms
    assert str(LatticePath("RU")) == "RU"
    assert str(ExtendedYoungDiagram((-2, -1))) == "[-2,-1]"


def test_alpha_expansion_sorts_by_n_k_s_m():
    weights = [
        AlphaExpansion(3, 2, 0, (1, 0, 0)),
        AlphaExpansion(2, 3, 0, (0, 0)),
        AlphaExpansion(3, 1, 2, (0, 0, 0)),
        AlphaExpansion(3, 2, 0, (0, 1, 1)),
        AlphaExpansion(3, 1, 0, (5, 0, 0)),
    ]
    assert sorted(weights) == sorted(weights, key=lambda w: (w.n, w.k, w.s, w.m))
    assert [w.n for w in sorted(weights)] == [2, 3, 3, 3, 3]
    # a named tuple: equal to the plain tuple of its fields
    assert AlphaExpansion(2, 1, 0, (0, 0)) == (2, 1, 0, (0, 0))

