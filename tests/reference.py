"""A reference interpreter for pipeline specs: the parity oracle.

It runs a spec the plainest way there is. Each step's primitive is built
from the step's registry name and hyperparameters; then, step by step, it
calls ``fit`` (when fitting), ``produce`` or ``update`` on a plain dict of
named variables. It uses no plan IR, fusion, arena or executor, so the
engine's planes — detect, batch, fleet, a process fan-out — are checked
against it instead of against each other.

:func:`assert_same` compares two contexts bitwise, variable by variable,
and :func:`nudge` moves one float of a context by one ulp: every property
checked against the reference must fail on a nudged context.
"""

import copy

import numpy as np

from repro.core.primitive import get_primitive


def run(spec: dict, primitives: list, context: dict, fit: bool = False,
        update: bool = False) -> dict:
    """Run every step over ``context``, in order, and return it.

    ``fit`` fits each step on the context before it produces. ``update``
    routes ``supports_stream`` primitives through ``update`` instead of
    ``produce`` (the stream plane).
    """
    for step, primitive in zip(spec["steps"], primitives):
        inputs = step.get("inputs", {})
        outputs = step.get("outputs", {})

        def args(names):
            return {name: context[inputs.get(name, name)] for name in names}

        if fit and primitive.fit_args:
            primitive.fit(**args(primitive.fit_args))
        call = primitive.update if update and primitive.supports_stream \
            else primitive.produce
        produced = call(**args(primitive.produce_args))
        context.update({outputs.get(name, name): value
                        for name, value in produced.items()})
    return context


def build(spec: dict) -> list:
    """Each step's primitive, built unfitted from the spec."""
    return [get_primitive(step["primitive"], step.get("hyperparameters"))
            for step in spec["steps"]]


def fit(spec: dict, data, **variables) -> list:
    """Build each step's primitive from the spec and fit it on ``data``.

    Returns the fitted primitives, one per step.
    """
    primitives = build(spec)
    run(spec, primitives, {"data": np.asarray(data, dtype=float),
                           "events": None, **variables}, fit=True)
    return primitives


def detect(spec: dict, primitives: list, data) -> dict:
    """The final context of one produce pass over ``data``."""
    return run(spec, primitives,
               {"data": np.asarray(data, dtype=float), "events": None})


def assert_same(actual, expected, path: str = "context") -> None:
    """Assert ``actual`` equals ``expected`` bit for bit, recursively.

    Arrays and numbers must match in dtype, shape and bytes (so ``0.0``
    differs from ``-0.0`` and a one-ulp move is caught); dicts must have
    the same keys; sequences the same length.
    """
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert actual.keys() == expected.keys(), path
        for key in expected:
            assert_same(actual[key], expected[key], f"{path}[{key!r}]")
        return
    numeric = (np.ndarray, np.generic, float, int)
    if isinstance(expected, numeric) or isinstance(actual, numeric):
        actual, expected = np.asarray(actual), np.asarray(expected)
        if expected.dtype == object or actual.dtype == object:
            assert_same(actual.tolist(), expected.tolist(), path)
            return
        assert actual.dtype == expected.dtype, f"{path}: dtype"
        assert actual.shape == expected.shape, f"{path}: shape"
        assert actual.tobytes() == expected.tobytes(), f"{path}: values"
        return
    if isinstance(expected, (list, tuple)):
        assert isinstance(actual, (list, tuple)), path
        assert len(actual) == len(expected), f"{path}: length"
        for index, (one, other) in enumerate(zip(actual, expected)):
            assert_same(one, other, f"{path}[{index}]")
        return
    assert actual == expected, path


def nudge(context: dict) -> dict:
    """A deep copy of ``context`` with one float moved up by one ulp.

    The first non-empty float array (in variable-name order, looking
    inside lists) has its first element replaced by ``np.nextafter``.
    """
    nudged = copy.deepcopy(context)

    def move(value):
        if isinstance(value, np.ndarray) and value.size \
                and np.issubdtype(value.dtype, np.floating):
            value.flat[0] = np.nextafter(value.flat[0], np.inf)
            return True
        if isinstance(value, (list, tuple)):
            return any(move(entry) for entry in value)
        return False

    for name in sorted(nudged):
        if move(nudged[name]):
            return nudged
    raise AssertionError("the context holds no float array to nudge")
