"""Self-time arithmetic of the tracer on a synthetic span tree."""

import pytest

from spans import Tracer


class ScriptedClock:
    """Returns the next scripted reading on each call."""

    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


def test_self_time_is_duration_minus_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds leaf [6, 7].
    clock = ScriptedClock([0, 1, 4, 5, 6, 7, 9, 10])
    t = Tracer(clock=clock)
    leaf = t.wrap("layer.leaf", lambda: None)
    a = t.wrap("layer.a", lambda: None)
    b = t.wrap("other.b", lambda: leaf())
    root = t.wrap("layer.root", lambda: (a(), b()))
    root()

    assert dict(t.self_s) == {"layer.root": 3, "layer.a": 3,
                              "other.b": 3, "layer.leaf": 1}
    assert t.root_s == 10
    assert sum(t.self_s.values()) == t.root_s
    assert t.layer_self_s("layer") == 7
    assert dict(t.calls) == {"layer.root": 1, "layer.a": 1,
                             "other.b": 1, "layer.leaf": 1}
    spans = sorted(t.kept)
    assert [(s[1], s[4]) for s in spans] == [
        ("layer.root", -1), ("layer.a", 0), ("other.b", 0), ("layer.leaf", 2)]


def test_observer_time_is_charged_to_no_span():
    # root [0, 10]; child [2, 5], whose observer runs until 6.
    clock = ScriptedClock([0, 2, 5, 6, 10])
    t = Tracer(clock=clock)
    seen = []
    child = t.wrap("x.child", lambda: 42,
                   observe=lambda tr, args, kwargs, result: seen.append(result))
    root = t.wrap("x.root", lambda: child())
    root()

    assert seen == [42]
    assert t.observer_s == 1
    assert dict(t.self_s) == {"x.root": 6, "x.child": 3}
    assert sum(t.self_s.values()) + t.observer_s == t.root_s


def test_span_closes_when_the_call_raises():
    clock = ScriptedClock([0, 1, 2, 4])

    def boom():
        raise ValueError("no")

    t = Tracer(clock=clock)
    inner = t.wrap("x.inner", boom)

    def outer_body():
        with pytest.raises(ValueError):
            inner()

    t.wrap("x.outer", outer_body)()
    assert dict(t.self_s) == {"x.outer": 3, "x.inner": 1}
    assert not t.stack
