"""Tests of the benchmark itself: references, seeding and metric names.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import importlib
import json
import math
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

PARABOLA_LENGTH = 1.4789428575445975  # sqrt(5)/2 + asinh(2)/4
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(params=["mpmath", "float"])
def reference(request, monkeypatch):
    """The reference module, with mpmath and with its float fallback."""
    if request.param == "float":
        monkeypatch.setitem(sys.modules, "mpmath", None)
    module = importlib.reload(ref)
    if request.param == "mpmath" and not module.HAVE_MPMATH:
        pytest.skip("mpmath is not installed")
    yield module
    monkeypatch.undo()
    importlib.reload(ref)


def tight(value, r, width=F(1, 10**9)) -> bool:
    """r lies in [value - width, value + width] and outside intervals three
    widths away on either side."""
    v = F(value)
    return r.within(v - width, v + width) and not r.within(v + 3 * width, v + 4 * width) \
        and not r.within(v - 4 * width, v - 3 * width)


def test_sawtooth_references(reference):
    for n in (1, 3, 6):
        verts = reference.sawtooth_vertices(n)
        assert len(verts) == (1 << (n + 1)) + 1
        assert reference.polyline_length(verts).within(*_sqrt2_bracket())
    assert reference.SAWTOOTH_LENGTH.within(*_sqrt2_bracket())
    assert not reference.SAWTOOTH_LENGTH.within(F(1415, 1000), F(1416, 1000))
    # (|wx + wy| + |wx - wy|) / (2|w|): 1 on both axes, 1/sqrt(2) on the diagonal
    assert tight(1, reference.sawtooth_variation(("ray", F(1), F(0))))
    assert tight(1, reference.sawtooth_variation(("ray", F(0), F(5))))
    assert tight(math.sqrt(0.5), reference.sawtooth_variation(("ray", F(2), F(2))), F(1, 10**12))
    assert tight(math.sqrt(0.5), reference.sawtooth_variation(("pi", F(1, 4))), F(1, 10**9))
    c, s = math.cos(0.25), math.sin(0.25)
    assert tight((abs(c + s) + abs(c - s)) / 2, reference.sawtooth_variation(("rad", F(1, 4))))


def _sqrt2_bracket():
    return F(14142135623, 10**10), F(14142135624, 10**10)


def test_polyline_references(reference):
    square = ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)), (F(0), F(0)))
    assert reference.polyline_length(square) == reference.Bounds(F(4), F(4))
    assert tight(2, reference.polyline_variation(square, ("ray", F(1), F(0))))
    assert tight(2 * math.sqrt(2), reference.polyline_variation(square, ("pi", F(1, 4))), F(1, 10**12))
    steps = ((F(0), F(0)), (F(3), F(4)), (F(3), F(5, 2)))
    assert tight(F(13, 2), reference.polyline_length(steps), F(1, 10**20))
    # tilting (x, y) -> (x, y + x) keeps x and adds x to y
    assert reference.tilt_vertices(steps)[1] == (F(3), F(7))


def test_polynomial_references(reference):
    assert tight(PARABOLA_LENGTH, reference.parabola_length(), F(1, 10**12))
    line = ((F(0), F(3)), (F(0), F(4)))
    assert tight(5, reference.polynomial_length(*line), F(1, 10**9))
    # a quadrature of the parabola that does not take the closed-form branch
    scaled = ((F(0), F(2)), (F(0), F(0), F(2)))
    assert tight(2 * PARABOLA_LENGTH, reference.polynomial_length(*scaled), F(1, 10**9))
    px, py = reference.PARABOLA_X, reference.PARABOLA_Y
    assert tight(1, reference.polynomial_variation(px, py, ("ray", F(0), F(1))))
    assert tight(1, reference.polynomial_variation(px, py, ("ray", F(1), F(0))))
    # <(-1, 1)/sqrt(2), (t, t^2)> falls to -1/(4 sqrt 2) at t = 1/2 and returns to 0
    assert tight(1 / (2 * math.sqrt(2)), reference.polynomial_variation(px, py, ("ray", F(-1), F(1))),
                 F(1, 10**12))


def test_same_seed_same_queries():
    for name in wl.WORKLOADS:
        assert wl.build(name, 7) == wl.build(name, 7)
        assert wl.build(name, 7) != wl.build(name, 8)


def test_seed_keeps_the_mix():
    """A seed changes coordinates and directions, never the kinds or sizes."""
    for name in wl.WORKLOADS:
        a, b = wl.build(name, 1)[1], wl.build(name, 2)[1]
        assert [(q.kind, getattr(q, "op", None), getattr(q, "probe", None)) for q in a] == \
               [(q.kind, getattr(q, "op", None), getattr(q, "probe", None)) for q in b]


def test_metric_names_parse():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    every = spec["end_to_end"] + spec["per_layer"] + spec["workloads"]
    names = [m["name"] for m in every]
    assert len(names) == len(set(names))
    for m in every:
        assert NAME.match(m["name"]), m["name"]
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"), m
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.metric_names()
    raw = {
        "latency_ms": {"all": [1.0, 2.0], "length": [1.0], "variation": [2.0]},
        "width_ratios": [0.5],
        "queries": 2,
        "failed": 0,
        "busy_s": 0.003,
        "peak_rss_mb": 30.0,
    }
    metrics, samples = run.end_to_end(raw, [0.5, 0.6, 0.7])
    assert [(k, v["unit"]) for k, v in metrics.items()] == \
           [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert set(samples) == set(metrics)
