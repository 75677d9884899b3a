"""Tests of the benchmark's generators, tracer, clock and metric list.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]

import pytest  # noqa: E402

import generators  # noqa: E402
import workloads  # noqa: E402
from anglestruct import fixture, format_triangulation  # noqa: E402


def _files(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(workloads.SETUPS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    setup = workloads.SETUPS[name]
    first, second, other = (str(tmp_path / d) for d in "abc")
    setup(7, workloads.Workdir(first))
    setup(7, workloads.Workdir(second))
    setup(8, workloads.Workdir(other))
    assert _files(first) == _files(second)
    assert _files(first) != _files(other)


def test_two_stacked_inserts_reproduce_fig8_flat2():
    want = fixture("fig8-flat2").triangulation
    got = generators.stacked_flat_table(2)
    assert got == want
    assert format_triangulation(got) == format_triangulation(want)


def test_tracer_wraps_every_binding_and_splits_self_time():
    from tracer import Tracer

    import anglestruct
    from anglestruct import normal_coords, triangulation

    original = triangulation.build_edge_classes
    tracer = Tracer()
    tracer.install()
    try:
        assert anglestruct.build_edge_classes is not original
        assert normal_coords.build_edge_classes is \
            triangulation.build_edge_classes
        t = generators.stacked_flat_table(1)
        anglestruct.chi_star(t, anglestruct.NormalCoordinate.zero(3))
    finally:
        tracer.uninstall()
    assert triangulation.build_edge_classes is original
    phase = tracer.next_phase()
    assert phase.calls["normal_coords.chi_star"] == 1
    assert phase.calls["triangulation.build_edge_classes"] == 1
    (outer,) = [s for s in tracer.spans if s[0] == "normal_coords.chi_star"]
    inner = [s for s in tracer.spans
             if s[0] == "triangulation.build_edge_classes"]
    assert inner[0][3] == tracer.spans.index(outer)
    outer_s = outer[2] - outer[1]
    inner_s = inner[0][2] - inner[0][1]
    assert phase.self_s["normal_coords.chi_star"] == \
        pytest.approx(outer_s - inner_s)


def test_run_reports_exactly_the_declared_metrics():
    import json

    from run import END_TO_END_UNITS, WORKLOADS, _layer_metrics, _unit
    from tracer import Phase

    root = os.path.dirname(BENCH_DIR)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    layer = sorted(_layer_metrics(Phase())) + ["trace.overhead_ratio"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, _unit(name)) for name in layer]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == \
        list(workloads.SETUPS)


def test_clock_scales_each_interval_by_the_reference_around_it(monkeypatch):
    import run

    refs = iter([0.004, 0.006, 0.010])
    monkeypatch.setattr(run.Clock, "_reference",
                        staticmethod(lambda: next(refs)))
    clock = run.Clock()
    assert clock.lap(1.0) == pytest.approx(2 * run.REF_S / 0.010)
    assert clock.lap(2.0) == pytest.approx(2.0 * 2 * run.REF_S / 0.016)
    assert clock.raw_s == 3.0
