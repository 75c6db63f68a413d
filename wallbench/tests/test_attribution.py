"""The traced run charges time to the layer that spent it, and only to it."""

import time

import numpy as np

import layers
from spans import Recorder, layer_totals, uncovered_ns

SLEEP_S = 0.05
STEPS = 6


def _traced_solves(monkeypatch, inject: bool):
    """Serve a few fused solves with every layer wrapped; returns the layer totals."""
    from repro.serving import SketchServer
    from repro.serving.scheduler import ShardScheduler

    if inject:
        place = ShardScheduler.place

        def slow_place(self, *args, **kwargs):
            time.sleep(SLEEP_S)
            return place(self, *args, **kwargs)

        monkeypatch.setattr(ShardScheduler, "place", slow_place)
    # Small problems keep the solvers' own time (and its scheduling noise)
    # far below the injected sleep.
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1024, 8))
    rhs = [a @ rng.standard_normal(8) + 0.1 * rng.standard_normal(1024) for _ in range(4)]
    recorder = Recorder()
    layers.install(recorder)
    try:
        server = SketchServer()
        recorder.enabled = True
        for _ in range(STEPS):
            for b in rhs:
                server.submit(a, b)
            server.flush()
        recorder.enabled = False
    finally:
        recorder.unpatch_all()
    return layer_totals(recorder.spans)


def test_injected_sleep_is_charged_to_its_layer_only(monkeypatch):
    baseline = _traced_solves(monkeypatch, inject=False)
    slowed = _traced_solves(monkeypatch, inject=True)
    injected = slowed["serving.scheduler"]["count"] * SLEEP_S
    assert slowed["serving.scheduler"]["count"] >= STEPS

    gained = slowed["serving.scheduler"]["self_s"] - baseline["serving.scheduler"]["self_s"]
    assert injected <= gained < injected * 1.5
    for name, row in slowed.items():
        if name == "serving.scheduler":
            continue
        before = baseline.get(name, {"self_s": 0.0})["self_s"]
        assert row["self_s"] - before < 0.25 * injected, name
    # The calling layer's busy time includes the sleep; its self time does not.
    assert slowed["serving.server"]["busy_s"] >= injected


def test_uncovered_time_is_window_minus_union_of_spans():
    windows = [(0, 10), (5, 20), (30, 40)]
    cover = [(2, 4), (3, 6), (15, 35), (38, 50)]
    # windows cover [0,20) + [30,40) = 30; covered inside: [2,6) + [15,20) + [30,35) + [38,40) = 16
    assert uncovered_ns(windows, cover) == 14
    assert uncovered_ns(windows, []) == 30
