"""Self-tests of the benchmark's own machinery (no workload is run).

    python3 -m pytest -q bench/tests
"""

import importlib
import json
import os

import numpy as np
import pytest
from scipy import sparse

import thinjunction
from bench import metrics, stats, tracing, workloads
from bench.tracing import Span

ROOT = os.path.dirname(workloads.HERE)


class TestSeededInputs:
    def test_stream_repeats_per_seed(self):
        w = workloads.QueryWorkload(seed=5)
        a, b = w.stream(), w.stream()
        for _ in range(4):
            (ea, pa), (eb, pb) = a.next(), b.next()
            assert ea == eb
            np.testing.assert_array_equal(pa, pb)

    def test_stream_differs_across_seeds(self):
        a = workloads.QueryWorkload(seed=5).stream()
        b = workloads.QueryWorkload(seed=6).stream()
        assert not np.array_equal(a.next()[1], b.next()[1])

    def test_points_lie_in_the_true_domain(self):
        w = workloads.QueryWorkload(seed=1)
        spec = w.spec
        rng = np.random.default_rng(3)
        for eps in (0.2, 0.05):
            pts = workloads.sample_points(spec, eps, 4000, rng)
            lo = eps * spec.ell
            cube = np.all(np.abs(pts) <= lo, axis=1)
            edge = np.argmax(pts, axis=1)
            x = pts[np.arange(len(pts)), edge]
            rad = np.sqrt((pts ** 2).sum(axis=1) - x ** 2)
            tube_r = np.array([eps * spec.h[i](xi)
                               for i, xi in zip(edge, x)])
            assert np.all(cube | ((x <= 1.0) & (rad <= tube_r * (1 + 1e-12))))
            # the bulge holds its volume share of the points
            vols, _ = workloads.tube_volume_weights(spec, eps)
            assert abs(cube.mean() - vols[3] / vols.sum()) < 0.02

    def test_amplitude_is_seeded(self):
        assert workloads.amplitude(3) == workloads.amplitude(3)
        assert workloads.amplitude(3) != workloads.amplitude(4)
        assert 0.5 <= abs(workloads.amplitude(3)) <= 2.0


class TestPercentiles:
    def test_p99_needs_a_thousand_samples(self):
        assert stats.samples_beyond(1000, 99) == 10
        assert stats.samples_beyond(999, 99) == 9

    def test_tail_refuses_too_few_samples(self):
        with pytest.raises(ValueError):
            stats.tail(list(range(999)), 99)
        assert stats.tail(list(range(1, 1001)), 99) == 990

    def test_nearest_rank(self):
        assert stats.percentile([3, 1, 2], 50) == 2
        assert stats.percentile([5, 1, 4, 2, 3], 100) == 5

    def test_quartile_spread(self):
        vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, _, q3 = (1.5, 3.0, 4.5)
        assert stats.quartile_spread(vals) == pytest.approx((q3 - q1) / 3.0)


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        spans = [
            Span(0, "root", 0.0, 10.0, None, "op:0"),
            Span(1, "a", 1.0, 3.0, 0, "op:0"),
            Span(2, "a.child", 1.5, 2.5, 1, "op:0"),
            Span(3, "b", 5.0, 6.0, 0, "op:0"),
        ]
        own = tracing.self_times(spans)
        assert own[0] == pytest.approx(7.0)
        assert own[1] == pytest.approx(1.0)
        assert own[2] == pytest.approx(1.0)
        assert own[3] == pytest.approx(1.0)

    def test_overlapping_children_count_their_union(self):
        spans = [Span(0, "p", 0.0, 4.0, None, "op:0"),
                 Span(1, "c", 1.0, 3.0, 0, "op:0"),
                 Span(2, "c", 2.0, 5.0, 0, "op:0")]
        assert tracing.self_times(spans)[0] == pytest.approx(1.0)

    def test_layer_metrics_per_operation_or_per_setup(self):
        spans = [
            Span(0, "expansion.Expansion", 0.0, 4.0, None, "setup:0"),
            Span(1, "expansion.evaluate", 10.0, 11.0, None, "op:0",
                 {"points": 64}),
            Span(2, "fem3d.locate", 10.2, 10.6, 1, "op:0",
                 {"points": 8, "found": 6}),
            Span(3, "expansion.evaluate", 12.0, 13.0, None, "op:1",
                 {"points": 64}),
        ]
        spans.append(Span(4, "fem3d.locate", 1.0, 2.0, 0, "setup:0",
                          {"points": 100, "found": 100}))
        out = metrics.layer_metrics(spans, n_setup=1, n_op=2)
        assert out["expansion.Expansion.s"] == pytest.approx(4.0)
        assert out["expansion.evaluate.self_s"] == pytest.approx(0.8)
        assert out["expansion.evaluate.points"] == pytest.approx(64)
        assert out["fem3d.locate.points"] == pytest.approx(4)
        assert out["fem3d.locate.found_ratio"] == pytest.approx(0.75)
        assert out["fem3d.locate.us_per_point"] == pytest.approx(5e4)


class FakeReport:
    def __init__(self, golden, amp, factor):
        class T:
            pass

        self.targets = []
        for name, errs in golden["errors"].items():
            t = T()
            t.target, t.epsilons = name, golden["epsilons"]
            t.errors = [abs(amp) * e * factor for e in errs]
            t.slope, t.predicted, t.passed = 1.0, 1.0, True
            self.targets.append(t)


class FakeExpansion:
    """Answers from the golden check set, optionally perturbed."""

    def __init__(self, golden, factor):
        self.table = {}
        for key, rec in golden["check"].items():
            for p, v, g in zip(rec["points"], rec["values"],
                               rec["gradients"]):
                self.table[float(key), tuple(p)] = (v * factor,
                                                    np.array(g) * factor)

    def evaluate(self, pts, eps, gradient=True):
        rows = [self.table[eps, tuple(p)] for p in pts]
        return (np.array([r[0] for r in rows]),
                np.array([r[1] for r in rows]))


class TestGolden:
    @pytest.mark.parametrize("name", ["fem_sweep", "full_study"])
    def test_study_gate_flags_a_perturbation(self, name):
        w = workloads.StudyWorkload(name, seed=11)
        ok, _ = w.check(FakeReport(w.golden, w.amp, 1.0))
        assert ok
        ok, notes = w.check(FakeReport(w.golden, w.amp, 1.0 + 1e-5))
        assert not ok
        assert any("MISMATCH" in n for n in notes)

    def test_query_gate_flags_a_perturbation(self):
        w = workloads.QueryWorkload(seed=0)
        n, bad, _ = w.golden_gate(FakeExpansion(w.golden, 1.0))
        assert n > 0 and bad == 0
        n, bad, _ = w.golden_gate(FakeExpansion(w.golden, 1.0 + 1e-4))
        assert bad == n

    def test_served_results_must_match_a_bulk_reevaluation(self):
        w = workloads.QueryWorkload(seed=0)
        fake = FakeExpansion(w.golden, 1.0)
        eps = 0.1
        pts = np.array(w.golden["check"][repr(eps)]["points"][:96])
        v, g = fake.evaluate(pts, eps)
        served = [(eps, pts[:64], v[:64], g[:64]),
                  (eps, pts[64:], v[64:] * (1 + 1e-6), g[64:])]
        assert w.consistency(fake, served) == 1

        class Broken:
            def evaluate(self, *_args, **_kwargs):
                raise RuntimeError("bulk call failed")

        assert w.consistency(Broken(), served) == 2

    def test_golden_records_outside_points(self):
        w = workloads.QueryWorkload(seed=0)
        assert sum(len(v) for v in w.golden["outside"].values()) > 0


class TestWrappers:
    def _current(self):
        out = []
        for module, path, *_ in tracing.TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            out.append((owner, attr, vars(owner)[attr]))
        return out

    def test_restore_puts_back_every_attribute(self):
        before = self._current()
        tracer, patches = tracing.Tracer(), tracing.Patches()
        tracing.install(tracer, patches)
        during = self._current()
        assert len(patches) == len(tracing.TARGETS)
        assert all(a[2] is not b[2] for a, b in zip(before, during))
        patches.restore()
        after = self._current()
        assert all(a[2] is b[2] for a, b in zip(before, after))
        assert len(patches) == 0

    def test_wrapped_solver_records_a_span(self):
        tracer, patches = tracing.Tracer(), tracing.Patches()
        tracing.install(tracer, patches)
        try:
            tracer.request = "op:0"
            a = sparse.diags([2.0, 3.0, 4.0]).tocsr()
            thinjunction.fem3d._solve_spd(a, np.ones(3))
        finally:
            patches.restore()
        (span,) = tracer.spans
        assert span.name == "fem3d.cg" and span.request == "op:0"
        assert span.attrs["nnz"] == 3 and span.attrs["iterations"] >= 1

    def test_span_closes_when_the_call_raises(self):
        tracer = tracing.Tracer()

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            tracer.wrap(boom, "boom")()
        assert tracer.spans[0].end >= tracer.spans[0].start
        assert not tracer._stack


def test_benchmark_json_matches_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_heap_metric_sees_an_allocation():
    from bench import run

    if run.heap_mb() == 0.0:
        pytest.skip("glibc mallinfo2 is not available")
    before = run.heap_mb()
    block = np.ones(2**20)  # 8 MiB
    assert run.heap_mb() - before == pytest.approx(8.0, abs=0.5)
    del block
