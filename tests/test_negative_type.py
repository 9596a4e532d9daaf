import importlib
import json
import logging
import math
import sys
import threading

import numpy as np
import pytest

from maglab import (
    SpaceSpec,
    generate,
    negative_type_test,
    snowflake_space,
    stability_scan,
)
from maglab import FiniteMetricSpace, lp_product
from maglab import metric_core, negative_type as negative_type_module
from maglab.analysis import product_counterexample_experiment
from maglab.errors import InvalidParams, NonpositiveScale
from maglab.magnitude import _similarity
from maglab.metric_core import _json_default

from conftest import random_cloud, random_metric_4pt

magnitude_module = importlib.import_module("maglab.magnitude")


class TestNegativeTypeTest:
    def test_singleton(self):
        rep = negative_type_test(FiniteMetricSpace(("a",), [[0.0]]))
        assert rep.negative_type

    def test_random_four_point_spaces(self):
        for seed in range(1000):
            assert negative_type_test(random_metric_4pt(seed)).negative_type

    def test_k32_fails_with_witness(self):
        s = generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0}))
        rep = negative_type_test(s)
        assert not rep.negative_type
        x = rep.witness_vector
        assert abs(x.sum()) <= 1e-10
        assert x @ s.dist @ x > 0

    def test_distances_near_the_float_range(self):
        # d0_i + d0_j would overflow; the Gram entries themselves do not
        a = 8e307
        line = FiniteMetricSpace((0, 1, 2), [[0, a, 2 * a], [a, 0, a], [2 * a, a, 0]])
        rep = negative_type_test(line)
        assert rep.negative_type
        assert math.isfinite(rep.gram_lambda_min) and rep.gram_lambda_min > 0

    def test_witness_is_most_negative_gram_eigenvector(self):
        s = generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0}))
        rep = negative_type_test(s, basepoint=1)
        others = [0, 2, 3, 4]
        d0 = s.dist[1, others]
        g = 0.5 * (d0[:, None] + d0[None, :] - s.dist[np.ix_(others, others)])
        vals, vecs = np.linalg.eigh(g)
        expected = np.zeros(5)
        expected[others] = vecs[:, 0]
        expected[1] = -vecs[:, 0].sum()
        assert not rep.negative_type
        assert rep.witness_vector.tobytes() == expected.tobytes()
        assert rep.gram_lambda_min == pytest.approx(vals[0], abs=1e-12 * vals[-1])
        assert stability_scan(s).classification == "NotStablyPD"

    def test_ultrametric_trees(self):
        for seed in range(100):
            s = generate(SpaceSpec("ultrametric_tree", {"n": 10}, seed=seed))
            assert negative_type_test(s).negative_type

    def test_basepoint_independence(self):
        for seed in range(50):
            s = random_cloud(seed, n_max=7)
            verdicts = {
                negative_type_test(s, basepoint=b).negative_type
                for b in range(len(s))
            }
            assert len(verdicts) == 1

    def test_basepoint_out_of_range(self):
        with pytest.raises(InvalidParams):
            negative_type_test(random_cloud(1), basepoint=99)

    @pytest.mark.parametrize("basepoint", [1.5, True, -1, 2.0, "0"])
    def test_basepoint_must_be_an_index(self, basepoint):
        with pytest.raises(InvalidParams, match="basepoint must be an integer"):
            negative_type_test(random_metric_4pt(0), basepoint=basepoint)
        assert negative_type_test(random_metric_4pt(0), basepoint=np.int64(3)).basepoint == 3

    def test_snowflake_closure(self):
        for seed in range(100):
            s = random_cloud(seed + 40, n_max=7)
            assert negative_type_test(s).negative_type
            for alpha in (0.25, 0.5, 0.75):
                assert negative_type_test(snowflake_space(s, alpha)).negative_type


class TestStabilityScan:
    def test_l2_grid_stably_pd(self):
        s = generate(SpaceSpec("grid_net", {"n": 2, "p": 2.0, "m": 4}))
        rep = stability_scan(s)
        assert rep.classification == "StablyPositiveDefinite"
        assert rep.first_failing_scale() is None

    def test_k32_not_stably_pd(self):
        s = generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0}))
        rep = stability_scan(s)
        assert rep.classification == "NotStablyPD"
        # scales below log(sqrt(2)) ~ 0.3466 fail
        assert rep.first_failing_scale() < 0.3466

    def test_singleton(self):
        rep = stability_scan(FiniteMetricSpace(("a",), [[0.0]]))
        assert rep.classification == "StablyPositiveDefinite"

    def test_scan_consistent_with_gram_verdict(self):
        # negative type implies no scanned scale may be indefinite
        for seed in range(40):
            s = random_cloud(seed + 10, n_max=7)
            rep = stability_scan(s, scales=[2.0**k for k in range(-6, 3)])
            if rep.negative_type.negative_type:
                assert not rep.failing_scales

    def test_rejects_bad_scales(self):
        with pytest.raises(InvalidParams):
            stability_scan(random_cloud(2), scales=[])
        with pytest.raises(NonpositiveScale):
            stability_scan(random_cloud(2), scales=[-1.0])
        with pytest.raises(NonpositiveScale):
            stability_scan(random_cloud(2), scales=[0.0, 1.0])
        assert issubclass(NonpositiveScale, InvalidParams)
        with pytest.raises(NonpositiveScale):
            stability_scan(random_cloud(2), scales=[math.nan, 1.0])

    def test_k32_at_large_r_is_undetermined(self):
        # every failing scale of K_{3,2} lies below log(sqrt 2) / r < 2^-10,
        # the smallest default scale, so only the Gram test can decide
        s = generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1000.0}))
        report = stability_scan(s)
        assert report.failing_scales == ()
        assert report.negative_type.negative_type is False
        assert report.classification == "Undetermined"

    def test_json_payload(self):
        s = generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0}))
        payload = json.loads(json.dumps(stability_scan(s), default=_json_default))
        assert payload["classification"] == "NotStablyPD"
        assert payload["failing_scales"]
        assert payload["negative_type"]["negative_type"] is False


def _product_counterexample():
    """The space and scales of `product_counterexample_experiment`."""
    cross = generate(SpaceSpec(
        "point_cloud_lp", {"points": [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]], "p": 1.0}))
    return lp_product(cross, cross, q=2.0), [2.0**-k for k in range(0, 13)]


class TestScanOnThePool:
    """The Gram test runs as the first item of the scan's batch of blocks,
    and the report keeps the bits of the Gram test after a loop of blocks."""

    SPACES = {
        "sphere-30": lambda: (generate(SpaceSpec("sphere_fibonacci_net", {"n": 30})), None),
        "sphere-31": lambda: (generate(SpaceSpec("sphere_fibonacci_net", {"n": 31})), None),
        "k32": lambda: (generate(SpaceSpec("complete_bipartite", {"m": 3, "n": 2, "r": 1.0})), None),
        "product": _product_counterexample,
        "l1-grid": lambda: (generate(SpaceSpec("grid_net", {"m": 5, "n": 2, "p": 1.0})), None),
    }

    @pytest.fixture(params=[1, 2, 3])
    def workers(self, request, monkeypatch):
        """This many workers, the caller included, each eigensolve on one
        BLAS thread."""
        monkeypatch.setattr(metric_core, "_cpus", lambda: request.param)
        monkeypatch.setattr(magnitude_module, "_blas_threads", lambda: 1)
        return request.param

    @staticmethod
    def _witness(nt):
        return None if nt.witness_vector is None else nt.witness_vector.tobytes()

    @classmethod
    def _bits(cls, report):
        """repr, which rounds arrays, and the witness vector's bytes."""
        return repr(report), cls._witness(report.negative_type)

    @pytest.mark.parametrize("name", SPACES)
    @pytest.mark.parametrize("one_scale_per_block", [False, True])
    def test_any_worker_count(self, workers, monkeypatch, name, one_scale_per_block):
        space, scales = self.SPACES[name]()
        scales = scales or [2.0**k for k in range(-10, 5)]
        records = [stability_scan(space, [t]).records[0] for t in sorted(scales)]
        nt = negative_type_test(space)
        if one_scale_per_block:
            monkeypatch.setattr(magnitude_module, "_STACK_ENTRIES",
                                _similarity(space, ts=[]).entries)
        report = stability_scan(space, scales)
        assert repr(report.records) == repr(records)
        assert repr(report.negative_type) == repr(nt)
        assert self._witness(report.negative_type) == self._witness(nt)
        monkeypatch.setattr(metric_core, "_cpus", lambda: 1)
        assert self._bits(stability_scan(space, scales)) == self._bits(report)
        if name == "k32":
            assert report.classification == "NotStablyPD"
            assert report.negative_type.witness_vector is not None

    def test_experiment_on_any_worker_count(self, workers):
        report = product_counterexample_experiment()
        assert report.classification == "NotStablyPD"
        space, scales = _product_counterexample()
        assert self._bits(report) == self._bits(stability_scan(space, scales))

    def test_lazy_space_builds_before_the_batch(self, workers, monkeypatch, caplog):
        """An l_1 grid's dense matrix, which the Gram test reads, is built on
        the calling thread before any item of the batch starts."""
        space = self.SPACES["l1-grid"]()[0]
        built = []
        original = magnitude_module._each

        def each(*args, **kwargs):
            built.append("dist" in vars(space))
            return original(*args, **kwargs)

        monkeypatch.setattr(magnitude_module, "_each", each)
        with caplog.at_level(logging.DEBUG, logger="maglab"):
            stability_scan(space)
        assert built == [True]
        builds = [r for r in caplog.records if r.message.startswith("factored space")]
        assert [r.thread for r in builds] == [threading.get_ident()]

    def test_more_workers_than_cores(self, monkeypatch):
        """Eight workers taking the Gram test and 40 one-scale blocks,
        switching as often as the interpreter allows."""
        space = self.SPACES["k32"]()[0]
        scales = np.geomspace(0.01, 4.0, 40)
        expected = self._bits(stability_scan(space, scales))
        monkeypatch.setattr(metric_core, "_cpus", lambda: 8)
        monkeypatch.setattr(magnitude_module, "_blas_threads", lambda: 1)
        monkeypatch.setattr(magnitude_module, "_STACK_ENTRIES", len(space) ** 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert self._bits(stability_scan(space, scales)) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_bad_scale_raises_what_a_loop_raises(self, workers, monkeypatch):
        """A bad scale raises its error before the batch starts, even when
        the Gram test would fail too; a failing Gram test alone raises its
        own error, as the batch's first item."""
        space = self.SPACES["k32"]()[0]
        monkeypatch.setattr(magnitude_module, "_STACK_ENTRIES", 25)  # one scale per block
        with pytest.raises(NonpositiveScale, match="got -1.0"):
            stability_scan(space, [-1.0, 1.0, 2.0])
        with pytest.raises(NonpositiveScale, match="got 0.0"):
            stability_scan(space, [0.0, 1.0])

        def failing(space):
            raise ArithmeticError("Gram test failed")

        monkeypatch.setattr(negative_type_module, "negative_type_test", failing)
        with pytest.raises(NonpositiveScale, match="got -1.0"):
            stability_scan(space, [-1.0, 1.0, 2.0])
        with pytest.raises(ArithmeticError, match="Gram test failed"):
            stability_scan(space, [1.0, 2.0])

    @pytest.mark.parametrize("cpus, blas", [(1, 1), (2, None), (3, None)])
    def test_inline_on_one_cpu_or_default_blas(self, monkeypatch, cpus, blas):
        """One CPU, or OpenBLAS taking every CPU, runs the Gram test and
        every block on the calling thread."""
        monkeypatch.setattr(metric_core, "_cpus", lambda: cpus)
        monkeypatch.setattr(magnitude_module, "_cpus", lambda: cpus)
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        if blas:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(blas))
        threads = []
        original = negative_type_test

        def recorded(space):
            threads.append(threading.get_ident())
            return original(space)

        monkeypatch.setattr(negative_type_module, "negative_type_test", recorded)
        monkeypatch.setattr(metric_core, "_pool", None)  # a thread would fail here
        stability_scan(self.SPACES["k32"]()[0])
        assert threads == [threading.get_ident()]
