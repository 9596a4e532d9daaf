import json
import math

import numpy as np
import pytest

from maglab import (
    SpaceSpec,
    generate,
    negative_type_test,
    snowflake_space,
    stability_scan,
)
from maglab import FiniteMetricSpace
from maglab.errors import InvalidParams, NonpositiveScale
from maglab.metric_core import _json_default

from conftest import random_cloud, random_metric_4pt


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
