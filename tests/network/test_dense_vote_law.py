"""The dense large-sample ``maj()`` vote law.

``dense_majority_vote_law`` evaluates the exact vote pmf over opinionated
``k``-color compositions in log space, covering sample sizes far past the
closed-form table budget (``sample_size <= 170``).  On the overlap region
where both are tractable the two must agree to machine precision — the
dense law is a reformulation, not an approximation — and its tractability
predicate must gate exactly the composition/grid budgets it claims.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network import pull_model
from repro.network.pull_model import (
    dense_majority_vote_law,
    dense_vote_law_is_tractable,
    majority_vote_law,
    vote_table_is_tractable,
)


class TestAgreementWithClosedForm:
    @pytest.mark.parametrize(
        "num_opinions,sample_size",
        [(2, 5), (3, 7), (3, 35), (2, 170), (4, 9)],
    )
    def test_matches_table_law_to_machine_precision(
        self, num_opinions, sample_size
    ):
        rng = np.random.default_rng(99)
        probabilities = rng.dirichlet(np.ones(num_opinions), size=6)
        observation_law = np.concatenate(
            [np.zeros((6, 1)), probabilities], axis=1
        )
        table = majority_vote_law(observation_law, sample_size)[:, 1:]
        dense = dense_majority_vote_law(probabilities, sample_size)
        assert np.max(np.abs(dense - table)) < 1e-12
        assert np.allclose(dense.sum(axis=1), 1.0)

    def test_zero_probability_color_is_never_voted(self):
        probabilities = np.array([[0.7, 0.3, 0.0]])
        law = dense_majority_vote_law(probabilities, 25)
        assert law[0, 2] == 0.0
        assert law[0, 0] > law[0, 1] > 0.0

    def test_all_zero_row_falls_back_to_uniform(self):
        probabilities = np.array([[0.0, 0.0], [0.5, 0.5]])
        law = dense_majority_vote_law(probabilities, 12)
        assert np.allclose(law[0], [0.5, 0.5])
        assert np.allclose(law[1], [0.5, 0.5])

    def test_degenerate_single_color_row(self):
        probabilities = np.array([[1.0, 0.0]])
        law = dense_majority_vote_law(probabilities, 40)
        assert np.allclose(law, [[1.0, 0.0]])


class TestTractability:
    def test_covers_large_sample_sizes_the_table_cannot(self):
        assert not vote_table_is_tractable(665, 3)
        assert dense_vote_law_is_tractable(665, 3)
        assert dense_vote_law_is_tractable(1247, 2)

    def test_rejects_blowups(self):
        assert not dense_vote_law_is_tractable(300, 4)
        assert not dense_vote_law_is_tractable(0, 3)
        assert not dense_vote_law_is_tractable(5, 0)

    def test_law_raises_when_intractable(self):
        with pytest.raises(ValueError):
            dense_majority_vote_law(
                np.full((1, 4), 0.25), 300
            )

    def test_gate_is_patchable_off(self, monkeypatch):
        monkeypatch.setattr(
            pull_model, "_DENSE_VOTE_LAW_MAX_COMPOSITIONS", 0
        )
        assert not dense_vote_law_is_tractable(200, 3)


class TestVotePathResolution:
    def test_paths_partition_the_sample_size_axis(self):
        from repro.network.pull_model import resolve_vote_path

        assert resolve_vote_path(20, 3) == "table"
        assert resolve_vote_path(200, 3) == "dense"
        # Past both budgets only the bounded chunk sampler remains.
        assert resolve_vote_path(5000, 6) == "chunk"
