"""Tests for repro.sim.engines' ``auto`` policy resolver."""

from __future__ import annotations

import pytest

from repro.sim import ENGINE_POLICIES, ENGINE_TIERS, Scenario
from repro.sim.engines import DEFAULT_COUNTS_THRESHOLD, resolve_engine_policy
from repro.sim.facade import _resolve_engine


class TestResolveEnginePolicy:
    def test_concrete_names_pass_through(self):
        for engine in ENGINE_TIERS:
            assert resolve_engine_policy(engine, 10) == engine
            assert resolve_engine_policy(engine, 10**9) == engine

    def test_auto_switches_at_the_default_threshold(self):
        assert (
            resolve_engine_policy("auto", DEFAULT_COUNTS_THRESHOLD - 1)
            == "batched"
        )
        assert (
            resolve_engine_policy("auto", DEFAULT_COUNTS_THRESHOLD)
            == "counts"
        )

    def test_auto_boundary_is_inclusive_on_the_counts_side(self):
        """At exactly ``n == counts_threshold`` the counts engine wins.

        The documented semantics are ``>=`` (the threshold is the smallest
        population the n-independent engine serves); this pin keeps the
        boundary from silently drifting to ``>``.
        """
        for threshold in (1, 2, 77, DEFAULT_COUNTS_THRESHOLD):
            assert resolve_engine_policy("auto", threshold, threshold) == "counts"
            assert (
                resolve_engine_policy("auto", threshold - 1, threshold)
                == "batched"
            )

    def test_facade_auto_resolution_matches_the_boundary(self):
        """simulate()'s auto policy resolves through the same boundary."""
        at = Scenario(
            workload="rumor", num_nodes=64, engine="auto", counts_threshold=64
        )
        below = Scenario(
            workload="rumor", num_nodes=63, engine="auto", counts_threshold=64
        )
        assert _resolve_engine(at) == ("counts", None)
        assert _resolve_engine(below) == ("batched", None)

    def test_auto_honours_explicit_threshold(self):
        assert resolve_engine_policy("auto", 100, 50) == "counts"
        assert resolve_engine_policy("auto", 100, 500) == "batched"
        with pytest.raises(ValueError):
            resolve_engine_policy("auto", 100, 0)

    def test_allow_analytic_short_circuits_auto_only(self):
        assert resolve_engine_policy("auto", 10, allow_analytic=True) == "analytic"
        assert (
            resolve_engine_policy("batched", 10, allow_analytic=True)
            == "batched"
        )

    def test_policies_are_the_tiers_plus_auto(self):
        assert set(ENGINE_POLICIES) == set(ENGINE_TIERS) | {"auto"}
        with pytest.raises(ValueError):
            resolve_engine_policy("bogus", 10)
