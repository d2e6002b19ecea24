"""Tests for the algorithm registry and the registry-backed harness dispatch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.group import run_fmg
from repro.baselines.personalized import run_per
from repro.baselines.subgroup import run_grf, run_sdp
from repro.core import registry
from repro.core.avg import run_avg
from repro.core.avg_d import run_avg_d
from repro.core.ip import solve_exact
from repro.core.pipeline import SolveContext
from repro.core.svgic_st import size_violation_report
from repro.experiments.harness import default_algorithms, run_algorithms


PAPER_LINEUP = {"AVG", "AVG-D", "PER", "FMG", "SDP", "GRF", "IP"}
FOUR_BASELINES = {"PER", "FMG", "SDP", "GRF"}
EXTENSION_VARIANTS = {
    "AVG-D+commodity",
    "AVG-D+slots",
    "AVG-D+multiview",
    "AVG-D+groupwise",
    "AVG-D+smooth",
    "AVG-D+dynamic",
    "SEO",
}


class TestRegistryContents:
    def test_paper_lineup_registered(self):
        assert set(registry.names_by_tag("paper")) == PAPER_LINEUP

    def test_four_baselines_registered(self):
        assert set(registry.names_by_tag("baseline")) == FOUR_BASELINES

    def test_seven_extension_variants_registered(self):
        assert set(registry.names_by_tag("extension")) == EXTENSION_VARIANTS

    def test_local_search_variants_registered(self):
        assert set(registry.names_by_tag("local-search")) == {"AVG+LS", "AVG-D+LS"}

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="no algorithm registered"):
            registry.get_algorithm("NOPE")

    def test_specs_carry_descriptions(self):
        for name in registry.algorithm_names():
            assert registry.get_algorithm(name).description

    def test_multi_tag_query_is_intersection(self):
        st_baselines = set(registry.names_by_tag("baseline", "st"))
        assert st_baselines == FOUR_BASELINES


class TestRegistryDispatch:
    @pytest.mark.parametrize("name", sorted(PAPER_LINEUP | {"GROUP", "IND"}))
    def test_feasible_on_paper_example(self, paper_instance, name):
        result = registry.run_registered(name, paper_instance, rng=np.random.default_rng(0))
        assert result.configuration.is_valid(paper_instance)
        assert result.objective > 0

    @pytest.mark.parametrize(
        "name", sorted((PAPER_LINEUP - {"IP"}) | EXTENSION_VARIANTS | {"AVG+LS", "AVG-D+LS"})
    )
    def test_feasible_on_partial_capacity_instance(self, small_st_instance, name):
        """Every registered algorithm yields a valid configuration under a tight size cap."""
        result = registry.run_registered(
            name, small_st_instance, rng=np.random.default_rng(0)
        )
        assert result.configuration.is_valid(small_st_instance)

    @pytest.mark.parametrize("name", sorted(EXTENSION_VARIANTS))
    def test_extensions_feasible_on_paper_example(self, paper_instance, name):
        result = registry.run_registered(name, paper_instance, rng=np.random.default_rng(0))
        assert result.configuration.is_valid(paper_instance)

    def test_st_tagged_algorithms_respect_size_cap(self, small_st_instance):
        for name in ("AVG", "AVG-D", "AVG+LS", "AVG-D+LS"):
            result = registry.run_registered(
                name, small_st_instance, rng=np.random.default_rng(7)
            )
            assert size_violation_report(small_st_instance, result.configuration).feasible

    def test_dispatch_records_provenance(self, paper_instance):
        ctx = SolveContext(paper_instance)
        result = registry.run_registered("AVG-D", paper_instance, context=ctx)
        assert result.provenance["registry_name"] == "AVG-D"
        assert result.provenance["lp_solves"] == 1
        assert result.info["lp_cache_hit"] is False
        again = registry.run_registered("AVG-D", paper_instance, context=ctx)
        assert again.info["lp_cache_hit"] is True
        assert again.provenance["lp_hits"] >= 1

    @pytest.mark.parametrize("name", ["AVG+LS", "AVG-D+LS"])
    def test_stage_provenance_on_local_search_variant(self, small_timik_instance, name):
        result = registry.run_registered(
            name, small_timik_instance, rng=np.random.default_rng(0)
        )
        assert result.stages_applied == ("local_search",)
        assert "local_search" in result.info["stages"]
        # Stage wall-time is part of the reported runtime.
        assert result.info["stage_seconds"] > 0
        assert result.seconds >= result.info["stage_seconds"]


class TestBitIdenticalWithLegacyWrappers:
    """Registry dispatch must reproduce the direct ``run_*`` calls exactly."""

    def test_avg_matches_run_avg(self, small_timik_instance):
        legacy = run_avg(
            small_timik_instance, rng=np.random.default_rng(3), repetitions=3
        )
        dispatched = registry.run_registered(
            "AVG", small_timik_instance, rng=np.random.default_rng(3), repetitions=3
        )
        assert np.array_equal(
            legacy.configuration.assignment, dispatched.configuration.assignment
        )
        assert legacy.objective == dispatched.objective

    def test_avg_d_matches_run_avg_d(self, small_timik_instance):
        legacy = run_avg_d(small_timik_instance, balancing_ratio=1.0)
        dispatched = registry.run_registered(
            "AVG-D", small_timik_instance, balancing_ratio=1.0
        )
        assert np.array_equal(
            legacy.configuration.assignment, dispatched.configuration.assignment
        )

    def test_deterministic_baselines_match(self, small_timik_instance):
        for name, runner in (("PER", run_per), ("FMG", run_fmg), ("SDP", run_sdp)):
            legacy = runner(small_timik_instance)
            dispatched = registry.run_registered(name, small_timik_instance)
            assert np.array_equal(
                legacy.configuration.assignment, dispatched.configuration.assignment
            ), name

    def test_grf_matches_with_same_seed(self, small_timik_instance):
        legacy = run_grf(small_timik_instance, rng=np.random.default_rng(11))
        dispatched = registry.run_registered(
            "GRF", small_timik_instance, rng=np.random.default_rng(11)
        )
        assert np.array_equal(
            legacy.configuration.assignment, dispatched.configuration.assignment
        )

    def test_ip_matches_solve_exact(self, paper_instance):
        legacy = solve_exact(paper_instance, prune_items=False)
        dispatched = registry.run_registered("IP", paper_instance, prune_items=False)
        assert np.array_equal(
            legacy.configuration.assignment, dispatched.configuration.assignment
        )

    def test_default_algorithms_matches_legacy_lambda_dict(self, small_timik_instance):
        """The registry-backed line-up reproduces the pre-registry harness exactly."""
        legacy = {
            "AVG": lambda instance, rng=None: run_avg(instance, rng=rng, repetitions=3),
            "AVG-D": lambda instance, rng=None: run_avg_d(instance, balancing_ratio=1.0),
            "PER": lambda instance, rng=None: run_per(instance),
            "FMG": lambda instance, rng=None: run_fmg(instance),
            "SDP": lambda instance, rng=None: run_sdp(instance),
            "GRF": lambda instance, rng=None: run_grf(instance, rng=rng),
        }
        legacy_reports = run_algorithms(small_timik_instance, legacy, seed=5)
        registry_reports = run_algorithms(
            small_timik_instance, default_algorithms(), seed=5
        )
        assert set(legacy_reports) == set(registry_reports)
        for name in legacy_reports:
            assert legacy_reports[name].total_utility == pytest.approx(
                registry_reports[name].total_utility, abs=1e-12
            ), name


class TestSingleLPSolveAcceptance:
    """Acceptance criterion: the full line-up performs one simplified-LP solve."""

    def test_figure3_lineup_single_lp_solve(self):
        from repro.data import datasets

        instance = datasets.small_sampled_instance(
            "timik", num_users=8, num_items=20, num_slots=3, seed=0
        )
        context = SolveContext(instance)
        algorithms = default_algorithms(include_ip=True, ip_time_limit=10.0)
        reports = run_algorithms(instance, algorithms, seed=0, context=context)
        assert set(reports) == PAPER_LINEUP
        assert context.lp_solves == 1
        assert context.lp_requests >= 2  # AVG and AVG-D both asked
        assert context.lp_hits == context.lp_requests - 1

    def test_lineup_with_local_search_and_rounding_still_one_solve(self, paper_instance):
        context = SolveContext(paper_instance)
        names = ["AVG", "AVG-D", "AVG+LS", "AVG-D+LS", "IND"]
        runners = registry.build_runners(names)
        run_algorithms(paper_instance, runners, seed=0, context=context)
        assert context.lp_solves == 1
        assert context.lp_hits == context.lp_requests - 1
