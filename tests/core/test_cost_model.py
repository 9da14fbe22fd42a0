"""The cost-model layer's two contracts, pinned.

1. **Bitwise neutrality**: an explicit ``UnilateralModel(alpha)`` runs
   the identical float pipeline as ``cost_model=None`` — costs,
   responses, and whole dynamics trajectories match exactly (``==``,
   not ``pytest.approx``) across shard counts, backends, and
   placements.
2. **The externality contract**: a conforming model (``CongestionModel``
   is the witness) shifts accounting — social cost by exactly
   ``beta * |E|``, peer costs by ``beta * indeg`` — while best
   responses, Nash verdicts, and trajectories are *identical* to the
   base game's for any ``beta``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_model import (
    CongestionModel,
    CostModel,
    UnilateralModel,
    model_from_spec,
    resolve_cost_model,
)
from repro.core.dynamics import BestResponseDynamics
from repro.core.equilibrium import verify_nash
from repro.core.game import TopologyGame
from repro.metrics.euclidean import EuclideanMetric

from tests.conftest import euclidean_metrics, profiles_for

SHARD_COUNTS = (1, 2, 4)


def _random_game(seed, n, alpha=1.5, cost_model=None):
    rng = np.random.default_rng(seed)
    metric = EuclideanMetric(rng.uniform(0.0, 1.0, size=(n, 2)))
    return TopologyGame(metric, alpha, cost_model=cost_model)


@st.composite
def metric_alpha_profile(draw, min_n=2, max_n=6):
    metric = draw(euclidean_metrics(min_n=min_n, max_n=max_n))
    alpha = draw(st.floats(0.1, 8.0))
    profile = draw(profiles_for(metric.n))
    return metric, alpha, profile


class TestSpecDigestRoundTrip:
    def test_spec_round_trips_through_model_from_spec(self):
        for model in (UnilateralModel(2.5), CongestionModel(1.0, 0.75)):
            rebuilt = model_from_spec(model.spec())
            assert rebuilt == model
            assert rebuilt.spec() == model.spec()
            # JSON round-trips tuples as lists; both must be accepted.
            assert model_from_spec(list(model.spec())) == model

    def test_unknown_and_malformed_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown cost-model spec"):
            model_from_spec(("frictional", 1.0))
        with pytest.raises(ValueError, match="cost-model spec"):
            model_from_spec(None)
        with pytest.raises((ValueError, IndexError)):
            model_from_spec(("congestion", 1.0))

    def test_with_alpha_preserves_family(self):
        model = CongestionModel(1.0, 0.5).with_alpha(3.0)
        assert model.spec() == ("congestion", 3.0, 0.5)
        assert UnilateralModel(1.0).with_alpha(2.0).spec() == (
            "unilateral",
            2.0,
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            UnilateralModel(-1.0)
        with pytest.raises(ValueError, match="beta"):
            CongestionModel(1.0, -0.1)

    def test_repr_names_parameters(self):
        assert "beta=0.5" in repr(CongestionModel(1.0, 0.5))
        assert "alpha=2.0" in repr(UnilateralModel(2.0))


class TestResolve:
    def test_none_passes_through_as_none(self):
        assert resolve_cost_model(None, 1.0) is None

    def test_alpha_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            resolve_cost_model(UnilateralModel(1.0), 2.0)
        with pytest.raises(ValueError, match="does not match"):
            TopologyGame(
                EuclideanMetric.random_uniform(4, dim=2, seed=0),
                2.0,
                cost_model=CongestionModel(1.0, 0.5),
            )

    def test_non_model_rejected(self):
        with pytest.raises(TypeError, match="CostModel"):
            resolve_cost_model(("congestion", 1.0, 0.5), 1.0)


class TestBatchTerm:
    def test_congestion_batch_matches_per_profile_term(self):
        """The vectorized tensor path equals the generic decode path."""
        from repro.core.exhaustive import _bit_layout, decode_profile

        n, model = 4, CongestionModel(1.0, 0.7)
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 1 << (n * (n - 1)), size=32, dtype=np.int64)
        positions = np.arange(n * (n - 1), dtype=np.int64)
        bits = ((ids[:, None] >> positions[None, :]) & 1).astype(bool)
        layout = _bit_layout(n)
        owners = np.array([i for i, _ in layout])
        targets = np.array([j for _, j in layout])
        batch = model.batch_per_peer_term(bits, owners, targets, n)
        generic = CostModel.batch_per_peer_term(
            model, bits, owners, targets, n
        )
        assert batch is not None and generic is not None
        np.testing.assert_array_equal(batch, generic)
        for row, pid in enumerate(ids):
            term = model.per_peer_term(decode_profile(int(pid), n))
            np.testing.assert_array_equal(batch[row], term)

    def test_zero_beta_and_unilateral_return_none(self):
        bits = np.zeros((3, 12), dtype=bool)
        owners = targets = np.zeros(12, dtype=int)
        assert (
            CongestionModel(1.0, 0.0).batch_per_peer_term(
                bits, owners, targets, 4
            )
            is None
        )
        assert (
            UnilateralModel(1.0).batch_per_peer_term(bits, owners, targets, 4)
            is None
        )


class TestUnilateralNeutrality:
    """``UnilateralModel(alpha)`` is bitwise ``cost_model=None``."""

    @given(metric_alpha_profile())
    @settings(max_examples=20, deadline=None)
    def test_costs_and_responses_bitwise_identical(self, case):
        metric, alpha, profile = case
        plain = TopologyGame(metric, alpha)
        modeled = TopologyGame(
            metric, alpha, cost_model=UnilateralModel(alpha)
        )
        assert plain.social_cost(profile) == modeled.social_cost(profile)
        np.testing.assert_array_equal(
            plain.individual_costs(profile), modeled.individual_costs(profile)
        )
        for peer in range(metric.n):
            a = plain.best_response(profile, peer)
            b = modeled.best_response(profile, peer)
            assert (a.strategy, a.cost, a.current_cost) == (
                b.strategy,
                b.cost,
                b.current_cost,
            )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("backend_workers", [(None, 1), ("process", 2)])
    def test_trajectories_identical_across_harnesses(
        self, shards, backend_workers
    ):
        backend, workers = backend_workers
        reference = BestResponseDynamics(_random_game(11, n=10)).run(
            max_rounds=60
        )
        # The context manager shuts the owned process pool down here
        # instead of leaving it to garbage collection.
        with BestResponseDynamics(
            _random_game(11, n=10, cost_model=UnilateralModel(1.5)),
            shards=shards,
            backend=backend,
            workers=workers,
        ) as dynamics:
            result = dynamics.run(max_rounds=60)
        assert result.profile.key() == reference.profile.key()
        assert result.num_moves == reference.num_moves
        assert result.stopped_reason == reference.stopped_reason

    def test_trajectory_identical_with_process_placement(self):
        reference = BestResponseDynamics(_random_game(13, n=8)).run(
            max_rounds=40
        )
        # The context manager reaps the two forked shards here instead
        # of leaving them to garbage collection.
        with BestResponseDynamics(
            _random_game(13, n=8, cost_model=UnilateralModel(1.5)),
            shards=2,
            shard_placement="socket",
        ) as dynamics:
            result = dynamics.run(max_rounds=40)
        assert result.profile.key() == reference.profile.key()
        assert result.num_moves == reference.num_moves


class TestCongestionInvariance:
    """Accounting shifts; strategy is untouched, for any ``beta``."""

    @given(metric_alpha_profile(), st.floats(0.0, 16.0))
    @settings(max_examples=20, deadline=None)
    def test_best_responses_identical_for_any_beta(self, case, beta):
        metric, alpha, profile = case
        base = TopologyGame(metric, alpha)
        congested = TopologyGame(
            metric, alpha, cost_model=CongestionModel(alpha, beta)
        )
        for peer in range(metric.n):
            a = base.best_response(profile, peer)
            b = congested.best_response(profile, peer)
            assert (a.strategy, a.cost, a.improved) == (
                b.strategy,
                b.cost,
                b.improved,
            )
        assert (
            verify_nash(base, profile).is_nash
            == verify_nash(congested, profile).is_nash
        )

    @given(metric_alpha_profile(), st.floats(0.0, 16.0))
    @settings(max_examples=20, deadline=None)
    def test_accounting_shifts_exactly(self, case, beta):
        metric, alpha, profile = case
        base = TopologyGame(metric, alpha)
        model = CongestionModel(alpha, beta)
        congested = TopologyGame(metric, alpha, cost_model=model)
        a = base.social_cost(profile)
        b = congested.social_cost(profile)
        assert (b.link_cost, b.stretch_cost) == (a.link_cost, a.stretch_cost)
        assert b.extra_cost == beta * profile.num_links
        base_costs = base.individual_costs(profile)
        congested_costs = congested.individual_costs(profile)
        expected = base_costs + beta * model.in_degrees(profile)
        finite = np.isfinite(base_costs)
        np.testing.assert_allclose(
            congested_costs[finite], expected[finite], rtol=0, atol=1e-12
        )
        np.testing.assert_array_equal(
            np.isinf(congested_costs), np.isinf(base_costs)
        )

    def test_trajectory_identical_under_congestion(self):
        reference = BestResponseDynamics(_random_game(17, n=10)).run(
            max_rounds=60
        )
        result = BestResponseDynamics(
            _random_game(17, n=10, cost_model=CongestionModel(1.5, 2.0))
        ).run(max_rounds=60)
        assert result.profile.key() == reference.profile.key()
        assert result.num_moves == reference.num_moves

    def test_nash_sets_equal_exhaustively(self):
        """All-profile equality of the Nash sets at n=4 (not samples)."""
        from repro.core.exhaustive import exhaustive_equilibria

        game = _random_game(5, n=4)
        dmat = game.distance_matrix
        base = exhaustive_equilibria(dmat, game.alpha)
        for beta in (0.0, 0.5, 4.0):
            shifted = exhaustive_equilibria(
                dmat, game.alpha, cost_model=CongestionModel(game.alpha, beta)
            )
            assert shifted.equilibrium_ids == base.equilibrium_ids
            assert shifted.cost_model_spec == (
                "congestion",
                game.alpha,
                beta,
            )


class TestEvaluatorDigest:
    def test_with_alpha_carries_model_family(self):
        game = _random_game(23, n=5, cost_model=CongestionModel(1.5, 0.5))
        rescaled = game.with_alpha(3.0)
        assert rescaled.cost_model.spec() == ("congestion", 3.0, 0.5)
        plain = _random_game(23, n=5).with_alpha(3.0)
        assert plain.cost_model is None
