"""Pluggable per-peer cost models for the topology game.

The paper's game prices peer ``i`` at ``alpha * |s_i| + sum_j stretch(i, j)``
(:class:`UnilateralModel`).  A :class:`CostModel` generalizes this with one
additive hook::

    c_i(s) = alpha * |s_i| + sum_j stretch(i, j) + per_peer_term(s)[i]

**The externality contract.**  ``per_peer_term(profile)[i]`` MUST be
independent of peer ``i``'s *own* strategy ``s_i`` (it may depend on every
other peer's strategy).  Under that contract the term is a constant in every
argmin a solver runs for peer ``i``, so best responses, improving
deviations, Nash sets, memo re-scores, and tie-breaking cost keys are all
unchanged — the entire incremental solve fabric (evaluator memos,
solver pools, batched gain sweeps) keeps pricing with the scalar ``alpha``
and stays *exact* for every conforming model.  Only the accounting surfaces
(``social_cost`` / ``peer_costs`` / ``peer_cost``) consult the model.

:class:`CongestionModel` is the canonical example: its ``beta * indeg(i)``
term charges peer ``i`` for links *other* peers point at it, which ``s_i``
cannot affect (own out-links change other peers' in-degrees, never one's
own).  Social cost and the Price of Anarchy shift; equilibria do not — the
theorem previously asserted only in :mod:`repro.extensions.congestion`.

``UnilateralModel`` is bitwise-neutral by construction: its hook returns
``None`` (not a zero array) and its social term is exactly ``0.0``, so
every consuming site short-circuits and the float pipeline executes the
same operations as with no model at all.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.profile import StrategyProfile

__all__ = [
    "CostModel",
    "UnilateralModel",
    "CongestionModel",
    "model_from_spec",
    "resolve_cost_model",
]


class CostModel:
    """Base class: the paper's cost plus one additive per-peer hook.

    Subclasses implement :meth:`per_peer_term` / :meth:`social_extra`
    honoring the externality contract in the module docstring, and
    :meth:`spec` as a picklable pure-literal tuple — the journal
    representation that :func:`model_from_spec` round-trips.
    """

    kind: str = "abstract"

    def __init__(self, alpha: float) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self._alpha = float(alpha)

    @property
    def alpha(self) -> float:
        """The link-cost / stretch-cost trade-off parameter."""
        return self._alpha

    # -- the hook ------------------------------------------------------
    def per_peer_term(self, profile: StrategyProfile) -> Optional[np.ndarray]:
        """Additive cost term per peer, or ``None`` when identically zero.

        Must be independent of each peer's own strategy (see the module
        docstring).  Returning ``None`` — not a zero array — is the
        bitwise-neutrality fast path: callers skip the addition entirely.
        """
        raise NotImplementedError

    def social_extra(self, profile: StrategyProfile) -> float:
        """Sum of :meth:`per_peer_term` over all peers (``0.0`` if none).

        Subclasses may compute this in closed form (e.g. the congestion
        total is exactly ``beta * |E|`` — every link is somebody's
        in-edge — with no per-peer accumulation needed).
        """
        raise NotImplementedError

    def batch_per_peer_term(
        self,
        bits: np.ndarray,
        owners: np.ndarray,
        targets: np.ndarray,
        n: int,
    ) -> Optional[np.ndarray]:
        """Vectorized :meth:`per_peer_term` over encoded profiles.

        ``bits`` is the ``(batch, n*(n-1))`` bool link matrix of
        :mod:`repro.core.exhaustive`'s profile encoding and ``owners`` /
        ``targets`` its bit layout.  Returns a ``(batch, n)`` term array
        or ``None`` when the term is identically zero.  The default
        decodes profile by profile — exact for any model; families with
        a tensor form (congestion) override it.
        """
        batch = bits.shape[0]
        out = np.zeros((batch, n))
        nonzero = False
        for row in range(batch):
            strategies: list = [set() for _ in range(n)]
            for pos in np.nonzero(bits[row])[0]:
                strategies[int(owners[pos])].add(int(targets[pos]))
            term = self.per_peer_term(StrategyProfile(strategies))
            if term is not None:
                out[row] = term
                nonzero = True
        return out if nonzero else None

    # -- identity / journal representation -----------------------------
    def spec(self) -> Tuple:
        """Picklable pure-literal tuple identifying this model exactly."""
        raise NotImplementedError

    def with_alpha(self, alpha: float) -> "CostModel":
        """Same model family and parameters, different ``alpha``."""
        raise NotImplementedError

    # -- value semantics ------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CostModel):
            return NotImplemented
        return self.spec() == other.spec()

    def __hash__(self) -> int:
        return hash(self.spec())

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in zip(
            self._spec_fields(), self.spec()[1:]
        ))
        return f"{type(self).__name__}({params})"

    def _spec_fields(self) -> Tuple[str, ...]:
        return ("alpha",)


class UnilateralModel(CostModel):
    """The paper's game, byte-for-byte the default.

    ``per_peer_term`` returns ``None`` and ``social_extra`` returns
    ``0.0``, so an evaluator carrying an explicit ``UnilateralModel``
    runs the identical float operations as one with ``cost_model=None``
    — pinned by the neutrality property tests.
    """

    kind = "unilateral"

    def per_peer_term(self, profile: StrategyProfile) -> None:
        return None

    def social_extra(self, profile: StrategyProfile) -> float:
        return 0.0

    def batch_per_peer_term(self, bits, owners, targets, n) -> None:
        return None

    def spec(self) -> Tuple:
        return ("unilateral", self._alpha)

    def with_alpha(self, alpha: float) -> "UnilateralModel":
        return UnilateralModel(alpha)


class CongestionModel(CostModel):
    """Congestion externality: peer ``i`` additionally pays ``beta * indeg(i)``.

    The in-degree counts links *other* peers bought toward ``i`` — a term
    ``s_i`` cannot influence, so the externality contract holds exactly:
    best responses and Nash sets equal the unilateral ones for any
    ``beta`` while social cost shifts by exactly ``beta * |E|``.
    """

    kind = "congestion"

    def __init__(self, alpha: float, beta: float) -> None:
        super().__init__(alpha)
        if beta < 0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        self._beta = float(beta)

    @property
    def beta(self) -> float:
        """Per-in-edge congestion charge."""
        return self._beta

    def in_degrees(self, profile: StrategyProfile) -> np.ndarray:
        """In-degree of every peer under ``profile`` (int64 vector)."""
        counts = np.zeros(profile.n, dtype=np.int64)
        for _source, target in profile.edges():
            counts[target] += 1
        return counts

    def per_peer_term(self, profile: StrategyProfile) -> Optional[np.ndarray]:
        if self._beta == 0.0:
            return None
        return self._beta * self.in_degrees(profile)

    def social_extra(self, profile: StrategyProfile) -> float:
        # Every directed link is exactly one peer's in-edge, so the
        # aggregate is beta * |E| — no in-degree pass needed.
        return self._beta * profile.num_links

    def batch_per_peer_term(
        self, bits, owners, targets, n
    ) -> Optional[np.ndarray]:
        if self._beta == 0.0:
            return None
        indeg = np.zeros((bits.shape[0], n))
        for j in range(n):
            indeg[:, j] = bits[:, targets == j].sum(axis=1)
        return self._beta * indeg

    def spec(self) -> Tuple:
        return ("congestion", self._alpha, self._beta)

    def with_alpha(self, alpha: float) -> "CongestionModel":
        return CongestionModel(alpha, self._beta)

    def _spec_fields(self) -> Tuple[str, ...]:
        return ("alpha", "beta")


_MODEL_KINDS = {
    "unilateral": lambda spec: UnilateralModel(spec[1]),
    "congestion": lambda spec: CongestionModel(spec[1], spec[2]),
}


def model_from_spec(spec) -> CostModel:
    """Rebuild a model from its :meth:`CostModel.spec` tuple.

    The inverse used by ``replay_journal`` (spec recorded per journal
    document).  Accepts lists too — JSON round-trips tuples as lists.
    """
    try:
        kind = spec[0]
        factory = _MODEL_KINDS[kind]
    except (KeyError, IndexError, TypeError):
        known = ", ".join(sorted(_MODEL_KINDS))
        raise ValueError(
            f"unknown cost-model spec {spec!r}; known kinds: {known}"
        ) from None
    model = factory(tuple(spec))
    if model.spec() != tuple(spec):
        raise ValueError(f"malformed cost-model spec {spec!r}")
    return model


def resolve_cost_model(
    cost_model: Optional[CostModel], alpha: float
) -> Optional[CostModel]:
    """Validate a model against a game's ``alpha`` (``None`` passes through).

    ``None`` stays ``None`` — the no-model fast path — rather than being
    promoted to a ``UnilateralModel``, so default-constructed games carry
    no model object at all and the neutrality property is structural.
    """
    if cost_model is None:
        return None
    if not isinstance(cost_model, CostModel):
        raise TypeError(
            f"cost_model must be a CostModel, got {type(cost_model).__name__}"
        )
    if cost_model.alpha != float(alpha):
        raise ValueError(
            f"cost_model alpha {cost_model.alpha} does not match "
            f"game alpha {float(alpha)}"
        )
    return cost_model
