"""The simulation engine: dynamics + observers + activation policies.

A thin orchestration layer over :class:`repro.core.dynamics.
BestResponseDynamics` that adds what systems experiments need: pluggable
observers invoked every round, the *max-gain* (adversarial-greedy)
activation policy, and a compact :class:`SimulationReport`.

Activation policies
-------------------

* ``"round-robin"`` / ``"random"`` / an explicit scheduler object —
  delegated to the core dynamics engine.
* ``"batched"`` — every round activates all peers as one
  logically-concurrent batch (:class:`~repro.core.dynamics.
  BatchedScheduler`): responses are computed against the round-start
  profile in one evaluator gain sweep, then committed in order with
  conflict re-checks (stale-profile semantics; see
  :mod:`repro.core.dynamics`).
* ``"max-gain"`` — at every step the peer with the currently largest
  best-response improvement moves.  This is the natural greedy/adversarial
  dynamic; on the paper's no-Nash witness it cycles like every other
  policy, and on convergent instances it often converges in fewer moves.
  The all-peers sweep each step runs as one
  :meth:`~repro.core.evaluator.GameEvaluator.gain_sweep`: blocked
  service-matrix builds, effect-bound memo skips, and the response
  solves dispatched through the engine's execution backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.core.best_response import best_response as _uncached_best_response
from repro.core.dynamics import (
    BatchedScheduler,
    BestResponseDynamics,
    CycleInfo,
    RandomScheduler,
    RoundRobinScheduler,
    batch_responses,
    recheck_improvement,
    scheduler_batches,
)
from repro.core.game import TopologyGame
from repro.core.profile import StrategyProfile
from repro.simulation.observers import Observer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.evaluator import GameEvaluator

__all__ = ["SimulationReport", "SimulationEngine"]


@dataclass(frozen=True)
class SimulationReport:
    """Outcome of a simulation run.

    Attributes
    ----------
    profile:
        Final strategy profile.
    converged:
        True when a full round passed without movement (with exact
        responses the final profile is then a pure Nash equilibrium).
    stopped_reason:
        ``"converged"``, ``"cycle"``, ``"max_rounds"`` or ``"max_steps"``.
    rounds / moves:
        Completed activation rounds and total strategy changes.
    cycle:
        Cycle evidence when the dynamics provably entered a loop.
    final_cost:
        Social cost of the final profile.
    """

    profile: StrategyProfile
    converged: bool
    stopped_reason: str
    rounds: int
    moves: int
    cycle: Optional[CycleInfo]
    final_cost: float


class SimulationEngine:
    """Run selfish-rewiring simulations with instrumentation.

    Parameters
    ----------
    game:
        The topology game to simulate.
    method:
        Best-response solver (``"exact"``, ``"greedy"``, ``"brute"``).
    activation:
        ``"round-robin"``, ``"random"``, ``"batched"``, ``"max-gain"``,
        or a scheduler object with an ``order``/``batches`` method (see
        :class:`~repro.core.dynamics.Scheduler`).
    seed:
        Seed for the ``"random"`` activation policy.
    evaluator:
        A :class:`~repro.core.evaluator.GameEvaluator` owned for the
        whole simulation (default: the game's shared one), so every
        activation — including the max-gain policy's all-peers sweep —
        reuses warm service-cost matrices and overlay distances.
    incremental:
        Set False to recompute every response from scratch (reference
        path for validation/benchmarks).
    workers:
        Process-pool size for ``backend="process"`` (1 otherwise).
        Results are identical for any size.
    backend:
        Execution backend for the independent response solves of a
        gain sweep (max-gain policy and multi-peer batches) —
        ``"serial"`` (the default), ``"process"``, ``"shard"``, or a
        :class:`~repro.core.backends.SolverBackend` instance.  Resolved
        once per engine so pools persist across rounds; the process
        backend solves against the evaluator's shared-memory service
        store.  Trajectories are identical for every backend.
    shards:
        When set, the engine owns a
        :class:`~repro.core.sharded.ShardedEvaluator` with that many
        row-block shards instead of the game's shared evaluator —
        bounding resident overlay-distance memory to roughly ``1/k``.
        Trajectories are identical for every shard count.  Mutually
        exclusive with ``evaluator``.
    shard_placement:
        ``"local"`` (default), ``"process"`` — place the sharded
        evaluator's distance blocks in one worker process per shard
        (:mod:`repro.core.shard_workers`) — or ``"socket"`` — the same
        workers, behind :mod:`repro.shard_server` processes reached over
        TCP/Unix sockets when ``shard_hosts`` is given.
        Identical trajectories; requires ``shards``.
    shard_hosts:
        Socket placement only: shard-server addresses
        (``"host:port"`` / ``"unix:/path"``) to round-robin shards
        across; ``None`` forks the shards on this host.

    The engine owns the sharded evaluator and any backend resolved from
    a spec string, so it is a context manager: ``close()`` — or leaving
    the ``with`` block — tears those down deterministically; externally
    supplied evaluators/backend instances are the caller's to close.
    """

    def __init__(
        self,
        game: TopologyGame,
        method: str = "exact",
        activation="round-robin",
        seed: Optional[int] = None,
        evaluator: Optional["GameEvaluator"] = None,
        incremental: bool = True,
        workers: int = 1,
        backend=None,
        shards: Optional[int] = None,
        shard_placement: Optional[str] = None,
        shard_hosts=None,
    ) -> None:
        from repro.core.backends import SolverBackend, resolve_backend
        from repro.core.sharded import check_shard_options

        # Owned-resource slots first: close() must be a no-op on an
        # instance whose __init__ died in the validation below.
        self._owned_evaluator: Optional["GameEvaluator"] = None
        self._owns_backend = False
        self._backend = None

        check_shard_options(shards, shard_placement, shard_hosts)
        if shards is not None:
            if evaluator is not None:
                raise ValueError(
                    "pass either an evaluator or shards, not both "
                    "(a sharded evaluator is built from the shards count)"
                )
            if not incremental:
                raise ValueError(
                    "shards requires the incremental evaluator path; "
                    "incremental=False recomputes from scratch and would "
                    "silently ignore the shard count"
                )
        self._game = game
        self._method = method
        self._activation = activation
        self._seed = seed
        self._incremental = incremental
        self._evaluator = evaluator
        self._owns_backend = not isinstance(backend, SolverBackend)
        self._backend = resolve_backend(backend, workers)
        self._shards = shards
        self._shard_placement = shard_placement
        self._shard_hosts = shard_hosts

    def close(self) -> None:
        """Release owned resources (idempotent, failed-init safe): the
        engine-owned sharded evaluator (stores, shard workers) and any
        backend pools resolved from a spec string."""
        if self._owned_evaluator is not None:
            self._owned_evaluator.close()
            self._owned_evaluator = None
        if self._owns_backend and self._backend is not None:
            self._backend.close()

    def __enter__(self) -> "SimulationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def evaluator(self) -> Optional["GameEvaluator"]:
        """The evaluator this engine's runs share (None when
        ``incremental=False``) — explicit > engine-owned sharded > the
        game's shared one.  Exposes the run's
        :class:`~repro.core.evaluator.EvaluatorStats` to callers."""
        return self._active_evaluator()

    def _active_evaluator(self) -> Optional["GameEvaluator"]:
        if not self._incremental:
            return None
        if self._evaluator is not None:
            return self._evaluator
        if self._shards is not None:
            if self._owned_evaluator is None:
                from repro.core.sharded import build_sharded_evaluator

                self._owned_evaluator = build_sharded_evaluator(
                    self._game,
                    shards=self._shards,
                    placement=self._shard_placement,
                    shard_hosts=self._shard_hosts,
                )
            return self._owned_evaluator
        return self._game.evaluator

    def _best_response(self, profile: StrategyProfile, peer: int):
        evaluator = self._active_evaluator()
        if evaluator is not None:
            return evaluator.set_profile(profile).best_response(
                peer, self._method
            )
        return _uncached_best_response(
            self._game.distance_matrix,
            profile,
            peer,
            self._game.alpha,
            self._method,
        )

    def _social_cost_total(self, profile: StrategyProfile) -> float:
        evaluator = self._active_evaluator()
        if evaluator is not None:
            return evaluator.set_profile(profile).social_cost().total
        return self._game.social_cost(profile).total

    # ------------------------------------------------------------------
    def run(
        self,
        initial: Optional[StrategyProfile] = None,
        max_rounds: int = 200,
        observers: Iterable[Observer] = (),
        detect_cycles: bool = True,
    ) -> SimulationReport:
        """Run the dynamics until convergence, cycle, or round limit."""
        observers = list(observers)
        if self._activation == "max-gain":
            return self._run_max_gain(
                initial, max_rounds, observers, detect_cycles
            )
        scheduler = self._resolve_scheduler()
        profile = initial if initial is not None else self._game.empty_profile()
        # Delegate round by round so observers see every round boundary.
        dynamics = BestResponseDynamics(
            self._game,
            method=self._method,
            scheduler=scheduler,
            record_moves=False,
            # The resolved evaluator (explicit > engine-owned sharded >
            # the game's shared one) so a sharded engine shares its
            # caches with the core dynamics it delegates to.
            evaluator=self._active_evaluator(),
            incremental=self._incremental,
            backend=self._backend,
        )
        result = dynamics.run(
            initial=profile,
            max_rounds=max_rounds,
            detect_cycles=detect_cycles,
        )
        if observers:
            # Replay rounds for the observers when requested: rerun with a
            # fresh scheduler of the same kind to preserve determinism.
            self._replay_for_observers(
                profile, max_rounds, observers, detect_cycles
            )
        return SimulationReport(
            profile=result.profile,
            converged=result.converged,
            stopped_reason=result.stopped_reason,
            rounds=result.rounds_completed,
            moves=result.num_moves,
            cycle=result.cycle,
            final_cost=self._social_cost_total(result.profile),
        )

    # ------------------------------------------------------------------
    def _resolve_scheduler(self):
        if self._activation == "round-robin":
            return RoundRobinScheduler()
        if self._activation == "random":
            return RandomScheduler(self._seed)
        if self._activation == "batched":
            return BatchedScheduler()
        if isinstance(self._activation, str):
            raise ValueError(
                f"unknown activation policy {self._activation!r}; expected "
                f"'round-robin', 'random', 'batched', 'max-gain' or a "
                f"scheduler object"
            )
        return self._activation

    def _replay_for_observers(
        self,
        initial: StrategyProfile,
        max_rounds: int,
        observers: List[Observer],
        detect_cycles: bool,
    ) -> None:
        """Second pass driving observers round by round.

        The core engine has no observer hook (by design, it stays small);
        simulations that need instrumentation pay one extra run.  Random
        activation reuses the same seed, so the replay is identical, and
        multi-peer batches replay under the same stale-profile commit
        semantics as the main run.
        """
        game = self._game
        scheduler = self._resolve_scheduler()
        evaluator = self._active_evaluator()
        profile = initial
        seen = set()
        deterministic = getattr(scheduler, "deterministic", False)
        for round_index in range(max_rounds):
            moved = False
            for batch in scheduler_batches(scheduler, round_index, game.n):
                batch = list(batch)
                if len(batch) == 1:
                    responses = [self._best_response(profile, batch[0])]
                else:
                    responses = batch_responses(
                        game,
                        profile,
                        batch,
                        self._method,
                        evaluator,
                        self._backend,
                    )
                base_profile = profile
                for peer, response in zip(batch, responses):
                    if not response.improved:
                        continue
                    if profile is not base_profile:
                        commit, _old, _new = recheck_improvement(
                            game, profile, response, evaluator
                        )
                        if not commit:
                            continue
                    profile = profile.with_strategy(peer, response.strategy)
                    moved = True
            for observer in observers:
                observer.on_round(round_index, profile, moved)
            if not moved:
                return
            if detect_cycles and deterministic:
                key = profile.key()
                if key in seen:
                    return
                seen.add(key)

    # ------------------------------------------------------------------
    def _run_max_gain(
        self,
        initial: Optional[StrategyProfile],
        max_rounds: int,
        observers: List[Observer],
        detect_cycles: bool,
    ) -> SimulationReport:
        """Largest-gain-first dynamics (one move per "round").

        The all-peers sweep of every step is one evaluator
        :meth:`~repro.core.evaluator.GameEvaluator.gain_sweep` — blocked
        service-matrix builds plus effect-bound memo skips — instead of
        ``n`` sequential solver calls; the non-incremental reference
        path keeps the per-peer loop.  Peer enumeration order and the
        strictly-greater argmax are unchanged, so trajectories match the
        per-peer sweep exactly.
        """
        game = self._game
        profile = initial if initial is not None else game.empty_profile()
        evaluator = self._active_evaluator()
        seen = {}
        cycle: Optional[CycleInfo] = None
        moves = 0
        stopped_reason = "max_rounds"
        rounds = 0
        trail: List[Tuple[tuple, int]] = []
        for round_index in range(max_rounds):
            best_peer = -1
            best_response = None
            if evaluator is not None:
                responses = evaluator.set_profile(profile).gain_sweep(
                    self._method, backend=self._backend
                )
            else:
                responses = [
                    self._best_response(profile, peer)
                    for peer in range(game.n)
                ]
            for peer, response in enumerate(responses):
                if response.improved and (
                    best_response is None or response.gain > best_response.gain
                ):
                    best_peer, best_response = peer, response
            moved = best_response is not None
            if moved:
                profile = profile.with_strategy(
                    best_peer, best_response.strategy
                )
                moves += 1
            for observer in observers:
                observer.on_round(round_index, profile, moved)
            rounds += 1
            if not moved:
                stopped_reason = "converged"
                break
            if detect_cycles:
                state = (profile.key(), best_peer)
                if state in seen:
                    first = seen[state]
                    cycle = CycleInfo(
                        first_step=first,
                        period=moves - first,
                        profiles=tuple(
                            key for key, marker in trail if marker >= first
                        ),
                    )
                    stopped_reason = "cycle"
                    break
                seen[state] = moves
                trail.append((profile.key(), moves))
        return SimulationReport(
            profile=profile,
            converged=stopped_reason == "converged",
            stopped_reason=stopped_reason,
            rounds=rounds,
            moves=moves,
            cycle=cycle,
            final_cost=self._social_cost_total(profile),
        )
