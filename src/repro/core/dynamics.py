"""Best-response dynamics: how selfish peers actually rewire.

Peers are activated by a scheduler; an activated peer replaces its strategy
with a (best or heuristic) response to the current profile.  The dynamics
either *converge* (a full activation round passes without any change — with
exact responses that state is a pure Nash equilibrium), *cycle* (the same
state recurs, which proves the run will never converge — Section 5 of the
paper constructs instances where this is unavoidable), or hit a step limit.

Activation batches
------------------

Schedulers emit *batches* of logically-concurrent activations per round
(:meth:`Scheduler.batches`); the classic schedulers emit singleton batches
and behave exactly as sequential activation.  A multi-peer batch — one
sub-round in the round-based scheduling model standard in distributed
computing — runs under **stale-profile semantics**:

1. every response in the batch is computed against the profile as it stood
   when the batch began (one :meth:`~repro.core.evaluator.GameEvaluator.
   gain_sweep` on the shared evaluator);
2. commits are applied in batch order; a commit that follows an earlier
   commit in the same batch is *re-checked* against the live profile and
   dropped unless the proposed strategy still strictly improves beyond
   tolerance (so stale responses can never regress a peer's cost).

Cycle detection hashes the pair (profile, scheduler phase) after every
activation — for multi-peer batches, after every batch that committed a
move, keyed by the batch's phase within the round — so it is sound for
deterministic round-invariant schedulers: recurrence of a post-move
state implies the deterministic future repeats.  For randomized
schedulers recurring states do not imply non-convergence, so detection
is disabled there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.best_response import (
    BestResponseResult,
    compute_service_costs,
    improvement_tolerance,
    strategy_cost,
)
from repro.core.best_response import best_response as _uncached_best_response
from repro.core.game import TopologyGame
from repro.core.profile import StrategyProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.evaluator import GameEvaluator

__all__ = [
    "Scheduler",
    "RoundRobinScheduler",
    "FixedOrderScheduler",
    "RandomScheduler",
    "BatchedScheduler",
    "scheduler_batches",
    "MoveRecord",
    "CycleInfo",
    "DynamicsResult",
    "BestResponseDynamics",
]


class Scheduler:
    """Base activation policy: who moves, and what moves *together*.

    Subclasses implement :meth:`order`; the default :meth:`batches` wraps
    that order into singleton batches, which is exactly the sequential
    activation model of the seed engine.  Override :meth:`batches` to
    emit multi-peer batches of logically-concurrent activations (see the
    module docstring for their stale-profile commit semantics).
    """

    #: Whether the activation sequence is a pure function of the round
    #: index (enables sound cycle detection).
    deterministic = False

    def order(self, round_index: int, n: int) -> Sequence[int]:
        raise NotImplementedError

    def batches(self, round_index: int, n: int) -> Iterator[Sequence[int]]:
        """Yield this round's activation batches (default: singletons)."""
        for peer in self.order(round_index, n):
            yield (peer,)


def scheduler_batches(
    scheduler, round_index: int, n: int
) -> Iterator[Sequence[int]]:
    """The batches a scheduler emits for one round.

    Works with any object exposing ``batches(round_index, n)`` or the
    legacy ``order(round_index, n)`` protocol (wrapped into singleton
    batches), so third-party schedulers written against the seed engine
    keep working unchanged.
    """
    batches = getattr(scheduler, "batches", None)
    if batches is not None:
        yield from batches(round_index, n)
        return
    for peer in scheduler.order(round_index, n):
        yield (peer,)


class RoundRobinScheduler(Scheduler):
    """Activate peers ``0, 1, ..., n-1`` in every round (deterministic)."""

    deterministic = True

    def order(self, round_index: int, n: int) -> Sequence[int]:
        return range(n)


class FixedOrderScheduler(Scheduler):
    """Activate peers in a caller-supplied order in every round."""

    deterministic = True

    def __init__(self, order: Sequence[int]) -> None:
        self._order = tuple(order)

    def order(self, round_index: int, n: int) -> Sequence[int]:
        for peer in self._order:
            if not 0 <= peer < n:
                raise IndexError(f"peer {peer} out of range [0, {n})")
        return self._order


class RandomScheduler(Scheduler):
    """Activate peers in an independently shuffled order each round.

    ``batch_size`` chunks each round's shuffled order into multi-peer
    batches of logically-concurrent activations (stale-profile commit
    semantics, see the module docstring); the default ``None`` keeps the
    classic singleton behavior.  The shuffle stream is identical either
    way, so ``batch_size=1`` reproduces the default exactly.
    """

    deterministic = False

    def __init__(
        self, seed: Optional[int] = None, batch_size: Optional[int] = None
    ) -> None:
        import random

        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._rng = random.Random(seed)
        self._batch_size = batch_size

    def order(self, round_index: int, n: int) -> Sequence[int]:
        order = list(range(n))
        self._rng.shuffle(order)
        return order

    def batches(self, round_index: int, n: int) -> Iterator[Sequence[int]]:
        if self._batch_size is None:
            yield from super().batches(round_index, n)
            return
        peers = list(self.order(round_index, n))
        for start in range(0, len(peers), self._batch_size):
            yield peers[start : start + self._batch_size]


class BatchedScheduler(Scheduler):
    """Activate peers in multi-peer batches of logically-concurrent moves.

    Every round covers all peers (or a caller-supplied order) chunked
    into batches of ``batch_size``; the default is one batch per round —
    the fully-synchronous sub-round model.  Responses within a batch are
    computed against the batch-start profile and committed in order with
    conflict re-checks (module docstring).

    Parameters
    ----------
    batch_size:
        Peers per batch (default: the whole population in one batch).
    order:
        Optional fixed activation order (default: ``0..n-1``).
    """

    deterministic = True

    def __init__(
        self,
        batch_size: Optional[int] = None,
        order: Optional[Sequence[int]] = None,
    ) -> None:
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._batch_size = batch_size
        self._order = tuple(order) if order is not None else None

    def order(self, round_index: int, n: int) -> Sequence[int]:
        if self._order is None:
            return range(n)
        for peer in self._order:
            if not 0 <= peer < n:
                raise IndexError(f"peer {peer} out of range [0, {n})")
        return self._order

    def batches(self, round_index: int, n: int) -> Iterator[Sequence[int]]:
        peers = list(self.order(round_index, n))
        size = self._batch_size if self._batch_size is not None else max(
            1, len(peers)
        )
        for start in range(0, len(peers), size):
            yield peers[start : start + size]


@dataclass(frozen=True)
class MoveRecord:
    """One strategy change performed during the dynamics."""

    step: int
    round_index: int
    peer: int
    old_strategy: Tuple[int, ...]
    new_strategy: Tuple[int, ...]
    old_cost: float
    new_cost: float

    @property
    def gain(self) -> float:
        return self.old_cost - self.new_cost


@dataclass(frozen=True)
class CycleInfo:
    """Evidence that the dynamics entered a recurring state.

    ``period`` is the number of activations between two occurrences of the
    same (profile, scheduler-phase) state; ``profiles`` lists the distinct
    profile keys visited inside one period of the cycle.
    """

    first_step: int
    period: int
    profiles: Tuple[tuple, ...]

    @property
    def num_distinct_profiles(self) -> int:
        return len(set(self.profiles))


@dataclass(frozen=True)
class DynamicsResult:
    """Outcome of a best-response dynamics run."""

    profile: StrategyProfile
    converged: bool
    stopped_reason: str
    rounds_completed: int
    steps: int
    num_moves: int
    cycle: Optional[CycleInfo]
    moves: Tuple[MoveRecord, ...]
    cost_trace: Tuple[float, ...]

    def __str__(self) -> str:
        if self.converged:
            return (
                f"converged after {self.rounds_completed} rounds "
                f"({self.num_moves} moves)"
            )
        if self.cycle is not None:
            return (
                f"cycled: period {self.cycle.period} activations, "
                f"{self.cycle.num_distinct_profiles} distinct topologies, "
                f"first hit at step {self.cycle.first_step}"
            )
        return f"stopped: {self.stopped_reason} after {self.steps} steps"


def batch_responses(
    game: TopologyGame,
    profile: StrategyProfile,
    batch: Sequence[int],
    method: str,
    evaluator: Optional["GameEvaluator"] = None,
    backend=None,
) -> List[BestResponseResult]:
    """Stale responses for one batch, all computed against ``profile``.

    With an evaluator this is one
    :meth:`~repro.core.evaluator.GameEvaluator.gain_sweep` (blocked
    service builds, effect-bound memo skips, and the solves dispatched
    through the given :mod:`~repro.core.backends` execution backend);
    without, the from-scratch reference path solves the batch peer by
    peer against the same frozen profile (``backend`` is ignored there —
    the reference path stays maximally simple).
    """
    if evaluator is not None:
        return evaluator.set_profile(profile).gain_sweep(
            method, peers=batch, backend=backend
        )
    return [
        _uncached_best_response(
            game.distance_matrix, profile, peer, game.alpha, method
        )
        for peer in batch
    ]


def recheck_improvement(
    game: TopologyGame,
    profile: StrategyProfile,
    response: BestResponseResult,
    evaluator: Optional["GameEvaluator"] = None,
) -> Tuple[bool, float, float]:
    """Re-score a stale response against the live (partially committed)
    profile.

    Returns ``(commit, current_cost, proposed_cost)``: the proposed
    strategy's cost and the peer's current cost under ``profile``, and
    whether the proposal still strictly improves beyond the solver's
    tolerance — the conflict re-check of stale-profile batch commits.
    """
    peer = response.peer
    if evaluator is not None:
        # The scores below read only the committed and proposed link
        # rows — narrow the repair guarantee to those so a heavily
        # dirtied matrix (late commits of a large batch) is not
        # re-solved wholesale for a two-row comparison.
        needed = sorted(set(profile.strategy(peer)) | set(response.strategy))
        service = evaluator.set_profile(profile).service_costs(
            peer, rows=needed
        )
    else:
        service = compute_service_costs(game.distance_matrix, profile, peer)
    current_cost = strategy_cost(
        service, sorted(profile.strategy(peer)), game.alpha
    )
    proposed_cost = strategy_cost(
        service, sorted(response.strategy), game.alpha
    )
    commit = proposed_cost < current_cost - improvement_tolerance(current_cost)
    return commit, current_cost, proposed_cost


class BestResponseDynamics:
    """Engine running (best-)response dynamics on a topology game.

    Parameters
    ----------
    game:
        The topology game.
    method:
        Response solver: ``"exact"`` (true best response), ``"greedy"``
        (scalable local search) or ``"brute"`` (tiny validation runs).
        Convergence with ``"exact"`` certifies a pure Nash equilibrium;
        with ``"greedy"`` it only certifies greedy-stability.
    scheduler:
        Activation policy; defaults to round robin.  Schedulers emitting
        singleton batches reproduce sequential activation exactly;
        multi-peer batches (e.g. :class:`BatchedScheduler`) run under
        stale-profile semantics: all responses in a batch are computed
        against the batch-start profile, then committed in order, each
        commit after the first re-checked against the live profile and
        dropped unless it still strictly improves.
    record_moves:
        Keep a log of every strategy change (bounded by ``max_move_log``).
    record_costs:
        Record the social cost after every round (served from the shared
        evaluator's warm stretch cache).
    evaluator:
        A :class:`~repro.core.evaluator.GameEvaluator` to share across the
        run (default: the game's shared evaluator).  Each activation then
        reuses cached service-cost matrices and overlay distances that
        survive the single-peer strategy changes the dynamics produce.
    incremental:
        Set False to bypass the evaluator entirely and recompute every
        response from scratch (reference path for validation/benchmarks).
    workers:
        Process-pool size for ``backend="process"`` (1 otherwise;
        results are identical for any size).
    backend:
        Execution backend for the independent response solves of a
        multi-peer batch — ``"serial"`` (the default), ``"process"``,
        or a :class:`~repro.core.backends.SolverBackend` instance.
        Resolved once so pools persist across rounds; the process
        backend attaches the evaluator's shared service store and never
        pickles a service matrix.  Results are identical for every
        backend.
    shards:
        When set, the dynamics own a
        :class:`~repro.core.sharded.ShardedEvaluator` with that many
        row-block shards instead of the game's shared evaluator —
        bounding resident overlay-distance memory to roughly ``1/k`` of
        the monolithic matrix.  Trajectories are identical for every
        shard count.  Mutually exclusive with ``evaluator``.
    shard_placement:
        Where that sharded evaluator's distance blocks live:
        ``"local"`` (default) or ``"socket"`` — one worker process per
        shard (:mod:`repro.core.shard_workers`) serving distance rows
        over a socketpair, or with ``shard_hosts`` the same workers
        behind standalone :mod:`repro.shard_server` processes.  Socket
        placement leaves the coordinator with no resident block at all.
        Trajectories are identical for every placement.  Requires
        ``shards``.
    shard_hosts:
        Socket placement only: addresses (``"host:port"`` /
        ``"unix:/path"``) of running shard servers to round-robin
        shards across; ``None`` forks the shards on this host.

    The dynamics own the sharded evaluator (and any backend resolved
    from a spec string), so they are a context manager: ``close()`` —
    or leaving the ``with`` block — tears those down deterministically.
    Externally supplied evaluators and backend *instances* are the
    caller's to close.
    """

    def __init__(
        self,
        game: TopologyGame,
        method: str = "exact",
        scheduler=None,
        record_moves: bool = True,
        record_costs: bool = False,
        max_move_log: int = 100_000,
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
        self._scheduler = scheduler if scheduler is not None else RoundRobinScheduler()
        self._record_moves = record_moves
        self._record_costs = record_costs
        self._max_move_log = max_move_log
        self._evaluator = evaluator
        self._incremental = incremental
        self._owns_backend = not isinstance(backend, SolverBackend)
        self._backend = resolve_backend(backend, workers)
        self._shards = shards
        self._shard_placement = shard_placement
        self._shard_hosts = shard_hosts

    def _resolve_evaluator(self) -> "GameEvaluator":
        """The evaluator this run shares: explicit > sharded > game's.

        The sharded evaluator is created once and reused across ``run``
        calls so its caches (and any backend pools or shard workers
        attached to it) persist, mirroring the game's shared evaluator.
        """
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

    def close(self) -> None:
        """Release owned resources (idempotent).

        Closes the engine-owned sharded evaluator (its stores and shard
        workers) and, when the backend was resolved from a spec string
        rather than passed as an instance, the backend's pools.  Safe
        after a failed ``__init__`` and double-close.
        """
        if self._owned_evaluator is not None:
            self._owned_evaluator.close()
            self._owned_evaluator = None
        if self._owns_backend and self._backend is not None:
            self._backend.close()

    def __enter__(self) -> "BestResponseDynamics":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(
        self,
        initial: Optional[StrategyProfile] = None,
        max_rounds: int = 200,
        max_steps: Optional[int] = None,
        detect_cycles: bool = True,
    ) -> DynamicsResult:
        """Run the dynamics from ``initial`` (default: the empty profile).

        Stops on convergence (one full round without a move), on a detected
        cycle (deterministic schedulers only), or on the round/step limits.
        Every activation — including the ones of a multi-peer batch —
        counts as one step.
        """
        game = self._game
        profile = initial if initial is not None else game.empty_profile()
        if profile.n != game.n:
            raise ValueError(
                f"initial profile has {profile.n} peers, game has {game.n}"
            )
        detect = detect_cycles and getattr(self._scheduler, "deterministic", False)
        evaluator: Optional["GameEvaluator"] = None
        if self._incremental:
            evaluator = self._resolve_evaluator()
        seen: Dict[tuple, int] = {}
        trail: List[tuple] = []
        moves: List[MoveRecord] = []
        cost_trace: List[float] = []
        steps = 0
        rounds = 0
        num_moves = 0
        cycle: Optional[CycleInfo] = None
        stopped_reason = "max_rounds"
        halted = False

        for round_index in range(max_rounds):
            moved_this_round = False
            for phase, batch in enumerate(
                scheduler_batches(self._scheduler, round_index, game.n)
            ):
                batch = list(batch)
                truncated = False
                if max_steps is not None:
                    remaining = max_steps - steps
                    if remaining <= 0:
                        stopped_reason = "max_steps"
                        halted = True
                        break
                    if len(batch) > remaining:
                        # The budget cuts this batch short: process the
                        # prefix, then stop as "max_steps" — a round that
                        # never activated every peer must not be allowed
                        # to report convergence.
                        batch = batch[:remaining]
                        truncated = True
                if len(batch) == 1:
                    # Sequential activation: identical to the seed engine.
                    peer = batch[0]
                    if evaluator is not None:
                        responses = [
                            evaluator.set_profile(profile).best_response(
                                peer, self._method
                            )
                        ]
                    else:
                        responses = [
                            _uncached_best_response(
                                game.distance_matrix,
                                profile,
                                peer,
                                game.alpha,
                                self._method,
                            )
                        ]
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
                singleton = len(batch) == 1
                for peer, response in zip(batch, responses):
                    steps += 1
                    if not response.improved:
                        continue
                    old_cost = response.current_cost
                    new_cost = response.cost
                    if profile is not base_profile:
                        # An earlier commit in this batch changed the
                        # profile: the stale response must still improve.
                        commit, old_cost, new_cost = recheck_improvement(
                            game, profile, response, evaluator
                        )
                        if not commit:
                            continue
                    num_moves += 1
                    if self._record_moves and len(moves) < self._max_move_log:
                        moves.append(
                            MoveRecord(
                                step=steps,
                                round_index=round_index,
                                peer=peer,
                                old_strategy=tuple(
                                    sorted(profile.strategy(peer))
                                ),
                                new_strategy=tuple(sorted(response.strategy)),
                                old_cost=old_cost,
                                new_cost=new_cost,
                            )
                        )
                    profile = profile.with_strategy(peer, response.strategy)
                    moved_this_round = True
                    if detect and singleton:
                        state = (profile.key(), peer)
                        if state in seen:
                            first = seen[state]
                            cycle = CycleInfo(
                                first_step=first,
                                period=steps - first,
                                profiles=tuple(
                                    key
                                    for key, marker in trail
                                    if marker >= first
                                ),
                            )
                            stopped_reason = "cycle"
                            halted = True
                            break
                        seen[state] = steps
                        trail.append((profile.key(), steps))
                if (
                    not halted
                    and detect
                    and not singleton
                    and profile is not base_profile
                ):
                    # Multi-peer batches are detected at batch boundaries:
                    # mid-batch states are meaningless (pending stale
                    # responses belong to the batch-start profile), but a
                    # recurring *post-move* batch state keyed by its phase
                    # pins the whole deterministic future.
                    state = (profile.key(), ("batch", phase))
                    if state in seen:
                        first = seen[state]
                        cycle = CycleInfo(
                            first_step=first,
                            period=steps - first,
                            profiles=tuple(
                                key
                                for key, marker in trail
                                if marker >= first
                            ),
                        )
                        stopped_reason = "cycle"
                        halted = True
                    else:
                        seen[state] = steps
                        trail.append((profile.key(), steps))
                if truncated and not halted:
                    stopped_reason = "max_steps"
                    halted = True
                if halted:
                    break
            if halted:
                break
            rounds += 1
            if self._record_costs:
                if evaluator is not None:
                    cost_trace.append(
                        evaluator.set_profile(profile).social_cost().total
                    )
                else:
                    cost_trace.append(game.social_cost(profile).total)
            if not moved_this_round:
                stopped_reason = "converged"
                break

        converged = stopped_reason == "converged"
        return DynamicsResult(
            profile=profile,
            converged=converged,
            stopped_reason=stopped_reason,
            rounds_completed=rounds,
            steps=steps,
            num_moves=num_moves,
            cycle=cycle,
            moves=tuple(moves),
            cost_trace=tuple(cost_trace),
        )
