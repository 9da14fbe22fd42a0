"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the paper's artifacts without writing code:

* ``python -m repro list`` — the experiment registry (id, artifact,
  bench target).
* ``python -m repro run E5`` — run one experiment with default
  parameters and print its table + verdict (optionally ``--json`` for
  machine-readable output, ``--out FILE`` to persist).
* ``python -m repro run-all`` — every registered experiment in sequence
  (the full paper reproduction; several minutes).
* ``python -m repro certify`` — just the Theorem 5.1 headline: sweep all
  2^20 profiles of the witness and report the equilibrium count.
* ``python -m repro demo`` — a 30-second guided tour (dynamics on a
  random instance + the witness cycling).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _experiment_id_range() -> str:
    """``"E1..E11"``-style range derived from the experiment registry.

    Derived rather than hard-coded so `run --help` can never drift from
    the registered experiments again.
    """
    from repro.experiments import EXPERIMENTS

    ids = list(EXPERIMENTS)
    if not ids:  # pragma: no cover - the registry is never empty
        return "none registered"
    return ids[0] if len(ids) == 1 else f"{ids[0]}..{ids[-1]}"


def _positive_int_arg(name: str):
    """argparse type rejecting 0/negative counts up front.

    A worker count below 1 used to fall through to a silently-serial
    run; failing fast keeps "I asked for parallelism and got none"
    impossible (and the same for a shard count that would silently
    mean "unsharded").
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from error
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"{name} must be >= 1, got {value}"
            )
        return value

    return parse


_positive_int = _positive_int_arg("workers")


def _host_list(text: str):
    """Split a ``--shard-hosts`` comma list into a non-empty tuple."""
    hosts = tuple(part.strip() for part in text.split(",") if part.strip())
    if not hosts:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of host:port or unix:/path "
            "addresses"
        )
    return hosts


def _add_execution_flags(command) -> None:
    command.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help=(
            "process-pool size for batched response solves (needs "
            "--backend process; forwarded to experiments that support "
            "it; default 1)"
        ),
    )
    command.add_argument(
        "--backend",
        choices=("serial", "process", "shard"),
        default=None,
        help=(
            "execution backend for batched response solves: 'serial' "
            "(the default) solves in this process, 'process' runs a "
            "worker pool over a shared-memory service-matrix store "
            "(needs --workers >= 2), 'shard' routes each solve to the "
            "shard worker owning the peer (needs --shard-placement "
            "process or socket)"
        ),
    )
    command.add_argument(
        "--shards",
        type=_positive_int_arg("shards"),
        default=None,
        help=(
            "shard the evaluator's overlay-distance rows into K row "
            "blocks (forwarded to experiments that support it): under "
            "local placement one block is resident at a time, so "
            "resident overlay-distance memory drops to roughly 1/K; "
            "trajectories are identical to the unsharded default"
        ),
    )
    command.add_argument(
        "--shard-placement",
        choices=("local", "process", "socket"),
        default=None,
        help=(
            "where the shard row blocks live (needs --shards): 'local' "
            "keeps them in this process (the default), 'process' runs "
            "one long-lived worker process per shard serving distance "
            "rows over a socketpair, 'socket' does the same or, with "
            "--shard-hosts, hosts the workers behind shard servers "
            "reached over TCP/Unix sockets — with either worker "
            "placement the coordinator holds no distance block at all; "
            "trajectories are identical for every placement"
        ),
    )
    command.add_argument(
        "--shard-hosts",
        type=_host_list,
        default=None,
        metavar="ADDR[,ADDR...]",
        help=(
            "comma-separated shard-server addresses (host:port or "
            "unix:/path) to round-robin shards across (needs "
            "--shard-placement socket); start servers with "
            "`python -m repro.shard_server --listen ADDR`"
        ),
    )
    command.add_argument(
        "--game",
        choices=("unilateral", "congestion"),
        default="unilateral",
        help=(
            "cost-model family (forwarded to experiments that support "
            "it): 'unilateral' is the paper's game; 'congestion' adds "
            "beta * in-degree per peer — an externality, so best "
            "responses and trajectories are identical while social "
            "cost and PoA shift (see --beta)"
        ),
    )
    command.add_argument(
        "--beta",
        type=float,
        default=None,
        help=(
            "per-in-edge congestion charge (needs --game congestion; "
            "default 1.0)"
        ),
    )


def _check_execution_flags(args, parser: argparse.ArgumentParser) -> None:
    """Cross-flag validation argparse cannot express on its own."""
    if (
        getattr(args, "beta", None) is not None
        and getattr(args, "game", None) != "congestion"
    ):
        parser.error(
            "--beta needs --game congestion: the unilateral game has no "
            "congestion charge to weight"
        )
    if getattr(args, "beta", None) is not None and args.beta < 0:
        parser.error(f"--beta must be >= 0, got {args.beta}")
    if getattr(args, "backend", None) == "process" and args.workers < 2:
        parser.error(
            "--backend process needs --workers >= 2: a single-worker "
            "process pool only adds IPC overhead over a serial run "
            "(use --backend serial, or raise --workers)"
        )
    if getattr(args, "backend", None) != "process" and args.workers > 1:
        parser.error(
            f"--workers {args.workers} sizes a process pool: add "
            "--backend process (other backends solve without a pool)"
        )
    shards = getattr(args, "shards", None)
    placement = getattr(args, "shard_placement", None)
    shard_hosts = getattr(args, "shard_hosts", None)
    if placement is not None and shards is None:
        parser.error(
            "--shard-placement needs --shards: there is nothing to "
            "place without a shard count"
        )
    if getattr(args, "backend", None) == "shard" and placement not in (
        "process",
        "socket",
    ):
        parser.error(
            "--backend shard routes solves to shard worker processes; "
            "it needs --shard-placement process or socket"
        )
    if shard_hosts is not None:
        if placement != "socket":
            parser.error(
                "--shard-hosts needs --shard-placement socket: hosts "
                "name the shard servers socket placement connects to"
            )
        from repro.core.transport import parse_address

        for host in shard_hosts:
            try:
                parse_address(host)
            except ValueError as error:
                parser.error(f"--shard-hosts: {error}")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'On the Topologies Formed by Selfish Peers' "
            "(Moscibroda, Schmid, Wattenhofer; PODC 2006)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the registered experiments")

    run = sub.add_parser("run", help="run one experiment (e.g. E5)")
    run.add_argument(
        "experiment_id", help=f"experiment id, {_experiment_id_range()}"
    )
    run.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )
    run.add_argument(
        "--out", default=None, help="also write the output to this file"
    )
    _add_execution_flags(run)

    run_all = sub.add_parser(
        "run-all", help="run every experiment (full reproduction)"
    )
    run_all.add_argument("--json", action="store_true")
    _add_execution_flags(run_all)

    certify = sub.add_parser(
        "certify", help="exhaustively certify the no-Nash witness"
    )
    certify.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="trade-off parameter (default: the canonical 0.6)",
    )

    demo = sub.add_parser("demo", help="a 30-second guided tour")
    _add_execution_flags(demo)

    serve = sub.add_parser(
        "serve",
        help="run the churn/query service on a socket (open-loop traffic)",
    )
    serve.add_argument(
        "--listen",
        required=True,
        metavar="ADDR",
        help="address to listen on: host:port (port 0 = ephemeral, "
        "printed on startup) or unix:/path",
    )
    serve.add_argument(
        "--universe",
        type=_positive_int_arg("universe"),
        default=10_000,
        help="size of the fixed peer universe (default 10000)",
    )
    serve.add_argument(
        "--active",
        type=_positive_int_arg("active"),
        default=64,
        help="initially active peers (ids 0..N-1; default 64)",
    )
    serve.add_argument(
        "--alpha", type=float, default=2.0, help="link-cost trade-off"
    )
    serve.add_argument(
        "--dim", type=_positive_int_arg("dim"), default=2,
        help="dimension of the random Euclidean universe",
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="universe placement seed"
    )
    serve.add_argument(
        "--method",
        choices=("greedy", "exact", "brute"),
        default="greedy",
        help="best-response solver for rebind epochs (default greedy)",
    )
    serve.add_argument(
        "--max-queue",
        type=_positive_int_arg("max-queue"),
        default=1024,
        help="admission bound: most requests that may be queued",
    )
    serve.add_argument(
        "--max-batch",
        type=_positive_int_arg("max-batch"),
        default=64,
        help="most requests one coalesced epoch may hold",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="coalescer linger after an epoch's first request (ms)",
    )
    serve.add_argument(
        "--policy",
        choices=("block", "shed"),
        default="block",
        help="full-queue policy: block producers or shed the request",
    )
    serve.add_argument(
        "--no-coalesce",
        action="store_true",
        help="one epoch per request (the measured baseline mode)",
    )
    serve.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="write the replayable epoch journal here on shutdown",
    )
    serve.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help="inject deterministic faults (chaos testing): comma-"
        "separated key=value pairs — seed=N, drop/corrupt/delay=RATE, "
        "delay_ms=F, max_ops=N, kill=SITE@OP (repeatable); 'null' "
        "disables. Transport faults require --shard-placement "
        "process|socket; the service queue is always faultable",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress stderr log lines"
    )
    _add_execution_flags(serve)
    return parser


def _result_payload(result) -> dict:
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "paper_claim": result.paper_claim,
        "verdict": "SUPPORTED" if result.verdict else "NOT SUPPORTED",
        "notes": list(result.notes),
        "rows": list(result.rows),
        "params": result.params,
    }


def _emit(text: str, out: Optional[str]) -> None:
    print(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _cmd_list() -> int:
    from repro.analysis.tables import render_table
    from repro.experiments import EXPERIMENTS

    rows = [
        {
            "id": spec.experiment_id,
            "paper artifact": spec.paper_artifact,
            "title": spec.title,
            "bench": spec.bench,
        }
        for spec in EXPERIMENTS.values()
    ]
    print(render_table(rows))
    return 0


def _harness_params(args) -> dict:
    """The execution flags forwarded to experiment runners."""
    return {
        "workers": args.workers,
        "backend": args.backend,
        "shards": args.shards,
        "shard_placement": args.shard_placement,
        "shard_hosts": args.shard_hosts,
        "game_family": args.game,
        "beta": args.beta,
    }


def _make_cost_model(game_family, beta, alpha):
    """The CLI's cost-model factory: ``None`` for the paper's default."""
    if game_family in (None, "unilateral"):
        return None
    from repro.core.cost_model import CongestionModel

    return CongestionModel(alpha, 1.0 if beta is None else float(beta))


def _cmd_run(
    experiment_id: str,
    as_json: bool,
    out: Optional[str],
    params: dict,
) -> int:
    from repro.experiments import get_experiment

    try:
        spec = get_experiment(experiment_id)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        result = spec.run(**params)
    except ValueError as error:
        # Experiment-level flag validation (e.g. --shards exceeding the
        # experiment's population): a clear error, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    if as_json:
        _emit(json.dumps(_result_payload(result), indent=2, default=str), out)
    else:
        _emit(result.table() + "\n\n" + result.summary(), out)
    return 0 if result.verdict else 1


def _cmd_run_all(
    as_json: bool,
    params: dict,
) -> int:
    from repro.experiments import EXPERIMENTS

    exit_code = 0
    payloads = []
    for spec in EXPERIMENTS.values():
        try:
            result = spec.run(**params)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if as_json:
            payloads.append(_result_payload(result))
        else:
            print(result.table())
            print()
            print(result.summary())
            print()
        if not result.verdict:
            exit_code = 1
    if as_json:
        print(json.dumps(payloads, indent=2, default=str))
    return exit_code


def _cmd_certify(alpha: Optional[float]) -> int:
    from repro.constructions.no_nash import WITNESS_ALPHA, certify_no_nash

    effective = WITNESS_ALPHA if alpha is None else alpha
    result = certify_no_nash(alpha=effective)
    print(
        f"alpha={effective}: checked {result.num_profiles:,} strategy "
        f"profiles, pure Nash equilibria found: {result.num_equilibria}"
    )
    if result.has_equilibrium:
        print("=> equilibria exist at this alpha (witness window is "
              "roughly [0.59, 0.66])")
        return 1
    print("=> no pure Nash equilibrium: Theorem 5.1, certified")
    return 0


def _cmd_demo(params: dict) -> int:
    from repro import BestResponseDynamics, TopologyGame
    from repro.constructions.no_nash import build_no_nash_instance
    from repro.metrics.euclidean import EuclideanMetric
    from repro.simulation.engine import SimulationEngine

    workers = params["workers"]
    backend = params["backend"]
    shards = params["shards"]
    game_family = params.get("game_family")
    beta = params.get("beta")
    family = "congestion" if game_family == "congestion" else "unilateral"
    print(
        f"1. Selfish rewiring on a random instance (n=12, alpha=2, "
        f"game={family}):"
    )
    game = TopologyGame(
        EuclideanMetric.random_uniform(12, dim=2, seed=1),
        alpha=2.0,
        cost_model=_make_cost_model(game_family, beta, 2.0),
    )
    result = BestResponseDynamics(game).run(max_rounds=100)
    print(f"   {result}")
    print(f"   social cost: {game.social_cost(result.profile)}")
    print()
    print("2. The paper's Theorem 5.1 witness (n=5, alpha=0.6):")
    witness = build_no_nash_instance()
    witness_run = BestResponseDynamics(witness).run(max_rounds=100)
    print(f"   {witness_run}")
    print()
    placement = params["shard_placement"]
    print(
        f"3. Batched max-gain sweeps (n=32, alpha=1, workers={workers}, "
        f"backend={backend or 'serial'}, shards={shards or 'unsharded'}"
        f"{f', placement={placement}' if placement else ''}):"
    )
    sweep_game = TopologyGame(
        EuclideanMetric.random_uniform(32, dim=2, seed=2),
        alpha=1.0,
        cost_model=_make_cost_model(game_family, beta, 1.0),
    )
    with SimulationEngine(
        sweep_game,
        method="greedy",
        activation="max-gain",
        workers=workers,
        backend=backend,
        shards=shards,
        shard_placement=placement,
        shard_hosts=params["shard_hosts"],
    ) as engine:
        report = engine.run(max_rounds=120)
        stats = engine.evaluator.stats
    print(
        f"   {report.stopped_reason} after {report.moves} moves; "
        f"final cost {report.final_cost:.2f}"
    )
    print(
        f"   gain sweeps: {stats.gain_sweeps}, solver calls: "
        f"{stats.response_solves}, memo skips: {stats.response_memo_hits}"
    )
    print()
    print("   run `python -m repro certify` for the exhaustive 2^20 "
          "certificate,")
    print("   or  `python -m repro run E6` for the Figure 3 case table.")
    return 0


def _cmd_serve(args) -> int:
    from repro.metrics.euclidean import EuclideanMetric
    from repro.service import (
        ChurnService,
        ServiceJournal,
        ServiceServer,
        ServiceState,
    )

    if args.active > args.universe:
        print(
            f"error: --active ({args.active}) cannot exceed --universe "
            f"({args.universe})",
            file=sys.stderr,
        )
        return 2
    metric = EuclideanMetric.random_uniform(
        args.universe, dim=args.dim, seed=args.seed
    )
    fault_plan = None
    if args.fault_plan is not None:
        from repro.faults import FaultPlan

        try:
            fault_plan = FaultPlan.parse(args.fault_plan)
        except ValueError as error:
            print(f"error: --fault-plan: {error}", file=sys.stderr)
            return 2
        if fault_plan.is_null:
            fault_plan = None
    # Transport-level faults need per-shard worker transports to wrap;
    # without them only the service-queue site is live.
    transports_faultable = args.shard_placement in ("process", "socket")
    journal = ServiceJournal() if args.journal else None
    # ServiceState takes a model object, not the flag pair: convert and
    # drop the harness keys meant for experiment runners.
    harness = _harness_params(args)
    cost_model = _make_cost_model(
        harness.pop("game_family"), harness.pop("beta"), args.alpha
    )
    state = ServiceState(
        metric,
        args.alpha,
        cost_model=cost_model,
        initial_active=range(args.active),
        method=args.method,
        journal=journal,
        fault_plan=fault_plan if transports_faultable else None,
        recovery=True if transports_faultable and fault_plan else None,
        **harness,
    )
    service = ChurnService(
        state,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        policy=args.policy,
        coalesce=not args.no_coalesce,
        fault_plan=fault_plan,
    )
    if fault_plan is not None and not args.quiet:
        scope = "queue+transports" if transports_faultable else "queue only"
        print(
            f"fault plan: {fault_plan.describe()} ({scope})",
            file=sys.stderr,
        )
    try:
        server = ServiceServer(service, args.listen, quiet=args.quiet)
    except (OSError, ValueError) as error:
        service.close()
        print(f"repro serve: {error}", file=sys.stderr)
        return 1
    from repro.core.transport import parse_address

    # Announce the bound address: with an ephemeral TCP port it is the
    # one output a launcher cannot know without us.
    if not args.quiet or (parse_address(args.listen)[-1] == 0):
        print(f"listening on {server.address}", file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    finally:
        server.close()
        if journal is not None:
            journal.save(args.journal)
            if not args.quiet:
                print(
                    f"journal: {len(journal)} epochs -> {args.journal}",
                    file=sys.stderr,
                )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("run", "run-all", "demo", "serve"):
        _check_execution_flags(args, parser)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(
                args.experiment_id,
                args.json,
                args.out,
                _harness_params(args),
            )
        if args.command == "run-all":
            return _cmd_run_all(args.json, _harness_params(args))
        if args.command == "certify":
            return _cmd_certify(args.alpha)
        if args.command == "demo":
            return _cmd_demo(_harness_params(args))
        if args.command == "serve":
            return _cmd_serve(args)
    except BrokenPipeError:  # downstream pager closed (e.g. `| head`)
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
