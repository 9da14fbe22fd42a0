#!/usr/bin/env python3
"""Layer-ledger benchmark: one workload per run, checked and measured.

Usage, from the repository root::

    python3 ledger/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads are ``sweep``, ``churn-socket``, ``serve-read`` and
``serve-churn`` (see :mod:`workloads`).  The run imports the library from
``src/`` of the same checkout, builds its inputs from ``--seed``, and
spends about ``--seconds`` in measured operations over several instances.

* ``--trace 0`` prints every end-to-end metric with its unit and sample
  count, the correctness verdict and the host fingerprint.  Times and
  rates are given at the nominal host speed of :mod:`probe` and as
  timed; ``setup_s`` takes the median of three start-ups, this one and
  two fresh interpreters started after the measured pass.
* ``--trace 1`` runs the instances untraced and the same instances again
  with the layer wrappers of :mod:`tracing` installed, and prints the
  per-layer table; ``bench.tracing_overhead`` is the ratio of the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results
(and, when traced, every span) are written under ``.ledger/`` in the
checkout, which also holds the shard servers' socket files while they
run.  ``--size toy`` and ``--tamper`` exist for the ledger's own test.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".ledger")
WORKLOAD_NAMES = ("sweep", "churn-socket", "serve-read", "serve-churn")
#: Instances per untraced run when a workload does not fix the count.
MIN_INSTANCES = 3
#: Start-ups timed per untraced run (``setup_s`` takes their median).
STARTUPS = 3
#: AF_UNIX socket paths are limited to 107 bytes.
_MAX_SOCKET_PATH = 100


def _process_age_s() -> float:
    """Seconds since this interpreter started (10 ms resolution)."""
    try:
        with open("/proc/self/stat") as handle:
            start_ticks = int(handle.read().rsplit(")", 1)[1].split()[19])
        boot_s = time.clock_gettime(time.CLOCK_BOOTTIME)
        return boot_s - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, AttributeError):
        return time.perf_counter() - _STARTED


def _startup_samples(args, own_s: float, record) -> list:
    """This process's start-up time plus :data:`STARTUPS` - 1 more.

    Start-up (interpreter, imports, the workload's one-time warm-up) runs
    once per process, so further samples come from fresh interpreters
    doing the same, after the measured passes.
    """
    code = (
        f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; "
        "import scipy.sparse.csgraph, report; "
        "from workloads import WORKLOADS, Context; "
        f"WORKLOADS[{args.workload!r}](Context({args.size!r})).warmup()"
    )
    samples = [own_s]
    for _ in range(STARTUPS - 1):
        start = time.perf_counter()
        with _ticks(record, "setup"):
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def _commit() -> str:
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` (identifies code without git)."""
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _fingerprint(args) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": _commit(),
        "source_digest": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _private_tmpdir() -> str:
    """Temp dir inside the checkout for shard-server sockets."""
    path = os.path.join(OUT, "tmp")
    os.makedirs(path, exist_ok=True)
    if len(os.path.join(path, "repro-shard-0000000-00000000.sock")) > _MAX_SOCKET_PATH:
        path = os.path.relpath(path)  # the server inherits our cwd
    tempfile.tempdir = path
    return path


@contextlib.contextmanager
def _ticks(record, phase: str):
    """Add each CPU's stolen and busy ticks during the block to ``record``."""
    from probe import cpu_ticks

    before = cpu_ticks()
    try:
        yield
    finally:
        after = cpu_ticks()
        record.add(f"{phase}_cpu_ticks", [
            (stolen - stolen0, busy - busy0)
            for (stolen0, busy0), (stolen, busy) in zip(before, after)
        ])


def run_instance(workload, record, seed, index, budget_s, tmpdir, plan=None):
    """Set up, measure, tear down and check one instance.

    Returns ``(plan, layer stats)``; an exception from the program fails
    the operation in flight and ends the instance, never the run.
    """
    from workloads import leaked_resources

    stats = {}
    start = time.perf_counter()
    try:
        with _ticks(record, "setup"):
            inst = workload.setup(seed, index)
    except Exception as error:  # noqa: BLE001 - reported as a failed op
        record.attempted += 1
        record.failed += 1
        record.check("setup", False, f"instance {index}: {error!r}")
        record.leaks += leaked_resources(tmpdir)
        return plan, stats
    record.setups_s.append(time.perf_counter() - start)
    try:
        with _ticks(record, "measured"):
            plan = workload.measure(inst, record, budget_s, plan)
        stats = workload.layer_stats(inst)
    except Exception as error:  # noqa: BLE001 - reported as a failed op
        record.failed += 1
        record.check("run", False, f"instance {index} aborted: {error!r}")
    finally:
        try:
            workload.close(inst, record)
        except Exception as error:  # noqa: BLE001 - reported as a failed check
            record.check("teardown", False, f"instance {index}: {error!r}")
        record.leaks += leaked_resources(tmpdir)
    return plan, stats


def run_pass(workload, record, seed, seconds, tmpdir, plans=None):
    """Run instances until the pass is done; returns their plans and stats.

    A workload that fixes ``instances`` splits ``seconds`` evenly over
    them; otherwise fixed-work instances repeat until ``seconds`` of
    measured time are spent.  Given ``plans``, exactly those instances
    are repeated with the same seeds and work (the traced pass).
    """
    count = workload.instances or MIN_INSTANCES
    done = []
    while True:
        index = len(done)
        if plans is not None:
            if index == len(plans):
                return done
        elif index >= count and (workload.instances or record.measured_s >= seconds):
            return done
        plan = None if plans is None else plans[index][0]
        done.append(run_instance(workload, record, seed, index, seconds / count, tmpdir, plan))


def _verdict(record, extra_problems=()):
    problems = [f"{name}: {detail}" for name, ok, detail in record.checks if not ok]
    problems += list(record.invalid) + list(extra_problems)
    problems += [f"leaked {leak}" for leak in record.leaks]
    correct = not problems
    failed = record.failed + len(record.leaks)
    if not all(ok for _name, ok, _detail in record.checks):
        failed = record.attempted  # every op of a run that failed its check
    return correct, min(max(failed, 0), max(record.attempted, 1)), problems


def _check_lines(record):
    summary = {}
    for name, ok, detail in record.checks:
        passed, total, last = summary.get(name, (0, 0, ""))
        summary[name] = (passed + ok, total + 1, detail or last)
    return [
        f"check {name}: {passed}/{total} passed" + (f" ({detail})" if detail else "")
        for name, (passed, total, detail) in summary.items()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument(
        "--tamper", choices=("none", "journal", "response", "costs"), default="none",
        help="corrupt one recorded output before its check (self-test only)",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    tmpdir = _private_tmpdir()

    import scipy.sparse.csgraph  # noqa: F401 - imported lazily by the program

    import report
    from workloads import WORKLOADS, Context, Record

    workload = WORKLOADS[args.workload](Context(args.size, tamper=args.tamper))
    workload.warmup()
    import_s = _process_age_s()
    header = f"ledger: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} size={args.size}"
    print(header, flush=True)
    fingerprint = _fingerprint(args)
    print("host: " + json.dumps(fingerprint, sort_keys=True), flush=True)

    if args.trace:
        metrics, lines, record, extra, spans = _traced(args, workload, tmpdir)
    else:
        record = Record()
        run_pass(workload, record, args.seed, args.seconds, tmpdir)
        lag = report.generator_lagged(record)
        if lag:
            record.invalid.append(lag)
        rss_mb = _peak_rss_mb()  # before the start-up samples' interpreters
        startups = _startup_samples(args, import_s, record)
        metrics, table = report.end_to_end(args.workload, record, startups, rss_mb)
        lines = [f"{'metric':<26}{'value':>12}{'as timed':>12}  {'unit':<9}samples"]
        lines += [
            f"{name:<26}{value:>12.6g}{raw:>12.6g}  {unit:<9}{count}"
            for name, value, raw, unit, count in table
        ]
        extra, spans = [], None
        if any(value != value for value in metrics.values()):  # NaN: no samples
            extra.append("a metric has no samples")
    correct, failed, problems = _verdict(record, extra)
    for line in lines + _check_lines(record):
        print(line)
    print("teardown: " + ("clean" if not record.leaks else "LEAKED " + "; ".join(record.leaks)))
    print("verdict: " + ("correct" if correct else "INCORRECT: " + "; ".join(problems)))

    units = dict(report.PER_LAYER if args.trace else report.END_TO_END)
    result = {
        "correct": correct,
        "attempted": int(max(record.attempted, 1)),
        "failed": int(failed),
        "metrics": {
            name: {"value": (metrics[name] if metrics[name] == metrics[name] else 0.0), "unit": units[name]}
            for name in units
        },
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump({"host": fingerprint, "result": result, "samples": record.samples,
                   "checks": record.checks, "leaks": record.leaks}, handle)
    if spans is not None:
        with open(stem + "-spans.json", "w") as handle:
            json.dump(spans, handle)
    print(json.dumps(result), flush=True)
    return 0


def _traced(args, workload, tmpdir):
    """Untraced pass, then the same instances traced; per-layer table."""
    import report
    from tracing import Tracer
    from workloads import WORKLOADS, Context, Record

    base = Record()
    plans = run_pass(workload, base, args.seed, args.seconds / 2, tmpdir)

    tracer = Tracer()
    ctx = Context(args.size, tracer=tracer, tamper=args.tamper)
    tracer.hooks = _hooks(ctx.request_ids)
    tracer.install()
    try:
        record = Record()
        workload = WORKLOADS[args.workload](ctx)
        stats = [stats for _plan, stats in run_pass(
            workload, record, args.seed, args.seconds / 2, tmpdir, plans)]
    finally:
        tracer.uninstall()
    key = "saturation_s" if args.workload.startswith("serve") else None
    traced = sum(record.samples.get(key, [])) if key else record.measured_s
    untraced = sum(base.samples.get(key, [])) if key else base.measured_s
    overhead = traced / untraced if untraced else 0.0
    metrics, problems = report.per_layer(args.workload, tracer, record, ctx, stats, overhead)
    record.checks = base.checks + record.checks
    record.leaks = base.leaks + record.leaks
    record.attempted += base.attempted
    record.failed += base.failed
    lines = [f"{'layer metric':<62}{'value':>14}  unit"]
    lines += [f"{name:<62}{metrics[name]:>14.6g}  {unit}" for name, unit in report.PER_LAYER]
    lines.append(
        f"traced wall {record.measured_s * 1e3:.3f} ms = layer times + "
        f"bench.unattributed_ms ({metrics['bench.unattributed_ms']:.3f} ms)"
    )
    return metrics, lines, record, problems, tracer.dump()


def _hooks(request_ids):
    """Span metadata: sources per blocked call, improving responses per
    batch, and per epoch the request ids it carried and what it did."""

    def blocked(span, args, result):
        span.meta = sum(len(sources) for _graph, sources in args[0])

    def batch(span, args, result):
        span.meta = sum(1 for response in result if response is not None and response.improved)

    def epoch(span, args, outcome):
        requests = args[1]
        rebinds = [r.peer for r in requests if r.kind == "rebind"]
        span.meta = {
            "requests": [request_ids.get(id(r), (None, None))[1] for r in requests],
            "size": len(requests),
            "moves": outcome.moves,
            "rebinds": len(rebinds),
            "distinct_rebinds": len(set(rebinds)),
            "rejected": sum(1 for ok, _value in outcome.results if not ok),
        }

    return {
        "graphs.shortest_paths.blocked_multi_source_distances": blocked,
        "core.dynamics.batch_responses": batch,
        "service.state.apply_epoch": epoch,
    }


if __name__ == "__main__":
    sys.exit(main())
