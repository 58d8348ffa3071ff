"""Command-line interface: run the paper's experiments without writing code.

Usage::

    python -m repro sweep --dataset video --sequences 200 --queries 5
    python -m repro demo --dataset fractal
    python -m repro generate --dataset video --count 100 --out corpus.npz
    python -m repro serve --corpus corpus.npz --workers 8

``sweep`` runs the Figure 6-10 threshold sweep and prints every series with
the paper's bands; ``demo`` runs one annotated search; ``generate`` writes a
corpus as a reloadable :class:`~repro.core.database.SequenceDatabase`;
``serve`` exposes a saved corpus through the concurrent
:mod:`repro.service` HTTP endpoint.
"""

from __future__ import annotations

import argparse
import sys
import threading
from collections.abc import Sequence

from repro.analysis.experiment import ExperimentConfig, ExperimentRunner
from repro.analysis.report import figure_table, sparkline_panel

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Similarity search for multidimensional data sequences "
            "(Lee et al., ICDE 2000) — experiment driver"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser(
        "sweep", help="run the Figure 6-10 threshold sweep"
    )
    _add_dataset_arguments(sweep)
    sweep.add_argument(
        "--queries", type=int, default=5, help="queries per threshold"
    )
    sweep.add_argument(
        "--thresholds",
        type=float,
        nargs="+",
        default=None,
        help="threshold grid (default: the paper's 0.05..0.50)",
    )

    demo = commands.add_parser("demo", help="run one annotated search")
    _add_dataset_arguments(demo)
    demo.add_argument("--epsilon", type=float, default=0.1)

    generate = commands.add_parser(
        "generate", help="generate a corpus and save it as a database"
    )
    _add_dataset_arguments(generate)
    generate.add_argument("--out", required=True, help="output .npz path")

    serve = commands.add_parser(
        "serve", help="serve a saved corpus over HTTP (repro.service)"
    )
    serve.add_argument(
        "--corpus",
        default=None,
        help=(
            ".npz corpus written by generate/save (optional when --data-dir "
            "already holds a snapshot)"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765, help="0 picks a free port"
    )
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument(
        "--queue-cap",
        type=int,
        default=64,
        help="requests allowed to queue beyond the running ones",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=128,
        help="epsilon-aware result cache entries (0 disables)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-request deadline in seconds",
    )
    serve.add_argument(
        "--trace", default=None, help="JSON-lines trace file for searches"
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        help=(
            "durability directory (snapshot + write-ahead log); writes are "
            "logged before they are acknowledged and replayed on restart"
        ),
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help=(
            "auto-checkpoint (snapshot save + WAL reset) after this many "
            "logged writes (0: only on shutdown)"
        ),
    )
    serve.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip fsync on WAL appends (faster, loses the power-loss guarantee)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds to wait for in-flight requests before closing",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log each HTTP request"
    )
    serve.add_argument(
        "--follow",
        default=None,
        metavar="URL",
        help=(
            "run as a read-only follower of this leader: tail its WAL over "
            "/wal/tail and reject direct writes (requires --data-dir for "
            "the durable cursor)"
        ),
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        help="seconds between WAL tail polls in follower mode",
    )

    cluster = commands.add_parser(
        "cluster-serve",
        help="coordinate sharded, replicated backends behind one endpoint",
    )
    cluster.add_argument(
        "--backend",
        action="append",
        dest="backends",
        default=None,
        metavar="URL",
        help=(
            "a running repro-serve base URL; repeat per backend "
            "(attached mode)"
        ),
    )
    cluster.add_argument(
        "--corpus",
        default=None,
        help=(
            ".npz corpus to shard across in-process backends "
            "(self-contained mode; mutually exclusive with --backend)"
        ),
    )
    cluster.add_argument(
        "--local-backends",
        type=int,
        default=3,
        help="in-process backends to boot in self-contained mode",
    )
    cluster.add_argument(
        "--shards",
        type=int,
        default=None,
        help="corpus shards (default: one per backend)",
    )
    cluster.add_argument(
        "--replication", type=int, default=1, help="replicas per shard"
    )
    cluster.add_argument(
        "--write-quorum",
        type=int,
        default=None,
        help="replica acks required per write (default: majority)",
    )
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument(
        "--port", type=int, default=8770, help="0 picks a free port"
    )
    cluster.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker threads per in-process backend",
    )
    cluster.add_argument(
        "--probe-interval",
        type=float,
        default=2.0,
        help="seconds between /healthz sweeps of the backends",
    )
    cluster.add_argument(
        "--no-hedge",
        action="store_true",
        help="disable hedged (backup) requests for slow shards",
    )
    cluster.add_argument(
        "--hedge-quantile",
        type=float,
        default=0.95,
        help="latency quantile after which a shard request is hedged",
    )
    cluster.add_argument(
        "--backend-timeout",
        type=float,
        default=10.0,
        help="socket timeout per backend call (attached mode)",
    )
    cluster.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds to wait for in-flight requests before closing",
    )
    cluster.add_argument(
        "--verbose", action="store_true", help="log each HTTP request"
    )
    cluster.add_argument(
        "--journal-dir",
        default=None,
        help=(
            "directory for the durable repair journal; queued read-repair "
            "ops survive a coordinator restart"
        ),
    )
    cluster.add_argument(
        "--max-repair-ops",
        type=int,
        default=10_000,
        help=(
            "per-backend repair queue bound; overflow forces a full "
            "snapshot resync of the lagging backend"
        ),
    )
    cluster.add_argument(
        "--follower",
        action="append",
        dest="follower_specs",
        default=None,
        metavar="URL=LEADER",
        help=(
            "a follower replica as URL=LEADER_INDEX (attached mode); "
            "repeatable — followers serve bounded-staleness reads for "
            "their leader's shards"
        ),
    )
    cluster.add_argument(
        "--max-lag-records",
        type=int,
        default=None,
        help=(
            "staleness bound for follower reads (records behind the "
            "leader); unset keeps followers probe-only"
        ),
    )
    cluster.add_argument(
        "--budget-floor",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help=(
            "dispatch floor: a failover/hedge sub-call is never sent when "
            "the request's remaining budget is below this"
        ),
    )

    route = commands.add_parser(
        "cluster-route",
        help="print the shard/replica placement of sequence ids",
    )
    route.add_argument(
        "--backends", type=int, required=True, help="backend count"
    )
    route.add_argument("--shards", type=int, default=None)
    route.add_argument("--replication", type=int, default=1)
    route.add_argument(
        "ids",
        nargs="+",
        help="sequence ids (decimal tokens route as ints, others as strs)",
    )

    wal_inspect = commands.add_parser(
        "wal-inspect",
        help="dump and verify a write-ahead log without modifying it",
    )
    wal_inspect.add_argument("path", help="path to a wal.log file")
    wal_inspect.add_argument(
        "--records",
        action="store_true",
        help="print every decoded record, not just the summary",
    )

    bench = commands.add_parser(
        "bench",
        help="run the canonical benchmark suite and write BENCH_*.json",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized profile (whole suite well under two minutes)",
    )
    bench.add_argument(
        "--suite",
        action="append",
        dest="suites",
        default=None,
        choices=("engine", "service", "cluster"),
        help="run only this suite (repeatable; default: all)",
    )
    bench.add_argument(
        "--assert-slo",
        action="store_true",
        help="exit non-zero if any SLO floor/ceiling is violated",
    )
    bench.add_argument(
        "--slo",
        action="append",
        dest="slos",
        default=None,
        metavar="EXPR",
        help=(
            "extra SLO rule 'suite/scenario:metric>=X' (or <=X); "
            "repeatable, extends the built-in floors"
        ),
    )
    bench.add_argument(
        "--out",
        default=".",
        help="directory for the BENCH_<suite>.json files (default: repo root)",
    )
    bench.add_argument(
        "--seed", type=int, default=2000, help="workload seed"
    )
    bench.add_argument(
        "--list",
        action="store_true",
        help="list registered scenarios and exit without running",
    )

    bench_diff = commands.add_parser(
        "bench-diff",
        help="compare two BENCH_<suite>.json files for regressions",
    )
    bench_diff.add_argument("baseline", help="older trajectory file")
    bench_diff.add_argument("current", help="newer trajectory file")
    bench_diff.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="relative change allowed in the regressing direction",
    )

    return parser


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", choices=("fractal", "video"), default="fractal"
    )
    parser.add_argument("--sequences", type=int, default=200)
    parser.add_argument("--count", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=2000)


def _make_runner(
    args: argparse.Namespace,
    thresholds: Sequence[float] | None = None,
    queries: int = 5,
) -> ExperimentRunner:
    config = ExperimentConfig(
        dataset=args.dataset,
        n_sequences=args.count or args.sequences,
        queries_per_threshold=queries,
        thresholds=tuple(thresholds)
        if thresholds
        else ExperimentConfig().thresholds,
        seed=args.seed,
    )
    return ExperimentRunner(config)


def _command_sweep(args: argparse.Namespace) -> int:
    runner = _make_runner(args, thresholds=args.thresholds, queries=args.queries)
    print(
        f"sweeping {len(runner.database)} {args.dataset} sequences "
        f"({runner.database.segment_count} MBRs), "
        f"{args.queries} queries per threshold\n"
    )
    rows = runner.run(verbose=True)
    figures = ("fig6", "fig8", "fig10") if args.dataset == "fractal" else (
        "fig7",
        "fig9",
        "fig10",
    )
    for figure in figures:
        print()
        print(figure_table(figure, rows))
    if len(rows) > 1:
        print()
        print(
            sparkline_panel(
                rows,
                ["pr_dmbr", "pr_dnorm", "si_pruning", "si_recall", "response_ratio"],
            )
        )
    return 0


def _command_demo(args: argparse.Namespace) -> int:
    from repro.datagen.queries import generate_queries

    runner = _make_runner(args, thresholds=(args.epsilon,), queries=1)
    corpus = {
        sid: runner.database.sequence(sid) for sid in runner.database.ids()
    }
    query = generate_queries(corpus, 1, seed=args.seed + 1)[0]
    result = runner.engine.search(query, args.epsilon)
    truth = runner.scanner.scan(query, args.epsilon, find_intervals=False)
    print(
        f"dataset={args.dataset} sequences={len(corpus)} "
        f"epsilon={args.epsilon}"
    )
    print(
        f"Phase 2 candidates: {len(result.candidates)}   "
        f"Phase 3 answers: {len(result.answers)}   "
        f"exactly relevant: {len(truth.answers)}"
    )
    print(
        f"false dismissals: {len(truth.answers - set(result.answers))} "
        f"(always 0 by Lemmas 1-3)"
    )
    for sequence_id in list(result.answers)[:5]:
        interval = result.solution_intervals[sequence_id]
        spans = ", ".join(f"[{a}:{b})" for a, b in interval.intervals[:4])
        print(f"  {sequence_id!r}: solution interval {spans}")
    print(
        f"time: method {result.stats.total_seconds * 1e3:.1f} ms, "
        f"scan {truth.seconds * 1e3:.1f} ms"
    )
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    runner.database.save(args.out)
    print(
        f"wrote {len(runner.database)} {args.dataset} sequences "
        f"({runner.database.point_count} points) to {args.out}"
    )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import signal
    from pathlib import Path

    from repro.core.database import SequenceDatabase
    from repro.service import (
        DurabilityConfig,
        QueryEngine,
        ServiceClient,
        WalFollower,
    )
    from repro.service.http import serve as bind_server
    from repro.service.http import shutdown_gracefully

    if args.follow is not None and args.data_dir is None:
        print(
            "repro serve: --follow requires --data-dir (the follower's "
            "durable cursor and WAL live there)",
            file=sys.stderr,
        )
        return 2

    durability = None
    if args.data_dir is not None:
        durability = DurabilityConfig(
            Path(args.data_dir),
            fsync=not args.no_fsync,
            checkpoint_every=args.checkpoint_every,
        )

    leader = None
    if args.follow is not None:
        leader = ServiceClient(args.follow, timeout=30.0)

    database = None
    if args.corpus is not None:
        database = SequenceDatabase.load(args.corpus)
    elif durability is None or not durability.snapshot_path.exists():
        if leader is not None:
            # A fresh follower bootstraps an empty corpus in the leader's
            # dimension; the tail loop (or a snapshot resync) fills it.
            try:
                dimension = int(leader.healthz()["dimension"])
            except Exception as error:  # error-ok: operator-facing bootstrap — reported on stderr, exits 2
                print(
                    f"repro serve: cannot reach leader {args.follow}: "
                    f"{error}",
                    file=sys.stderr,
                )
                return 2
            database = SequenceDatabase(dimension)
        else:
            print(
                "repro serve: --corpus is required unless --data-dir holds "
                "a previous snapshot",
                file=sys.stderr,
            )
            return 2

    engine = QueryEngine(
        database,
        workers=args.workers,
        queue_cap=args.queue_cap,
        cache_size=args.cache_size,
        default_timeout=args.timeout,
        trace_path=args.trace,
        durability=durability,
    )
    follower = None
    if leader is not None:
        follower = WalFollower(
            engine,
            leader,
            cursor_path=Path(args.data_dir) / "follower_cursor.json",
            leader_url=args.follow,
        )
    server = bind_server(
        engine,
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        follower=follower,
    )
    host, port = server.server_address[:2]
    durable = " durable" if durability is not None else ""
    role = f" following {args.follow}" if follower is not None else ""
    print(
        f"repro serve: {len(engine)} sequences "
        f"({engine.stats()['segments']} MBRs) on http://{host}:{port} "
        f"with {args.workers} workers{durable}{role}",
        flush=True,
    )

    # serve_forever() and shutdown() must run on different threads, so the
    # accept loop gets a worker thread and the main thread waits for a
    # signal (SIGINT/SIGTERM) to trigger the orderly teardown.
    stop = threading.Event()

    def _request_stop(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGINT, _request_stop)
    signal.signal(signal.SIGTERM, _request_stop)
    accept_loop = threading.Thread(
        target=server.serve_forever, name="repro-serve-accept", daemon=True
    )
    accept_loop.start()
    tail_loop = None
    if follower is not None:
        tail_loop = threading.Thread(
            target=follower.run,
            args=(stop,),
            kwargs={"interval": args.poll_interval},
            name="repro-serve-follower",
            daemon=True,
        )
        tail_loop.start()
    try:
        stop.wait()
    finally:
        stop.set()
        if tail_loop is not None:
            tail_loop.join(timeout=max(5.0, 2 * args.poll_interval))
        # Stop accepting, let in-flight requests finish (bounded), then
        # close the engine (checkpointing if durable) and release the port.
        drained = shutdown_gracefully(
            server, engine, drain_timeout=args.drain_timeout
        )
        accept_loop.join(timeout=5.0)
        if leader is not None:
            leader.close()
        suffix = "" if drained else " (drain timed out)"
        print(f"repro serve: shut down cleanly{suffix}", flush=True)
    return 0


def _parse_route_id(token: str) -> object:
    """CLI id token: decimal tokens route as ints, everything else as strs."""
    try:
        return int(token)
    except ValueError:
        return token


def _command_cluster_serve(args: argparse.Namespace) -> int:
    import signal
    import time

    from repro.cluster import (
        ClusterCoordinator,
        HedgePolicy,
        LocalBackend,
        ShardRouter,
        serve_cluster,
    )
    from repro.cluster.backends import Backend
    from repro.service import QueryEngine, ServiceClient
    from repro.util.errtrace import record_swallowed

    if bool(args.backends) == bool(args.corpus):
        print(
            "repro cluster-serve: pass either --backend URL... (attached "
            "mode) or --corpus PATH (self-contained mode), not both",
            file=sys.stderr,
        )
        return 2

    backends: list[Backend]
    engines: list[QueryEngine] = []
    seed_ids: list[object] = []
    if args.backends:
        backends = [
            ServiceClient(url, timeout=args.backend_timeout)
            for url in args.backends
        ]
        mode = f"{len(backends)} attached backend(s)"
    else:
        from repro.core.database import SequenceDatabase

        corpus = SequenceDatabase.load(args.corpus)
        seed_ids = corpus.ids()
        count = args.local_backends
        router = ShardRouter(
            num_backends=count,
            num_shards=args.shards,
            replication=args.replication,
        )
        shards = [
            SequenceDatabase(corpus.dimension) for _ in range(count)
        ]
        for sequence_id in seed_ids:
            placement = router.placement(sequence_id)
            for backend_index in placement.replicas:
                shards[backend_index].add(
                    corpus.sequence(sequence_id).points,
                    sequence_id=sequence_id,
                )
        engines = [
            QueryEngine(shard, workers=args.workers) for shard in shards
        ]
        backends = [
            LocalBackend(engine, name=f"local-{index}")
            for index, engine in enumerate(engines)
        ]
        mode = (
            f"{len(seed_ids)} sequences sharded over {count} "
            "in-process backend(s)"
        )

    followers: list[tuple[Backend, int]] = []
    for spec in args.follower_specs or []:
        url, separator, leader_token = spec.rpartition("=")
        if not separator or not url or not leader_token.isdigit():
            print(
                f"repro cluster-serve: bad --follower {spec!r} "
                "(expected URL=LEADER_INDEX)",
                file=sys.stderr,
            )
            return 2
        followers.append(
            (
                ServiceClient(url, timeout=args.backend_timeout),
                int(leader_token),
            )
        )

    hedge = (
        None
        if args.no_hedge
        else HedgePolicy(quantile=args.hedge_quantile)
    )
    coordinator = ClusterCoordinator(
        backends,
        num_shards=args.shards,
        replication=args.replication,
        hedge=hedge,
        write_quorum=args.write_quorum,
        probe_interval=args.probe_interval,
        journal_dir=args.journal_dir,
        max_repair_ops=args.max_repair_ops,
        followers=followers or None,
        max_lag_records=args.max_lag_records,
        min_subcall_budget=args.budget_floor,
    )
    coordinator.seed_order(seed_ids)
    server = serve_cluster(
        coordinator, host=args.host, port=args.port, verbose=args.verbose
    )
    host, port = server.server_address[:2]
    describe = coordinator.router.describe()
    print(
        f"repro cluster-serve: {mode}, {describe['shards']} shard(s) x "
        f"{describe['replication']} replica(s) on http://{host}:{port}",
        flush=True,
    )

    stop = threading.Event()

    def _request_stop(signum: int, frame: object) -> None:
        stop.set()

    def _probe_loop() -> None:
        # The probe thread must outlive any single bad sweep: if it
        # died, down backends would never be re-probed and read-repair
        # queues would never drain for the life of the process.
        while not stop.wait(args.probe_interval):
            try:
                coordinator.probe()
            except Exception as error:  # error-ok: probe thread must outlive any single bad sweep
                record_swallowed(
                    error,
                    role="operator.probe",
                    site="cluster_serve._probe_loop",
                    cancellation_ok=True,
                )
                print(
                    f"repro cluster-serve: probe sweep failed: {error!r}",
                    file=sys.stderr,
                    flush=True,
                )

    signal.signal(signal.SIGINT, _request_stop)
    signal.signal(signal.SIGTERM, _request_stop)
    accept_loop = threading.Thread(
        target=server.serve_forever, name="repro-cluster-accept", daemon=True
    )
    accept_loop.start()
    prober = threading.Thread(
        target=_probe_loop, name="repro-cluster-probe", daemon=True
    )
    prober.start()
    try:
        stop.wait()
    finally:
        server.shutdown()
        deadline = time.monotonic() + args.drain_timeout
        drained = server.drain(args.drain_timeout)
        coordinator.close()
        server.server_close()
        accept_loop.join(timeout=max(0.0, deadline - time.monotonic()))
        prober.join(timeout=args.probe_interval + 1.0)
        for engine in engines:
            engine.close()
        for member in [*backends, *(follower for follower, _ in followers)]:
            if isinstance(member, ServiceClient):
                member.close()
        suffix = "" if drained else " (drain timed out)"
        print(f"repro cluster-serve: shut down cleanly{suffix}", flush=True)
    return 0


def _command_cluster_route(args: argparse.Namespace) -> int:
    from repro.cluster import ShardRouter

    router = ShardRouter(
        num_backends=args.backends,
        num_shards=args.shards,
        replication=args.replication,
    )
    describe = router.describe()
    print(
        f"{describe['backends']} backend(s), {describe['shards']} shard(s), "
        f"replication {describe['replication']}"
    )
    for token in args.ids:
        placement = router.placement(_parse_route_id(token))
        replicas = ", ".join(str(index) for index in placement.replicas)
        print(
            f"  {placement.sequence_id!r}: shard {placement.shard} "
            f"-> backends [{replicas}]"
        )
    return 0


def _command_wal_inspect(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service.wal import inspect_wal

    path = Path(args.path)
    if not path.exists():
        print(f"repro wal-inspect: {path}: no such file", file=sys.stderr)
        return 2
    inspection = inspect_wal(path)
    if not inspection.magic_ok:
        print(f"{path}: not a repro WAL (bad magic header)")
        return 1
    records = inspection.records
    ops = {"insert": 0, "append": 0, "remove": 0}
    for record in records:
        ops[record.op] += 1
    print(
        f"{path}: {inspection.size} bytes, {len(records)} valid record(s) "
        f"(insert {ops['insert']}, append {ops['append']}, "
        f"remove {ops['remove']})"
    )
    print(
        f"  seqs: horizon {inspection.horizon}, last_seq "
        f"{inspection.last_seq} (shippable range "
        f"({inspection.horizon}, {inspection.last_seq}])"
    )
    if args.records:
        for entry in inspection.entries:
            record = entry.record
            if record is None:
                if entry.checkpoint_seq is not None:
                    print(
                        f"  @{entry.offset:<8} crc=ok checkpoint "
                        f"seq={entry.checkpoint_seq}"
                    )
                continue
            extent = (
                "" if record.points is None else f" points={len(record.points)}"
            )
            length = "" if record.length is None else f" length={record.length}"
            replica = "" if record.replica is None else f" replica={record.replica}"
            print(
                f"  @{entry.offset:<8} crc=ok {record.op:<6} "
                f"seq={record.seq} id={record.sequence_id!r}{extent}{length}{replica}"
            )
    if inspection.torn:
        tail = inspection.entries[-1] if inspection.entries else None
        reason = tail.error if tail is not None and tail.error else "torn tail"
        print(
            f"  CORRUPT @{inspection.valid_bytes}: {reason} "
            f"({inspection.size - inspection.valid_bytes} byte(s) after the "
            "last valid record; recovery would truncate here)"
        )
        return 1
    print("  tail: clean (every byte accounted for)")
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    import datetime

    from repro.bench import (
        DEFAULT_SLO_RULES,
        BenchProfile,
        BenchRunConfig,
        iter_scenarios,
        parse_slo,
        run_bench,
    )
    from repro.bench.trajectory import detect_git_sha, detect_machine

    if args.list:
        for scenario in iter_scenarios():
            print(f"{scenario.suite}/{scenario.name}: {scenario.summary}")
        return 0

    rules = list(DEFAULT_SLO_RULES)
    for expression in args.slos or ():
        try:
            rules.append(parse_slo(expression))
        except ValueError as error:
            print(f"repro bench: {error}", file=sys.stderr)
            return 2

    profile = BenchProfile.quick() if args.quick else BenchProfile.full()
    # Provenance is sampled once here, at the entry point — the bench
    # library itself never reads a clock or the repository.
    config = BenchRunConfig(
        profile=profile,
        out_dir=args.out,
        suites=tuple(dict.fromkeys(args.suites)) if args.suites else (),
        seed=args.seed,
        machine=detect_machine(),
        git_sha=detect_git_sha(),
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        slo_rules=tuple(rules),
    )
    outcome = run_bench(config, progress=lambda message: print(message, flush=True))
    for result in outcome.results:
        rendered = "  ".join(
            f"{name}={value:.4g}" for name, value in result.metrics.items()
        )
        print(f"{result.suite}/{result.scenario}: {rendered}")
    for violation in outcome.violations:
        print(f"SloViolation: {violation}", file=sys.stderr)
    if outcome.violations and args.assert_slo:
        return 1
    return 0


def _command_bench_diff(args: argparse.Namespace) -> int:
    from repro.bench import diff_trajectories, load_trajectory

    try:
        baseline = load_trajectory(args.baseline)
        current = load_trajectory(args.current)
        regressions = diff_trajectories(
            baseline, current, tolerance=args.tolerance
        )
    except (OSError, ValueError) as error:
        print(f"repro bench-diff: {error}", file=sys.stderr)
        return 2
    if not regressions:
        print(
            f"no regressions beyond {args.tolerance:.0%} "
            f"({baseline['suite']} suite, "
            f"{baseline['git_sha'][:12]} -> {current['git_sha'][:12]})"
        )
        return 0
    for regression in regressions:
        print(f"regression: {regression.describe()}", file=sys.stderr)
    return 1


_COMMANDS = {
    "sweep": _command_sweep,
    "demo": _command_demo,
    "generate": _command_generate,
    "serve": _command_serve,
    "cluster-serve": _command_cluster_serve,
    "cluster-route": _command_cluster_route,
    "wal-inspect": _command_wal_inspect,
    "bench": _command_bench,
    "bench-diff": _command_bench_diff,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
