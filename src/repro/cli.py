"""Command-line interface.

Nine subcommands, mirroring the package's main entry points (also available
as ``python -m repro``)::

    repro-count count    --query "Ans(x) :- E(x, y), E(x, z), y != z" --database db.json
    repro-count classify --query "Ans(x, y) :- E(x, y), x != y"
    repro-count sample   --query "Ans(x, y) :- E(x, z), E(z, y)" --database db.json -n 5
    repro-count plan     --query "Ans(x) :- E(x, y)" --database db.json
    repro-count batch    --queries workload.txt --database db.json --seed 7
    repro-count batch    --workload 50 --seed 7   # synthetic mixed workload
    repro-count batch    --workload 50 --adaptive --latency-budget 0.5 --profiles profiles.json
    repro-count batch    --workload 20 --shards 4 --partitioner relation --compare
    repro-count stream   --events 200 --queries 8 --seed 7 --refresh debounced
    repro-count profiles show profiles.json
    repro-count serve    --database db.json --port 8000
    repro-count client   count --query "Ans(x) :- E(x, y)" --port 8000

Databases are JSON files in the format of :mod:`repro.relational.io` (or edge
lists with ``--edge-list``).  The counting subcommand prints both the chosen
scheme's estimate and, with ``--exact``, the exact count for comparison;
``count``, ``plan`` and ``batch`` go through the :mod:`repro.service` layer
(explainable scheme selection, plan/result caching, parallel batch
execution, the CSP engine picked from the database size); ``batch
--shards N`` counts against the database partitioned into ``N`` shards
(:mod:`repro.shard`), and ``--compare`` checks it against an unsharded
run; ``plan`` and ``batch`` accept the adaptive-planner knobs
(``--adaptive``, ``--latency-budget``, ``--profiles`` to load/save the
observed-cost snapshot); ``stream`` replays a randomized
insert/delete/query schedule against live ``subscribe()`` handles
(:mod:`repro.stream`) and reports how many reads were served for free,
delta-patched, or re-estimated; ``profiles`` inspects and merges cost-profile snapshots (``show`` /
``export`` / ``import``); ``serve`` runs the :mod:`repro.serve` HTTP/JSON
front-end over a resident database and ``client`` talks to one.

Every ``--json`` report is a v1 wire envelope (:mod:`repro.serve.schema`):
the payload carries ``"api": "repro.v1"`` and a ``"kind"`` naming its shape,
and batch results serialize through the same codecs the server and client
use.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.core import REGISTRY, METHOD_ALIASES, classify_query, resolve_method
from repro.queries import parse_query
from repro.relational.io import load_database_json, load_edge_list
from repro.resilience.faults import FaultPlan, FaultPlanError
from repro.sampling import sample_answers
from repro.service.executor import EXECUTOR_MODES
from repro.stream.live import REFRESH_POLICIES


class CLIError(Exception):
    """A user-facing CLI error: reported as one line on stderr, exit code 2.

    Raised for bad invocations (conflicting flags, empty query files) and
    joined in :func:`main` by the package's own user-input errors — query
    parse failures, unknown schemes/partitioners, fault-plan config errors —
    so none of them surface as tracebacks."""


def _add_fault_plan_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fault-plan",
        metavar="JSON",
        default=None,
        help="deterministic fault plan to inject (repro.resilience): inline "
        'JSON like \'{"seed": 7, "rules": [{"site": "executor.task"}]}\' '
        "or a path to a JSON file; faulted tasks are retried under the "
        "default retry policy (chaos-run reproduction)",
    )


def _parse_fault_plan(args: argparse.Namespace) -> Optional[FaultPlan]:
    spec = getattr(args, "fault_plan", None)
    if not spec:
        return None
    text = spec
    if not spec.lstrip().startswith("{"):
        try:
            with open(spec) as handle:
                text = handle.read()
        except OSError as error:
            raise CLIError(f"cannot read fault plan file {spec!r}: {error}")
    return FaultPlan.from_json(text)


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a span trace of the run and write it to PATH as JSON "
        "lines (one root span tree per line); tracing never affects "
        "estimates or seeds",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write a Prometheus-style text snapshot of the service metrics "
        "(cache hit rates, executor modes, per-scheme latency histograms) "
        "to PATH after the run",
    )


def _make_tracer(args: argparse.Namespace):
    """A Tracer when ``--trace`` was given, else None (tracing off)."""
    if getattr(args, "trace", None):
        from repro.obs import Tracer

        return Tracer()
    return None


def _write_telemetry(args: argparse.Namespace, tracer, service) -> None:
    """Write the ``--trace`` JSON-lines dump and/or the ``--metrics``
    Prometheus snapshot, as requested."""
    if tracer is not None and getattr(args, "trace", None):
        with open(args.trace, "w") as handle:
            text = tracer.to_jsonl()
            handle.write(text + "\n" if text else "")
    if getattr(args, "metrics", None):
        with open(args.metrics, "w") as handle:
            handle.write(service.metrics.render_prometheus())


def _add_adaptive_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="let the planner overlay observed per-scheme costs on the "
        "Figure-1 dichotomy: the cheapest sound scheme whose predicted p95 "
        "latency fits the budget wins (cold profiles fall back to the "
        "static rules; estimates stay bit-identical — only which scheme "
        "runs changes)",
    )
    parser.add_argument(
        "--latency-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request latency budget the adaptive planner admits "
        "predicted costs against (requires --adaptive to take effect; "
        "unlike a deadline it never kills a request, it only steers "
        "scheme choice)",
    )
    parser.add_argument(
        "--profiles",
        metavar="PATH",
        default=None,
        help="cost-profile snapshot to load on start and save back on exit "
        "(the adaptive planner's memory across runs)",
    )


def _add_database_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--database", help="path to a JSON database file")
    parser.add_argument(
        "--edge-list",
        help="path to a whitespace-separated edge list, loaded as a symmetric "
        "binary relation E",
    )
    parser.add_argument(
        "--relation",
        default="E",
        help="relation name used with --edge-list (default: E)",
    )


def _load_database(args: argparse.Namespace):
    if args.database and args.edge_list:
        raise CLIError("use either --database or --edge-list, not both")
    if args.database:
        return load_database_json(args.database)
    if args.edge_list:
        return load_edge_list(args.edge_list, relation=args.relation)
    raise CLIError("a database is required (--database or --edge-list)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-count",
        description="Approximately count answers to conjunctive queries with "
        "disequalities and negations (PODS 2022 reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # Read when the parser is built, so schemes registered since import are
    # offered too.
    schemes = list(REGISTRY.names(include_unions=False))

    count = subparsers.add_parser("count", help="approximately count query answers")
    count.add_argument("--query", required=True, help="query in Datalog-ish syntax")
    _add_database_arguments(count)
    count.add_argument("--epsilon", type=float, default=0.2)
    count.add_argument("--delta", type=float, default=0.05)
    count.add_argument("--seed", type=int, default=None)
    count.add_argument(
        "--method",
        choices=[*METHOD_ALIASES, *schemes],
        default="auto",
        help="counting method: auto (FPRAS for CQs, FPTRAS otherwise), the "
        "legacy fpras/fptras aliases, or any registered scheme name; all "
        "dispatch through the unified scheme registry",
    )
    count.add_argument(
        "--exact",
        action="store_true",
        help="also compute the exact count for comparison (slow on large inputs)",
    )

    classify = subparsers.add_parser(
        "classify", help="report the Figure-1 classification of a query"
    )
    classify.add_argument("--query", required=True)
    classify.add_argument("--json", action="store_true", help="emit JSON")

    sample = subparsers.add_parser("sample", help="sample answers approximately uniformly")
    sample.add_argument("--query", required=True)
    _add_database_arguments(sample)
    sample.add_argument("-n", "--num-samples", type=int, default=1)
    sample.add_argument("--epsilon", type=float, default=0.25)
    sample.add_argument("--delta", type=float, default=0.1)
    sample.add_argument("--seed", type=int, default=None)
    sample.add_argument(
        "--exact",
        action="store_true",
        help="draw exactly uniform answers from the enumerated answer set",
    )

    plan = subparsers.add_parser(
        "plan",
        help="explain which counting scheme the service planner would choose",
    )
    plan.add_argument("--query", required=True)
    _add_database_arguments(plan)
    plan.add_argument(
        "--method",
        choices=schemes,
        default=None,
        help="force a scheme instead of letting the planner choose",
    )
    plan.add_argument("--json", action="store_true", help="emit JSON")
    _add_adaptive_arguments(plan)

    batch = subparsers.add_parser(
        "batch",
        help="count a batch of queries through the service (planned, cached, "
        "parallel), optionally against a horizontally sharded database",
    )
    source = batch.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--queries",
        help="path to a file with one query per line ('#' starts a comment)",
    )
    source.add_argument(
        "--workload",
        type=int,
        metavar="N",
        help="generate a synthetic mixed CQ/DCQ/ECQ workload of N queries "
        "(with its own database unless one is given)",
    )
    _add_database_arguments(batch)
    batch.add_argument("--epsilon", type=float, default=0.2)
    batch.add_argument("--delta", type=float, default=0.05)
    batch.add_argument("--seed", type=int, default=None, help="batch master seed")
    batch.add_argument(
        "--executor",
        choices=EXECUTOR_MODES,
        default="process",
        help="execution back-end (default: process pool)",
    )
    batch.add_argument("--workers", type=int, default=None, help="worker count")
    batch.add_argument(
        "--method",
        choices=schemes,
        default=None,
        help="force one scheme for every query",
    )
    batch.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="submit the batch this many times (demonstrates result-cache hits)",
    )
    batch.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="partition the database into N shards and count against them "
        "(default: unsharded)",
    )
    batch.add_argument(
        "--partitioner",
        choices=["relation", "tuple"],
        default=None,
        help="with --shards, the fact placement: whole relations per shard, "
        "or hash-by-tuple (default: relation)",
    )
    batch.add_argument(
        "--assign",
        default=None,
        metavar="R=0,S=1",
        help="with --shards, an explicit relation-to-shard assignment for "
        "--partitioner relation (comma-separated name=shard pairs)",
    )
    batch.add_argument(
        "--compare",
        action="store_true",
        help="with --shards, also count unsharded and report agreement (slow "
        "on large inputs)",
    )
    _add_fault_plan_argument(batch)
    _add_obs_arguments(batch)
    _add_adaptive_arguments(batch)
    batch.add_argument("--json", action="store_true", help="emit a JSON report")

    stream = subparsers.add_parser(
        "stream",
        help="replay a live insert/delete/query stream against subscriptions",
    )
    _add_database_arguments(stream)
    stream.add_argument(
        "--events", type=int, default=200, help="schedule length (default: 200)"
    )
    stream.add_argument(
        "--queries",
        type=int,
        default=8,
        metavar="N",
        help="number of subscribed queries (synthetic mixed workload)",
    )
    stream.add_argument(
        "--refresh",
        choices=REFRESH_POLICIES,
        default="eager",
        help="subscription refresh policy (default: eager)",
    )
    stream.add_argument(
        "--debounce-ticks",
        type=int,
        default=4,
        help="mutation ticks a debounced subscription coalesces (default: 4)",
    )
    stream.add_argument(
        "--budget-seconds",
        type=float,
        default=1.0,
        help="per-subscription refresh budget for --refresh budget",
    )
    stream.add_argument("--epsilon", type=float, default=0.2)
    stream.add_argument("--delta", type=float, default=0.05)
    stream.add_argument("--seed", type=int, default=None, help="schedule + estimate seed")
    stream.add_argument(
        "--verify",
        action="store_true",
        help="check every fresh exact read against a from-scratch recount (slow)",
    )
    _add_fault_plan_argument(stream)
    _add_obs_arguments(stream)
    stream.add_argument("--json", action="store_true", help="emit a JSON report")

    profiles = subparsers.add_parser(
        "profiles",
        help="inspect and manage cost-profile snapshots (the adaptive "
        "planner's memory)",
    )
    profiles_sub = profiles.add_subparsers(dest="profiles_command", required=True)
    show = profiles_sub.add_parser(
        "show", help="summarize a snapshot: entries, runs, per-key latency sketches"
    )
    show.add_argument("path", help="snapshot JSON file (v1 or v2)")
    show.add_argument("--json", action="store_true", help="emit JSON")
    export = profiles_sub.add_parser(
        "export",
        help="re-write a snapshot as current-version JSON (upgrades v1 "
        "snapshots in place of their implicit engine label)",
    )
    export.add_argument("path", help="snapshot JSON file to read")
    export.add_argument("--out", required=True, help="destination file")
    imported = profiles_sub.add_parser(
        "import",
        help="merge one or more snapshots into a destination store "
        "(created when missing; mismatched histogram boundaries are "
        "rebucketed, dropped precision is reported)",
    )
    imported.add_argument("sources", nargs="+", help="snapshot files to fold in")
    imported.add_argument(
        "--into", required=True, help="destination snapshot (loaded when present)"
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the HTTP/JSON front-end over a resident database "
        "(coalescing, admission control, SSE live counts)",
    )
    _add_database_arguments(serve)
    serve.add_argument(
        "--workload",
        type=int,
        nargs="?",
        const=0,
        default=None,
        metavar="N",
        help="serve a synthetic workload database instead of a file "
        "(N is accepted for symmetry and ignored; the database is fixed "
        "by --seed)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8000, help="0 binds an ephemeral port"
    )
    serve.add_argument("--epsilon", type=float, default=0.2)
    serve.add_argument("--delta", type=float, default=0.05)
    serve.add_argument("--seed", type=int, default=None, help="synthetic database seed")
    serve.add_argument(
        "--executor",
        choices=EXECUTOR_MODES,
        default="thread",
        help="execution back-end of POST /v1/batch (default: thread)",
    )
    serve.add_argument("--workers", type=int, default=None, help="batch worker count")
    serve.add_argument(
        "--tenants",
        metavar="JSON",
        default=None,
        help="per-tenant API keys and quotas: inline JSON like "
        "'[{\"name\": \"acme\", \"key\": \"s3cret\", \"rate\": 50, "
        "\"burst\": 100}]' or a path to a JSON file; omitted = open access",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="bounded request queue: more in-flight requests than this are "
        "answered 429 (default: 64)",
    )
    serve.add_argument(
        "--worker-threads",
        type=int,
        default=4,
        help="service calls (counts, plans, refreshes) that run at once "
        "(default: 4)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default hard deadline stamped on requests that carry none",
    )
    serve.add_argument(
        "--no-mutations",
        action="store_true",
        help="refuse POST /v1/facts (serve an immutable snapshot)",
    )
    _add_adaptive_arguments(serve)

    client = subparsers.add_parser(
        "client",
        help="talk to a running serve instance over the v1 wire API",
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=8000)
    client.add_argument("--api-key", default=None, help="X-API-Key header value")
    client.add_argument(
        "--timeout", type=float, default=60.0, help="per-request socket timeout"
    )
    client_sub = client.add_subparsers(dest="client_command", required=True)

    c_count = client_sub.add_parser("count", help="POST /v1/count one query")
    c_count.add_argument("--query", required=True)
    c_count.add_argument("--epsilon", type=float, default=None)
    c_count.add_argument("--delta", type=float, default=None)
    c_count.add_argument("--seed", type=int, default=None)
    c_count.add_argument(
        "--method",
        choices=schemes,
        default=None,
    )
    c_count.add_argument("--deadline", type=float, default=None, metavar="SECONDS")
    c_count.add_argument("--json", action="store_true", help="emit the wire envelope")

    c_batch = client_sub.add_parser("batch", help="POST /v1/batch a query file")
    c_batch.add_argument(
        "--queries",
        required=True,
        help="path to a file with one query per line ('#' starts a comment)",
    )
    c_batch.add_argument("--seed", type=int, default=None, help="batch master seed")
    c_batch.add_argument(
        "--executor", choices=EXECUTOR_MODES, default=None
    )
    c_batch.add_argument("--workers", type=int, default=None)
    c_batch.add_argument("--deadline", type=float, default=None, metavar="SECONDS")
    c_batch.add_argument("--json", action="store_true", help="emit the wire envelope")

    c_plan = client_sub.add_parser("plan", help="GET /v1/plan for one query")
    c_plan.add_argument("--query", required=True)
    c_plan.add_argument(
        "--method",
        choices=schemes,
        default=None,
    )
    c_plan.add_argument("--json", action="store_true", help="emit the wire envelope")

    c_stats = client_sub.add_parser("stats", help="GET /v1/stats")
    c_stats.add_argument("--json", action="store_true", help=argparse.SUPPRESS)

    c_metrics = client_sub.add_parser(
        "metrics", help="GET /v1/metrics (Prometheus text)"
    )
    c_metrics.add_argument("--json", action="store_true", help=argparse.SUPPRESS)

    c_subscribe = client_sub.add_parser(
        "subscribe", help="GET /v1/subscribe and stream live counts (SSE)"
    )
    c_subscribe.add_argument("--query", required=True)
    c_subscribe.add_argument(
        "--refresh", choices=REFRESH_POLICIES, default="eager"
    )
    c_subscribe.add_argument("--epsilon", type=float, default=None)
    c_subscribe.add_argument("--delta", type=float, default=None)
    c_subscribe.add_argument("--seed", type=int, default=None)
    c_subscribe.add_argument(
        "--max-events",
        type=int,
        default=None,
        help="end the stream after this many count events (default: forever)",
    )
    c_subscribe.add_argument(
        "--json", action="store_true", help="one wire envelope per line"
    )

    c_facts = client_sub.add_parser(
        "facts", help="POST /v1/facts to mutate the resident database"
    )
    c_facts.add_argument(
        "--add",
        action="append",
        default=[],
        metavar="R,v1,v2",
        help="fact to add, comma-separated relation then values "
        "(repeatable; integer-looking values are sent as integers)",
    )
    c_facts.add_argument(
        "--remove",
        action="append",
        default=[],
        metavar="R,v1,v2",
        help="fact to remove (same format, repeatable)",
    )
    c_facts.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    return parser


def _command_count(args: argparse.Namespace) -> int:
    from repro.service import CountingService, CountRequest, ServiceConfig

    query = parse_query(args.query)
    database = _load_database(args)
    scheme = resolve_method(args.method, query.query_class())
    service = CountingService(
        database,
        ServiceConfig(epsilon=args.epsilon, delta=args.delta, executor="serial"),
    )
    result = service.submit(CountRequest(query=query, seed=args.seed, method=scheme))
    print(f"query class: {query.query_class().value}")
    print(f"estimate:    {result.count}")
    if args.exact and scheme != "exact":
        exact = service.submit(CountRequest(query=query, method="exact"))
        print(f"exact:       {exact.count}")
    return 0


def _command_classify(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    report = classify_query(query)
    verdict = report.class_verdict_if_widths_bounded
    if args.json:
        payload = {
            "query_class": report.query_class.value,
            "treewidth": report.widths.treewidth,
            "hypertreewidth": report.widths.hypertreewidth,
            "fractional_hypertreewidth": report.widths.fractional_hypertreewidth,
            "adaptive_width_lower": report.widths.adaptive_width.lower_bound,
            "adaptive_width_upper": report.widths.adaptive_width.upper_bound,
            "arity": report.widths.arity,
            "fptras": verdict.fptras.value,
            "fptras_reference": verdict.fptras_reference,
            "fpras": verdict.fpras.value,
            "fpras_reference": verdict.fpras_reference,
            "recommended_algorithm": report.recommended_algorithm,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"query class:   {report.query_class.value}")
    print(
        "widths:        "
        f"tw={report.widths.treewidth} hw={report.widths.hypertreewidth:.1f} "
        f"fhw={report.widths.fractional_hypertreewidth:.2f} "
        f"aw<= {report.widths.adaptive_width.upper_bound:.2f} arity={report.widths.arity}"
    )
    print(f"FPTRAS:        {verdict.fptras.value} ({verdict.fptras_reference})")
    print(f"FPRAS:         {verdict.fpras.value} ({verdict.fpras_reference})")
    print(f"recommended:   {report.recommended_algorithm}")
    print(f"               {report.recommendation_reason}")
    return 0


def _command_sample(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    database = _load_database(args)
    samples = sample_answers(
        query,
        database,
        num_samples=args.num_samples,
        epsilon=args.epsilon,
        delta=args.delta,
        rng=args.seed,
        exact=args.exact,
    )
    if not samples:
        print("(no answers)")
        return 0
    for sample in samples:
        print("\t".join(str(value) for value in sample))
    return 0


def _command_plan(args: argparse.Namespace) -> int:
    from repro.service import CountingService, PlannerConfig, ServiceConfig

    query = parse_query(args.query)
    database = _load_database(args)
    service = CountingService(
        database,
        ServiceConfig(
            planner=PlannerConfig(adaptive=args.adaptive),
            latency_budget_seconds=args.latency_budget,
            # Planning only reads the snapshot; nothing is saved back.
            profile_path=args.profiles,
        ),
    )
    plan = service.plan(query, method=args.method)
    if args.json:
        from repro.serve import schema as wire

        print(wire.to_json(plan, indent=2))
    else:
        print(plan.explain())
    return 0


def _load_batch_queries(path: str) -> List:
    queries = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            queries.append(parse_query(line))
    if not queries:
        raise CLIError(f"no queries found in {path!r}")
    return queries


def _parse_shard_assignment(spec: Optional[str]) -> Optional[dict]:
    if not spec:
        return None
    assignment = {}
    for pair in spec.split(","):
        name, _, shard = pair.partition("=")
        if not name or not shard:
            raise CLIError(f"bad --assign entry {pair!r}; expected name=shard")
        try:
            assignment[name.strip()] = int(shard)
        except ValueError:
            raise CLIError(f"bad shard index in --assign entry {pair!r}")
    return assignment


def _batch_partitioner(args: argparse.Namespace):
    """The partitioner ``batch --shards`` asks for, or None for an
    unsharded batch (where the shard-only flags are errors)."""
    if args.shards is None:
        for flag, given in (
            ("--partitioner", args.partitioner),
            ("--assign", args.assign),
            ("--compare", args.compare),
        ):
            if given:
                raise CLIError(f"{flag} requires --shards")
        return None
    from repro.shard import make_partitioner

    kind = args.partitioner or "relation"
    if args.assign and kind != "relation":
        raise CLIError("--assign requires --partitioner relation")
    return make_partitioner(
        kind, args.shards, assignment=_parse_shard_assignment(args.assign)
    )


def _command_batch(args: argparse.Namespace) -> int:
    from repro.service import (
        CountingService,
        CountRequest,
        PlannerConfig,
        ServiceConfig,
        mixed_query_workload,
        workload_database,
    )

    partitioner = _batch_partitioner(args)
    if args.workload is not None:
        queries = mixed_query_workload(args.workload, rng=args.seed)
        if args.database or args.edge_list:
            database = _load_database(args)
        else:
            database = workload_database(rng=args.seed)
    else:
        queries = _load_batch_queries(args.queries)
        database = _load_database(args)

    sharded = None
    if partitioner is not None:
        from repro.shard import ShardedStructure

        sharded = ShardedStructure.from_structure(database, partitioner)
    tracer = _make_tracer(args)
    service = CountingService(
        database if sharded is None else sharded,
        ServiceConfig(
            epsilon=args.epsilon,
            delta=args.delta,
            executor=args.executor,
            max_workers=args.workers,
            fault_plan=_parse_fault_plan(args),
            tracer=tracer,
            planner=PlannerConfig(adaptive=args.adaptive),
            latency_budget_seconds=args.latency_budget,
            profile_path=args.profiles,
        ),
    )
    requests = [CountRequest(query=query, method=args.method) for query in queries]
    reports = [
        service.count_batch(requests, seed=args.seed)
        for _ in range(max(1, args.repeat))
    ]
    # Persists the warmed cost profiles when --profiles was given.
    service.close()
    _write_telemetry(args, tracer, service)
    final = reports[-1]
    # The batch already planned every query; "hit" marks cache-served results
    # (which skip the shard planner entirely).
    strategies = [result.shard_strategy or "hit" for result in final.results]

    agreement = None
    if args.compare:
        plain = CountingService(
            database,
            ServiceConfig(
                epsilon=args.epsilon,
                delta=args.delta,
                executor=args.executor,
                max_workers=args.workers,
            ),
        )
        unsharded = plain.count_batch(requests, seed=args.seed).estimates()
        agreement = [a == b for a, b in zip(final.estimates(), unsharded)]

    if args.json:
        from repro.serve import schema as wire

        payload = {
            **wire.to_payload(final),
            "passes": [wire.to_payload(report) for report in reports],
            "cache": service.stats(),
        }
        if sharded is not None:
            payload["shards"] = {
                "num_shards": sharded.num_shards,
                "partitioner": partitioner.kind,
                "shard_fact_counts": sharded.shard_fact_counts(),
                "strategies": {
                    strategy: strategies.count(strategy)
                    for strategy in sorted(set(strategies))
                },
            }
        if agreement is not None:
            payload["compare"] = {
                "estimates_equal": agreement,
                "unsharded_estimates": unsharded,
            }
        print(json.dumps(wire.envelope("batch_report", payload), indent=2))
        return 0

    if sharded is not None:
        print(
            f"sharded database: {sharded.num_shards} shards "
            f"(partitioner={partitioner.kind}), facts per shard "
            f"{sharded.shard_fact_counts()}"
        )
    for result, query, strategy in zip(final.results, queries, strategies):
        shown = f"strategy={strategy:7s} " if sharded is not None else ""
        print(
            f"[{result.index:3d}] {result.query_class:3s} "
            f"scheme={result.scheme:11s} {shown}estimate={result.estimate:12.2f} "
            f"cache={result.cache:4s} {1000 * result.execute_seconds:8.1f}ms  {query}"
        )
    for number, report in enumerate(reports, start=1):
        print(
            f"pass {number}: {len(report.results)} queries in "
            f"{report.wall_seconds:.2f}s ({report.throughput_qps:.1f} q/s) "
            f"executor={report.executed_executor} "
            f"cache hits={report.cache_hits} misses={report.cache_misses}"
        )
        if report.retries or report.degradations:
            print(
                f"        resilience: {report.retries} retries, "
                f"{len(report.degradations)} degradations"
            )
            for note in report.degradations:
                print(f"        - {note}")
    stats = service.stats()
    plan_stats, result_stats = stats["caches"]["plan"], stats["caches"]["result"]
    print(
        f"caches: plan {plan_stats['hits']}/{plan_stats['hits'] + plan_stats['misses']} hits, "
        f"result {result_stats['hits']}/{result_stats['hits'] + result_stats['misses']} hits"
    )
    if agreement is not None:
        print(
            f"compare: {sum(agreement)}/{len(agreement)} sharded estimates equal "
            "the unsharded service run (exact schemes must all agree; shard-"
            "spanning approximations may differ within their error bounds)"
        )
    return 0


def _command_stream(args: argparse.Namespace) -> int:
    from repro.service import (
        CountingService,
        ServiceConfig,
        mixed_query_workload,
        workload_database,
    )
    from repro.stream import run_stream, stream_schedule

    if args.database or args.edge_list:
        database = _load_database(args)
        # Adapt the synthetic workload to the database's own relations: the
        # first binary relation hosts the positive atoms, the second the
        # negated ones (declared empty when absent, so ECQs stay valid).
        binary = [s.name for s in database.signature if s.arity == 2]
        if not binary:
            raise CLIError(
                "stream needs a database with at least one binary relation"
            )
        relation = binary[0]
        if len(binary) > 1:
            negated = binary[1]
        else:
            from repro.relational import RelationSymbol

            # Pick a name no declared symbol (of any arity) already uses.
            negated = "F"
            while negated in database.signature:
                negated += "_"
            database.add_relation(RelationSymbol(negated, 2))
    else:
        database = workload_database(rng=args.seed)
        relation, negated = "E", "F"
    queries = mixed_query_workload(
        args.queries, rng=args.seed, relation=relation, negated_relation=negated
    )
    schedule = stream_schedule(
        args.events, database, len(queries), rng=args.seed,
        relations=(relation, negated),
    )
    tracer = _make_tracer(args)
    service = CountingService(
        database,
        ServiceConfig(
            epsilon=args.epsilon,
            delta=args.delta,
            executor="serial",
            fault_plan=_parse_fault_plan(args),
            tracer=tracer,
        ),
    )
    report, subscriptions = run_stream(
        service,
        queries,
        database,
        schedule,
        refresh=args.refresh,
        debounce_ticks=args.debounce_ticks,
        budget_seconds=args.budget_seconds,
        seed=args.seed,
        verify=args.verify,
    )
    _write_telemetry(args, tracer, service)
    if args.json:
        from repro.serve import schema as wire

        payload = report.to_dict()
        payload["refresh_policy"] = args.refresh
        payload["schemes"] = [sub.scheme for sub in subscriptions]
        payload["cache"] = service.stats()
        print(json.dumps(wire.envelope("stream_report", payload), indent=2))
    else:
        print(
            f"replayed {report.num_events} events "
            f"({report.inserts} inserts, {report.deletes} deletes, "
            f"{report.reads} reads) in {report.wall_seconds:.2f}s "
            f"({report.events_per_second:.0f} ev/s, policy={args.refresh})"
        )
        print(
            f"reads: {report.fresh_serves} served fresh without refresh, "
            f"{report.refreshes} refreshed "
            f"({', '.join(f'{mode}={n}' for mode, n in sorted(report.modes.items())) or 'none'}), "
            f"{report.stale_serves} served stale"
        )
        for index, (subscription, estimate) in enumerate(
            zip(subscriptions, report.final_estimates)
        ):
            print(
                f"[{index:3d}] {subscription.query_class:3s} "
                f"scheme={subscription.scheme:11s} estimate={estimate:12.2f}  "
                f"{subscription.query}"
            )
        if args.verify:
            print(f"verified {report.verified_reads} exact reads against recounts")
    for subscription in subscriptions:
        subscription.close()
    return 0


def _load_profile_store(path: str):
    from repro.obs.profile import ProfileStore

    try:
        return ProfileStore.load(path)
    except (OSError, KeyError, TypeError, json.JSONDecodeError) as error:
        raise CLIError(f"cannot load profile snapshot {path!r}: {error}")


def _command_profiles(args: argparse.Namespace) -> int:
    from repro.obs.profile import ProfileStore

    if args.profiles_command == "show":
        store = _load_profile_store(args.path)
        stats = store.stats()
        rows = json.loads(store.to_json())["profiles"]
        if args.json:
            payload = dict(stats)
            payload["profiles"] = [
                {
                    "canonical_key": row["canonical_key"],
                    "fingerprint_class": row["fingerprint_class"],
                    "scheme": row["scheme"],
                    "engine": row["engine"],
                    "runs": row["profile"]["runs"],
                }
                for row in rows
            ]
            print(json.dumps(payload, indent=2))
            return 0
        print(
            f"{stats['entries']} entries, {stats['runs']} recorded runs, "
            f"{stats['canonical_forms']} canonical forms"
        )
        print(f"schemes: {', '.join(stats['schemes']) or '(none)'}")
        print(f"engines: {', '.join(stats['engines']) or '(none)'}")
        for row in rows:
            profile = store.get(
                row["canonical_key"],
                # Any size inside the bucket maps back to it; the smallest
                # size in bucket k is 2^(k-1) (0 for the empty bucket).
                1 << (row["fingerprint_class"] - 1) if row["fingerprint_class"] else 0,
                row["scheme"],
                row["engine"],
            )
            summary = profile.summary()
            print(
                f"  [2^{row['fingerprint_class']:2d}] {row['scheme']:12s} "
                f"{row['engine']:8s} runs={summary['runs']:5d} "
                f"p50={summary['p50_seconds']:.6f}s "
                f"p95={summary['p95_seconds']:.6f}s  {row['canonical_key']}"
            )
        return 0

    if args.profiles_command == "export":
        store = _load_profile_store(args.path)
        store.save(args.out)
        print(f"exported {len(store)} entries to {args.out} (v2 JSON)")
        return 0

    # import: fold sources into the destination (created when missing).
    import os

    if os.path.exists(args.into):
        destination = _load_profile_store(args.into)
    else:
        destination = ProfileStore()
    before = destination.stats()
    for source in args.sources:
        destination.merge(_load_profile_store(source))
    after = destination.stats()
    destination.save(args.into)
    dropped = after["merge_drops"] - before.get("merge_drops", 0)
    print(
        f"merged {len(args.sources)} snapshot(s) into {args.into}: "
        f"{after['entries']} entries, {after['runs']} runs"
        + (
            f" ({dropped} histogram counts rebucketed imprecisely)"
            if dropped
            else ""
        )
    )
    return 0


def _parse_tenants_argument(spec: Optional[str]):
    from repro.serve import parse_tenants

    if not spec:
        return ()
    text = spec
    if not spec.lstrip().startswith("["):
        try:
            with open(spec) as handle:
                text = handle.read()
        except OSError as error:
            raise CLIError(f"cannot read tenants file {spec!r}: {error}")
    try:
        return parse_tenants(text)
    except (ValueError, json.JSONDecodeError) as error:
        raise CLIError(f"bad --tenants spec: {error}")


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, run_server
    from repro.service import (
        CountingService,
        PlannerConfig,
        ServiceConfig,
        workload_database,
    )

    if args.database or args.edge_list:
        database = _load_database(args)
    elif args.workload is not None:
        database = workload_database(rng=args.seed)
    else:
        raise CLIError(
            "a database is required (--database, --edge-list, or --workload "
            "for a synthetic one)"
        )
    service = CountingService(
        database,
        ServiceConfig(
            epsilon=args.epsilon,
            delta=args.delta,
            executor=args.executor,
            max_workers=args.workers,
            planner=PlannerConfig(adaptive=args.adaptive),
            latency_budget_seconds=args.latency_budget,
            profile_path=args.profiles,
        ),
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        tenants=_parse_tenants_argument(args.tenants),
        max_pending=args.max_pending,
        worker_threads=args.worker_threads,
        default_deadline_seconds=args.deadline,
        allow_mutations=not args.no_mutations,
    )

    def on_started(server) -> None:
        access = (
            f"{len(config.tenants)} tenant(s)" if config.tenants else "open access"
        )
        print(
            f"serving {database.size()}-size database on "
            f"http://{server.config.host}:{server.port}/v1/ "
            f"({access}; Ctrl-C to stop)",
            flush=True,
        )

    run_server(service, config, on_started=on_started)
    return 0


def _fact_value(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def _parse_fact_entries(entries: List[str]) -> List:
    facts = []
    for entry in entries:
        parts = [part.strip() for part in entry.split(",")]
        if len(parts) < 2 or not parts[0]:
            raise CLIError(
                f"bad fact {entry!r}; expected 'Relation,value1,value2,...'"
            )
        facts.append((parts[0], tuple(_fact_value(part) for part in parts[1:])))
    return facts


def _command_client(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient, ServeError
    from repro.serve import schema as wire

    try:
        with ServeClient(
            args.host, args.port, api_key=args.api_key, timeout=args.timeout
        ) as client:
            if args.client_command == "count":
                result = client.count(
                    args.query,
                    epsilon=args.epsilon,
                    delta=args.delta,
                    seed=args.seed,
                    method=args.method,
                    deadline_seconds=args.deadline,
                )
                if args.json:
                    print(wire.to_json(result, indent=2))
                else:
                    flag = " (coalesced)" if result.coalesced else ""
                    print(
                        f"{result.query_class:3s} scheme={result.scheme} "
                        f"estimate={result.estimate} cache={result.cache}{flag}"
                    )
                return 0
            if args.client_command == "batch":
                queries = [str(query) for query in _load_batch_queries(args.queries)]
                report = client.count_batch(
                    queries,
                    seed=args.seed,
                    executor=args.executor,
                    max_workers=args.workers,
                    deadline_seconds=args.deadline,
                )
                if args.json:
                    print(wire.to_json(report, indent=2))
                else:
                    for result, query in zip(report.results, queries):
                        print(
                            f"[{result.index:3d}] {result.query_class:3s} "
                            f"scheme={result.scheme:11s} "
                            f"estimate={result.estimate:12.2f} "
                            f"cache={result.cache:4s}  {query}"
                        )
                    print(
                        f"batch: {len(report.results)} queries in "
                        f"{report.wall_seconds:.2f}s executor={report.executed_executor} "
                        f"cache hits={report.cache_hits} misses={report.cache_misses}"
                    )
                return 0
            if args.client_command == "plan":
                plan = client.plan(args.query, method=args.method)
                if args.json:
                    print(wire.to_json(plan, indent=2))
                else:
                    print(plan.explain())
                return 0
            if args.client_command == "stats":
                print(json.dumps(client.stats(), indent=2))
                return 0
            if args.client_command == "metrics":
                print(client.metrics_text(), end="")
                return 0
            if args.client_command == "subscribe":
                for live in client.subscribe(
                    args.query,
                    refresh=args.refresh,
                    epsilon=args.epsilon,
                    delta=args.delta,
                    seed=args.seed,
                    max_events=args.max_events,
                ):
                    if args.json:
                        print(wire.to_json(live), flush=True)
                    else:
                        print(
                            f"count={live.count} estimate={live.estimate} "
                            f"mode={live.mode} fresh={live.fresh}",
                            flush=True,
                        )
                return 0
            # facts
            outcome = client.add_facts(
                adds=_parse_fact_entries(args.add),
                removes=_parse_fact_entries(args.remove),
            )
            print(json.dumps(outcome, indent=2))
            return 0
    except KeyboardInterrupt:
        return 0  # Ctrl-C out of a subscribe stream is a clean exit
    except ServeError as error:
        raise CLIError(str(error))
    except ConnectionRefusedError:
        raise CLIError(
            f"cannot reach http://{args.host}:{args.port} — is the server "
            "running? (repro-count serve ...)"
        )


_COMMANDS = {
    "count": _command_count,
    "classify": _command_classify,
    "sample": _command_sample,
    "plan": _command_plan,
    "batch": _command_batch,
    "stream": _command_stream,
    "profiles": _command_profiles,
    "serve": _command_serve,
    "client": _command_client,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = _COMMANDS.get(args.command)
    if command is None:
        parser.error(f"unknown command {args.command!r}")
        return 2
    try:
        return command(args)
    except (CLIError, ValueError, OSError) as error:
        # One line, exit 2, for every user-input failure: bad invocations
        # (CLIError), query parse errors and unknown schemes/partitioners and
        # fault-plan config errors (all ValueError subclasses, incl.
        # QueryParseError/FaultPlanError/json.JSONDecodeError), and unreadable
        # files (OSError).  Genuine bugs still traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
