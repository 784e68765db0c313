#!/usr/bin/env python
"""Standalone performance recorder: writes ``BENCH_engine.json``,
``BENCH_service.json``, ``BENCH_prepared.json``, ``BENCH_stream.json``,
``BENCH_shard.json``, ``BENCH_resilience.json``, ``BENCH_columnar.json``,
``BENCH_planner.json`` and ``BENCH_serve.json``, and (with
``--check-against``) gates regressions against committed baselines.

Nine suites, selected with ``--suite`` (default: all):

* ``engine`` — runs the indexed CSP/join engine and the retained naive scan
  path on the medium configurations of ``bench_scaling_database`` (the fixed
  two-hop query over growing Erdős–Rényi databases) and
  ``bench_star_queries`` (the footnote-4 star family), verifies that both
  engines — and, on the smallest configuration, the independent brute-force
  counter — produce identical counts, and appends a timestamped speedup
  record to ``BENCH_engine.json``.
* ``service`` — drives a ≥50-query mixed CQ/DCQ/ECQ workload through
  :class:`repro.service.CountingService` serially and with the process-pool
  executor, verifies that every service estimate equals the direct library
  call with the same derived seed (and that serial and parallel execution
  agree), resubmits the batch to demonstrate result-cache hits, and appends
  the throughput record to ``BENCH_service.json`` (including ``cpu_count`` —
  on single-core machines the parallel/serial ratio is bounded by 1 and the
  record says so).
* ``prepared`` — a repeated-shape batch of alpha-renamed copies of fixed CQ /
  DCQ shapes: measures the width/decomposition compilation cost per-call
  (a fresh, uncached ``PreparedQuery`` per copy — the pre-compilation-layer
  behaviour) versus prepared-shared (every copy hits the one process-wide
  cache entry, asserted via the cache and artifact counters), verifies that
  registry-dispatched estimates equal the direct library calls under the
  same seeds, and appends the speedup record to ``BENCH_prepared.json``.
* ``stream`` — live updates through :mod:`repro.stream`: a touched-relation
  mutation loop where a subscribed exact count is delta-patched each step
  and verified bit-identical against a from-scratch recount of the same
  state (the recount is timed as the baseline), an untouched-relation loop
  where reads must be served from the stored fingerprint at near-zero cost,
  and an approximate-handle check that a refreshed ``LiveCount`` equals the
  direct registry call with the same derived seed.  Appends the
  incremental-vs-recount speedup record to ``BENCH_stream.json``.
* ``shard`` — horizontally sharded counting through :mod:`repro.shard`: a
  multi-component query over relation-partitioned shards is counted sharded
  (per-shard tasks fanned across the process pool, combined by product) and
  unsharded, verified bit-identical, and the shard-parallel speedup recorded;
  a hash-by-tuple union-decomposition count is verified bit-identical too.
  Appends to ``BENCH_shard.json``.
* ``resilience`` — deterministic fault injection through
  :mod:`repro.resilience`: a mixed batch run fault-free and again with every
  task crashing once (retried under the same derived seed), verified
  bit-identical, recording the faulted/clean ``throughput_retention`` ratio;
  plus the recovery latency of a permanently dead shard falling back to a
  merged-view recount.  Appends to ``BENCH_resilience.json``.
* ``columnar`` — the vectorized NumPy engine (``engine="columnar"``) against
  the pure-Python indexed engine on its two bulk kernels: the generalized-
  arc-consistency propagation fixpoint over Erdős–Rényi databases (the
  propagated domains must be identical set-for-set) and the column-wise
  join pipeline behind ``bag_solutions`` (the solution sets must be
  identical).  Exact counts are additionally verified identical across all
  three engines on smaller instances.  The gated headline is the minimum
  propagation speedup.  Appends to ``BENCH_columnar.json``; skipped with a
  notice when NumPy is unavailable (the columnar engine then falls back to
  indexed, so there is nothing to measure).
* ``planner`` — the observed-cost adaptive planner: on a database just past
  the dichotomy's small-instance threshold (static pick: the FPRAS) the
  profile store is warmed with ``min_observations`` runs per candidate
  scheme, and the same request stream is timed through a static service and
  the warmed adaptive one (which learns the exact counter is far cheaper
  there).  Verifies cold-store plans byte-identical to static plans, plan
  purity across persisted-snapshot replays, estimates bit-identical to
  direct scheme execution under the same derived seeds, and that every
  adaptive execution is scored predicted-vs-actual.  The gated headline is
  the adaptive-over-static speedup.  Appends to ``BENCH_planner.json``.
* ``serve`` — the HTTP/JSON front-end (:mod:`repro.serve`): a closed-loop
  mixed workload driven by N concurrent :class:`ServeClient` threads against
  a resident in-thread server, recording p50/p95 request latency and
  throughput, with every served estimate verified bit-identical to a twin
  in-process service under the same seeds; then a barrier-released herd of
  identical requests against a latency-injected service, verifying the
  underlying count executes exactly once and every herd member gets the
  same bits.  The gated headline is ``coalescing_hit_rate`` =
  (herd − executions) / (herd − 1) — 1.0 when coalescing works, 0.0 if
  every request were to execute.  Appends to ``BENCH_serve.json``.

Usage::

    python benchmarks/record_perf.py                    # all suites, full
    python benchmarks/record_perf.py --smoke            # budgeted subset
    python benchmarks/record_perf.py --suite service    # one suite
    python benchmarks/record_perf.py --smoke \\
        --check-against benchmarks/baselines/baselines.json   # CI perf gate

``--check-against`` compares each suite's headline *speedup ratio* (machine-
relative, so shared CI runners don't flake on absolute times) against the
committed baseline and fails when it regresses beyond the tolerance
(``baseline / tolerance``).  Exits non-zero if any verification fails or any
gated metric regresses.  Installed environments get the pytest-benchmark
harness via the ``bench`` extra (``pip install .[bench]``); this script
intentionally has no dependency beyond the package itself.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.applications import star_instance  # noqa: E402
from repro.core import count_answers_exact  # noqa: E402
from repro.queries.builders import path_query  # noqa: E402
from repro.workloads import database_from_graph, erdos_renyi_graph  # noqa: E402

TWO_HOP = path_query(2, free_endpoints_only=True)
STAR_GRAPH = erdos_renyi_graph(12, 0.3, rng=17)


def _scaling_config(size: int):
    database = database_from_graph(erdos_renyi_graph(size, 0.3, rng=size))
    return f"bench_scaling_database|two-hop|U={size}", TWO_HOP, database


def _star_config(k: int):
    query, database = star_instance(STAR_GRAPH, k)
    return f"bench_star_queries|star k={k}|U={STAR_GRAPH.number_of_nodes()}", query, database


def _configs(smoke: bool):
    if smoke:
        return [_scaling_config(14), _star_config(3)]
    return [_scaling_config(14), _scaling_config(20), _star_config(3), _star_config(4)]


def _best_of(call, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _append_record(out_path: Path, record: dict) -> None:
    existing = []
    if out_path.exists():
        try:
            existing = json.loads(out_path.read_text())
            if not isinstance(existing, list):
                existing = [existing]
        except json.JSONDecodeError:
            existing = []
    existing.append(record)
    out_path.write_text(json.dumps(existing, indent=2) + "\n")


def _append_trajectory(
    out_path: Path, observed: dict, timestamp: str, mode: str
) -> None:
    """Append one JSON line per suite to the cumulative trajectory log.

    Each suite contributes its single headline metric (a machine-relative
    speedup/retention ratio), so the file stays a flat, greppable history of
    how the repo's performance evolved across runs:

        {"suite": "stream", "metric": "touched_speedup", "speedup": 12.4,
         "timestamp": "...", "mode": "smoke"}
    """
    lines = []
    for suite, metrics in sorted(observed.items()):
        for metric, value in sorted(metrics.items()):
            lines.append(
                json.dumps(
                    {
                        "suite": suite,
                        "metric": metric,
                        "speedup": value,
                        "timestamp": timestamp,
                        "mode": mode,
                    },
                    sort_keys=True,
                )
            )
    if not lines:
        return
    with out_path.open("a") as handle:
        handle.write("\n".join(lines) + "\n")
    print(
        f"[record_perf] appended {len(lines)} trajectory line(s) to {out_path}"
    )


def run_engine(smoke: bool, out_path: Path, repeats: int, budget_seconds: float) -> tuple:
    started = time.perf_counter()
    results = []
    failures = 0
    for name, query, database in _configs(smoke):
        if smoke and time.perf_counter() - started > budget_seconds:
            print(f"[record_perf] smoke budget of {budget_seconds:.0f}s reached; stopping")
            break
        naive_count = count_answers_exact(query, database, engine="naive")
        indexed_count = count_answers_exact(query, database, engine="indexed")
        bruteforce_count = None
        if len(query.variables) <= 3 and len(database.universe) <= 14:
            bruteforce_count = count_answers_exact(query, database, method="bruteforce")
        counts_match = naive_count == indexed_count and (
            bruteforce_count is None or bruteforce_count == indexed_count
        )
        if not counts_match:
            failures += 1
        naive_time = _best_of(
            lambda: count_answers_exact(query, database, engine="naive"), repeats
        )
        indexed_time = _best_of(
            lambda: count_answers_exact(query, database, engine="indexed"), repeats
        )
        speedup = naive_time / indexed_time if indexed_time > 0 else float("inf")
        results.append(
            {
                "config": name,
                "count": naive_count,
                "bruteforce_count": bruteforce_count,
                "counts_match": counts_match,
                "naive_seconds": round(naive_time, 6),
                "indexed_seconds": round(indexed_time, 6),
                "speedup": round(speedup, 2),
            }
        )
        print(
            f"[record_perf] {name}: count={naive_count} "
            f"naive={naive_time * 1000:.1f}ms indexed={indexed_time * 1000:.1f}ms "
            f"speedup={speedup:.1f}x counts_match={counts_match}"
        )

    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": "smoke" if smoke else "full",
        "engine": "indexed",
        "baseline": "naive",
        "configs": results,
        "min_speedup": round(min((r["speedup"] for r in results), default=0.0), 2),
        "all_counts_match": failures == 0,
    }
    _append_record(out_path, record)
    print(f"[record_perf] appended record to {out_path} (min speedup {record['min_speedup']}x)")
    return (1 if failures else 0), {"min_speedup": record["min_speedup"]}


# --------------------------------------------------------------- service suite
def _service_workload(smoke: bool):
    """A ≥50-query mixed workload.  The planner sends most queries to the
    (fast, error-free) exact scheme — the right call on databases this small —
    and a fixed subset is forced onto each approximation scheme so the bench
    also exercises and verifies the FPRAS/FPTRAS paths end-to-end."""
    from repro.service import CountRequest, mixed_query_workload, workload_database

    num_queries = 50 if smoke else 60
    database = workload_database(
        num_vertices=10 if smoke else 12, edge_probability=0.3, rng=29
    )
    queries = mixed_query_workload(
        num_queries, num_variables=(3, 4) if smoke else (3, 5), rng=41
    )
    # The workload cycles CQ, DCQ, DCQ, ECQ — force one of each class onto its
    # approximation scheme (indices chosen by class = index mod 4).
    forced = {8: "fpras_cq", 9: "fptras_dcq", 11: "fptras_ecq"}
    if not smoke:
        forced.update({32: "fpras_cq", 33: "fptras_dcq", 35: "fptras_ecq"})
    requests = [
        CountRequest(query=query, method=forced.get(index))
        for index, query in enumerate(queries)
    ]
    return requests, database


def run_service(smoke: bool, out_path: Path) -> tuple:
    from repro.core.registry import REGISTRY
    from repro.service import CountingService, ServiceConfig
    from repro.util.rng import derive_seed

    epsilon, delta = (0.6, 0.3) if smoke else (0.5, 0.25)
    master_seed = 2022
    requests, database = _service_workload(smoke)

    def fresh_service(executor: str) -> CountingService:
        return CountingService(
            database,
            ServiceConfig(epsilon=epsilon, delta=delta, executor=executor,
                          max_workers=max(2, os.cpu_count() or 1)),
        )

    serial_service = fresh_service("serial")
    serial = serial_service.count_batch(requests, seed=master_seed)
    print(
        f"[record_perf] service serial: {len(serial.results)} queries in "
        f"{serial.wall_seconds:.2f}s ({serial.throughput_qps:.1f} q/s)"
    )

    parallel_service = fresh_service("process")
    parallel = parallel_service.count_batch(requests, seed=master_seed)
    print(
        f"[record_perf] service parallel ({parallel.executed_executor}, "
        f"{parallel.max_workers} workers): {len(parallel.results)} queries in "
        f"{parallel.wall_seconds:.2f}s ({parallel.throughput_qps:.1f} q/s)"
    )

    failures = 0

    # Determinism across executors: serial and parallel must agree exactly.
    executor_match = serial.estimates() == parallel.estimates()
    if not executor_match:
        failures += 1
        print("[record_perf] FAIL: serial and parallel estimates differ")

    # Service vs direct library calls with the same derived seeds.
    direct_match = True
    for index, result in enumerate(parallel.results):
        direct = REGISTRY.count(
            result.scheme,
            requests[index].query,
            database,
            epsilon=result.epsilon,
            delta=result.delta,
            rng=derive_seed(master_seed, index),
            engine=result.plan.engine,
        ).estimate
        if direct != result.estimate:
            direct_match = False
            print(
                f"[record_perf] FAIL: query {index} ({result.scheme}): "
                f"service={result.estimate} direct={direct}"
            )
    if not direct_match:
        failures += 1
    print(f"[record_perf] service estimates match direct calls: {direct_match}")

    # Resubmission: every query must be served from the result cache.
    resubmit = parallel_service.count_batch(requests, seed=master_seed)
    all_cached = resubmit.cache_hits == len(requests)
    if not all_cached:
        failures += 1
    print(
        f"[record_perf] resubmission cache hits: {resubmit.cache_hits}/"
        f"{len(requests)} in {resubmit.wall_seconds:.3f}s "
        f"({resubmit.throughput_qps:.0f} q/s)"
    )

    scheme_counts: dict = {}
    class_counts: dict = {}
    for result in parallel.results:
        scheme_counts[result.scheme] = scheme_counts.get(result.scheme, 0) + 1
        class_counts[result.query_class] = class_counts.get(result.query_class, 0) + 1

    speedup = (
        parallel.throughput_qps / serial.throughput_qps
        if serial.throughput_qps > 0
        else 0.0
    )
    cached_speedup = (
        resubmit.throughput_qps / serial.throughput_qps
        if serial.throughput_qps > 0
        else 0.0
    )
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": "smoke" if smoke else "full",
        "num_queries": len(requests),
        "class_counts": class_counts,
        "scheme_counts": scheme_counts,
        "epsilon": epsilon,
        "delta": delta,
        "master_seed": master_seed,
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial.wall_seconds, 4),
        "serial_qps": round(serial.throughput_qps, 2),
        "parallel_executor": parallel.executed_executor,
        "parallel_workers": parallel.max_workers,
        "parallel_seconds": round(parallel.wall_seconds, 4),
        "parallel_qps": round(parallel.throughput_qps, 2),
        "parallel_vs_serial_speedup": round(speedup, 2),
        "cached_resubmission_qps": round(resubmit.throughput_qps, 2),
        "cached_resubmission_speedup": round(cached_speedup, 2),
        "resubmission_cache_hits": resubmit.cache_hits,
        "estimates_match_direct_calls": direct_match,
        "serial_parallel_estimates_match": executor_match,
        "note": (
            "parallel_vs_serial_speedup is bounded by cpu_count; "
            "cached_resubmission_speedup shows the cache-layer gain"
        ),
    }
    _append_record(out_path, record)
    print(
        f"[record_perf] appended record to {out_path} "
        f"(parallel {speedup:.2f}x, cached resubmission {cached_speedup:.0f}x "
        f"vs serial on {os.cpu_count()} cpu(s))"
    )
    # The parallel ratio is cpu-bound (1.0 on single-core runners), so only
    # the cache-layer ratio is a gateable machine-relative metric.
    return (1 if failures else 0), {
        "cached_resubmission_speedup": record["cached_resubmission_speedup"]
    }


# -------------------------------------------------------------- prepared suite
def _alpha_renamed_copies(query, count: int):
    """``count`` alpha-renamed copies of ``query`` (same canonical form,
    disjoint variable names)."""
    copies = []
    for index in range(count):
        mapping = {v: f"r{index}_{v}" for v in query.variables}
        copies.append(query.rename_variables(mapping))
    return copies


def run_prepared(smoke: bool, out_path: Path) -> tuple:
    from repro.core import count_answers_exact as exact_direct  # noqa: F401
    from repro.core import fpras_count_cq, fptras_count_dcq
    from repro.core.registry import REGISTRY
    from repro.queries.builders import path_query, star_query
    from repro.queries.prepared import (
        PreparedQuery,
        clear_prepared_cache,
        prepare,
        prepared_cache_stats,
    )
    from repro.workloads import database_from_graph, erdos_renyi_graph

    copies_per_shape = 12 if smoke else 30
    epsilon, delta = 0.6, 0.3
    database = database_from_graph(erdos_renyi_graph(10, 0.35, rng=23))
    shapes = [
        ("two-hop CQ", "fpras_cq", path_query(2, free_endpoints_only=True)),
        ("star-3 DCQ", "fptras_dcq", star_query(3, with_disequalities=True)),
    ]
    failures = 0
    results = []
    for name, scheme, base in shapes:
        copies = _alpha_renamed_copies(base, copies_per_shape)

        # Per-call: a fresh, uncached PreparedQuery per copy, forced to
        # compile the profile and the nice decomposition (what every scheme
        # call recomputed before the compilation layer existed).
        def compile_per_call():
            for copy in copies:
                fresh = PreparedQuery(copy)
                fresh.width_profile()
                fresh.nice_decomposition()

        per_call_seconds = _best_of(compile_per_call, repeats=1)

        # Prepared-shared: every copy resolves to one cache entry; artifacts
        # are compiled once and translated per renaming.
        clear_prepared_cache()
        hits_before = prepared_cache_stats().hits

        def compile_shared():
            for copy in copies:
                item = prepare(copy)
                item.width_profile()
                item.nice_decomposition_for(copy)

        shared_seconds = _best_of(compile_shared, repeats=1)
        shared = prepare(copies[0])
        stats = shared.artifact_stats()
        cache_hits = prepared_cache_stats().hits - hits_before
        compiled_once = (
            stats["width_profile"]["computes"] == 1
            and stats["fhw_decomposition"]["computes"] == 1
            and cache_hits >= len(copies) - 1
        )
        if not compiled_once:
            failures += 1
            print(f"[record_perf] FAIL: {name}: artifacts compiled more than once")

        # Estimates through the registry must equal the direct library calls
        # with the same seeds (the copies share artifacts; results must not).
        direct_call = fpras_count_cq if scheme == "fpras_cq" else fptras_count_dcq
        estimates_match = True
        for seed, copy in enumerate(copies[:4]):
            via_registry = REGISTRY.count(
                scheme, copy, database, epsilon=epsilon, delta=delta, rng=seed
            ).estimate
            direct = direct_call(
                copy, database, epsilon=epsilon, delta=delta, rng=seed
            )
            if via_registry != direct:
                estimates_match = False
                print(
                    f"[record_perf] FAIL: {name} seed {seed}: "
                    f"registry={via_registry} direct={direct}"
                )
        if not estimates_match:
            failures += 1

        speedup = per_call_seconds / shared_seconds if shared_seconds > 0 else float("inf")
        results.append(
            {
                "shape": name,
                "scheme": scheme,
                "copies": len(copies),
                "per_call_seconds": round(per_call_seconds, 6),
                "prepared_shared_seconds": round(shared_seconds, 6),
                "speedup": round(speedup, 2),
                "cache_hits": cache_hits,
                "artifacts_compiled_once": compiled_once,
                "estimates_match_direct_calls": estimates_match,
            }
        )
        print(
            f"[record_perf] prepared {name}: {len(copies)} copies "
            f"per-call={per_call_seconds * 1000:.1f}ms "
            f"shared={shared_seconds * 1000:.1f}ms speedup={speedup:.1f}x "
            f"cache_hits={cache_hits}"
        )

    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": "smoke" if smoke else "full",
        "epsilon": epsilon,
        "delta": delta,
        "shapes": results,
        "min_speedup": round(min((r["speedup"] for r in results), default=0.0), 2),
        "all_verified": failures == 0,
        "note": (
            "per_call compiles widths + nice decomposition freshly per "
            "alpha-renamed copy (pre-PreparedQuery behaviour); "
            "prepared_shared hits one process-wide cache entry per shape"
        ),
    }
    _append_record(out_path, record)
    print(
        f"[record_perf] appended record to {out_path} "
        f"(min speedup {record['min_speedup']}x)"
    )
    return (1 if failures else 0), {"min_speedup": record["min_speedup"]}


# --------------------------------------------------------------- stream suite
def run_stream_suite(smoke: bool, out_path: Path) -> tuple:
    from repro.core.registry import REGISTRY
    from repro.service import CountingService, ServiceConfig
    from repro.util.rng import derive_seed
    from repro.workloads import database_from_graph, erdos_renyi_graph

    failures = 0
    steps = 60 if smoke else 150
    size = 32 if smoke else 40
    database = database_from_graph(erdos_renyi_graph(size, 0.2, rng=19))
    from repro.relational.signature import RelationSymbol

    database.add_relation(RelationSymbol("F", 2))
    database.add_fact("F", (0, 1))
    service = CountingService(database, ServiceConfig(executor="serial"))
    query = TWO_HOP

    # --- touched-relation loop: delta-patched subscription vs recount.
    # The mutation schedule is the stream workload generator's, restricted
    # to pure insert/delete events over E within the existing universe.
    from repro.stream import stream_schedule

    subscription = service.subscribe(query)
    schedule = stream_schedule(
        steps, database, num_queries=1, rng=5,
        mix={"insert": 0.5, "delete": 0.5},
        relations=("E",), fresh_vertex_probability=0.0,
    )
    incremental_seconds = 0.0
    recount_seconds = 0.0
    mismatches = 0
    modes: dict = {}
    for event in schedule:
        if event.kind == "insert":
            database.add_fact("E", event.fact)
        else:
            database.remove_fact("E", event.fact)
        start = time.perf_counter()
        live = subscription.read()
        incremental_seconds += time.perf_counter() - start
        modes[live.mode] = modes.get(live.mode, 0) + 1
        start = time.perf_counter()
        expected = count_answers_exact(query, database)
        recount_seconds += time.perf_counter() - start
        if live.estimate != expected:
            mismatches += 1
    touched_speedup = (
        recount_seconds / incremental_seconds if incremental_seconds > 0 else float("inf")
    )
    if mismatches:
        failures += 1
        print(f"[record_perf] FAIL: {mismatches}/{steps} incremental counts diverged")
    print(
        f"[record_perf] stream touched-relation: {steps} steps "
        f"incremental={incremental_seconds * 1000:.1f}ms "
        f"recount={recount_seconds * 1000:.1f}ms "
        f"speedup={touched_speedup:.1f}x modes={modes}"
    )

    # --- untouched-relation loop: mutations elsewhere must be free.
    untouched_reads = steps
    freshness_violations = 0
    start = time.perf_counter()
    for index in range(untouched_reads):
        database.add_fact("F", (index % size, (index * 7 + 1) % size))
        live = subscription.read()
        if not live.fresh or live.refreshed:
            freshness_violations += 1
    untouched_seconds = time.perf_counter() - start
    if freshness_violations:
        failures += 1
        print(
            f"[record_perf] FAIL: {freshness_violations}/{untouched_reads} "
            "untouched-relation reads were stale or refreshed"
        )
    untouched_per_read = untouched_seconds / untouched_reads
    recount_per_step = recount_seconds / steps
    untouched_free = untouched_per_read < 0.05 * recount_per_step
    if not untouched_free:
        failures += 1
        print(
            "[record_perf] FAIL: untouched-relation reads cost "
            f"{untouched_per_read * 1e6:.0f}us each (recount {recount_per_step * 1e3:.1f}ms)"
        )
    print(
        f"[record_perf] stream untouched-relation: {untouched_reads} reads in "
        f"{untouched_seconds * 1000:.2f}ms "
        f"({untouched_per_read * 1e6:.1f}us/read vs {recount_per_step * 1e3:.1f}ms/recount)"
    )
    subscription.close()

    # --- approximate handle: refreshed reads equal direct registry calls.
    from repro.service import CountRequest

    base_seed = 97
    epsilon, delta = 0.6, 0.3
    approx = service.subscribe(
        CountRequest(
            query=query, epsilon=epsilon, delta=delta,
            seed=base_seed, method="fpras_cq",
        )
    )
    approx_match = True
    for refresh_index in (1, 2):
        # A guaranteed-new fact, so the mutation is never a no-op.
        database.add_fact("E", (f"approx{refresh_index}", refresh_index))
        live = approx.read()
        direct = REGISTRY.count(
            "fpras_cq", query, database, epsilon=epsilon, delta=delta,
            rng=derive_seed(base_seed, refresh_index), engine=approx.plan.engine,
        ).estimate
        if live.estimate != direct:
            approx_match = False
            print(
                f"[record_perf] FAIL: approx refresh {refresh_index}: "
                f"live={live.estimate} direct={direct}"
            )
    if not approx_match:
        failures += 1
    print(f"[record_perf] stream approx refresh matches direct registry calls: {approx_match}")
    approx.close()

    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": "smoke" if smoke else "full",
        "database": f"erdos_renyi({size}, 0.2) symmetric E + sparse F",
        "query": "two-hop CQ",
        "scheme": "exact",
        "mutation_steps": steps,
        "refresh_modes": modes,
        "incremental_seconds": round(incremental_seconds, 6),
        "recount_seconds": round(recount_seconds, 6),
        "touched_speedup": round(touched_speedup, 2),
        "untouched_reads": untouched_reads,
        "untouched_seconds_per_read": round(untouched_per_read, 9),
        "recount_seconds_per_step": round(recount_per_step, 6),
        "untouched_is_near_zero": untouched_free,
        "untouched_reads_all_fresh": freshness_violations == 0,
        "counts_match_recounts": mismatches == 0,
        "approx_refresh_matches_direct": approx_match,
        "note": (
            "touched_speedup compares delta-patched subscription reads with "
            "from-scratch exact recounts of the same database states; "
            "untouched reads are served from the stored fingerprint"
        ),
    }
    _append_record(out_path, record)
    print(
        f"[record_perf] appended record to {out_path} "
        f"(touched {touched_speedup:.1f}x, untouched "
        f"{untouched_per_read * 1e6:.1f}us/read)"
    )
    return (1 if failures else 0), {"touched_speedup": record["touched_speedup"]}


# ---------------------------------------------------------------- shard suite
def _shard_workload(smoke: bool):
    """A large multi-component workload over a relation-partitioned database.

    Four binary relations ``E0..E3`` over one shared universe, and one query
    with four connected components (a two-hop per relation, one free variable
    each): the unsharded exact count enumerates the ~``n^4`` product of the
    per-component answer sets, while the shard planner counts each component
    on its owning shard and multiplies — the decomposition the sharding layer
    exists to exploit.
    """
    from repro.queries.atoms import Atom
    from repro.queries.query import ConjunctiveQuery
    from repro.relational.structure import Database

    size = 9 if smoke else 10
    num_relations = 3
    database = Database(universe=range(size))
    for index in range(num_relations):
        graph = erdos_renyi_graph(size, 0.3, rng=100 + index)
        for u, v in graph.edges():
            database.add_fact(f"E{index}", (u, v))
            database.add_fact(f"E{index}", (v, u))
    atoms = []
    free = []
    for index in range(num_relations):
        a, b, c = f"a{index}", f"b{index}", f"c{index}"
        atoms.append(Atom(f"E{index}", (a, b)))
        atoms.append(Atom(f"E{index}", (b, c)))
        free.append(a)
    query = ConjunctiveQuery(free_variables=free, atoms=atoms)
    return query, database, num_relations


def run_shard_suite(smoke: bool, out_path: Path) -> tuple:
    from repro.service import CountingService, CountRequest, ServiceConfig
    from repro.shard import (
        ByRelationPartitioner,
        HashTuplePartitioner,
        ShardedStructure,
        plan_sharded_count,
    )

    failures = 0
    query, database, num_relations = _shard_workload(smoke)
    assignment = {f"E{index}": index for index in range(num_relations)}
    sharded = ShardedStructure.from_structure(
        database, ByRelationPartitioner(num_relations, assignment=assignment)
    )
    plan = plan_sharded_count(query, sharded)
    if plan.strategy != "local":
        failures += 1
        print(f"[record_perf] FAIL: expected a local shard plan, got {plan.strategy!r}")

    unsharded_started = time.perf_counter()
    unsharded_count = count_answers_exact(query, database)
    unsharded_seconds = time.perf_counter() - unsharded_started

    # count_batch, not submit: submit always runs serially.
    service = CountingService(
        sharded, ServiceConfig(executor="process", max_workers=num_relations)
    )
    sharded_started = time.perf_counter()
    sharded_report = service.count_batch([CountRequest(query=query, method="exact")])
    sharded_seconds = time.perf_counter() - sharded_started
    sharded_estimate = sharded_report.results[0].estimate
    counts_match = sharded_estimate == unsharded_count
    if not counts_match:
        failures += 1
        print(
            f"[record_perf] FAIL: sharded count {sharded_estimate} != "
            f"unsharded {unsharded_count}"
        )
    speedup = unsharded_seconds / sharded_seconds if sharded_seconds > 0 else float("inf")
    print(
        f"[record_perf] shard local: count={unsharded_count} "
        f"unsharded={unsharded_seconds * 1000:.1f}ms "
        f"sharded={sharded_seconds * 1000:.1f}ms "
        f"({sharded_report.executed_executor}, {len(plan.tasks)} tasks "
        f"over shards {list(plan.shards_involved)}) "
        f"speedup={speedup:.1f}x counts_match={counts_match}"
    )

    # Union decomposition (hash-by-tuple): exact counts stay bit-identical.
    union_query = TWO_HOP
    union_database = database_from_graph(erdos_renyi_graph(12, 0.3, rng=31))
    union_sharded = ShardedStructure.from_structure(
        union_database, HashTuplePartitioner(2)
    )
    union_plan = plan_sharded_count(union_query, union_sharded)
    union_expected = count_answers_exact(union_query, union_database)
    union_result = CountingService(
        union_sharded, ServiceConfig(executor="serial")
    ).submit(CountRequest(query=union_query, method="exact"))
    union_restrictions = len(union_plan.union.queries) if union_plan.union else 0
    union_verified = (
        union_result.shard_strategy == "union" and union_result.estimate == union_expected
    )
    if not union_verified:
        failures += 1
        print(
            f"[record_perf] FAIL: union path ({union_result.shard_strategy}) gave "
            f"{union_result.estimate}, expected {union_expected}"
        )
    print(
        f"[record_perf] shard union: {union_restrictions} restrictions, "
        f"count={union_result.estimate} verified={union_verified}"
    )

    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": "smoke" if smoke else "full",
        "num_shards": num_relations,
        "partitioner": "relation",
        "strategy": plan.strategy,
        "cpu_count": os.cpu_count(),
        "executed_mode": sharded_report.executed_executor,
        "query_components": plan.num_components,
        "count": unsharded_count,
        "unsharded_seconds": round(unsharded_seconds, 6),
        "sharded_seconds": round(sharded_seconds, 6),
        "speedup": round(speedup, 2),
        "counts_match": counts_match,
        "union_restrictions": union_restrictions,
        "union_verified": union_verified,
        "note": (
            "speedup compares one multi-component exact count over the "
            "monolith with the shard-decomposed count (per-shard tasks "
            "through the process pool, combined by product); the union row "
            "verifies the hash-by-tuple decomposition stays bit-identical"
        ),
    }
    _append_record(out_path, record)
    print(
        f"[record_perf] appended record to {out_path} (shard-parallel "
        f"{speedup:.1f}x on {os.cpu_count()} cpu(s))"
    )
    return (1 if failures else 0), {"speedup": record["speedup"]}


# ----------------------------------------------------------- resilience suite
def run_resilience_suite(smoke: bool, out_path: Path) -> tuple:
    """Fault-injection overhead and recovery: a mixed batch run fault-free
    and again under a deterministic crash-every-task plan (each task fails
    once and is retried under the same derived seed), verified bit-identical;
    plus the recovery latency of a permanently dead shard falling back to the
    merged view.  The gated metric is ``throughput_retention`` — faulted
    throughput over clean throughput (machine-relative; crash-once-per-task
    costs one extra counting attempt per task, so retention is floored near
    0.5 when counting dominates and stays near 1.0 when planning does — a
    collapse means the retry/injection path itself got expensive)."""
    from repro.queries import parse_query
    from repro.resilience.faults import FaultPlan, FaultRule, uniform_plan
    from repro.resilience.retry import RetryPolicy
    from repro.service import (
        CountingService,
        ServiceConfig,
        mixed_query_workload,
        workload_database,
    )
    from repro.shard import ByRelationPartitioner, ShardedStructure

    failures = 0
    seed = 2022
    retry = RetryPolicy(max_attempts=3)
    num_queries = 20 if smoke else 40
    database = workload_database(
        num_vertices=10 if smoke else 12, edge_probability=0.3, rng=29
    )
    queries = mixed_query_workload(
        num_queries, num_variables=(3, 4) if smoke else (3, 5), rng=41
    )

    def run_batch(fault_plan=None):
        # A fresh service per run: no cache hits, no shared breaker state.
        service = CountingService(database, ServiceConfig(executor="serial"))
        return service.count_batch(
            queries, seed=seed, fault_plan=fault_plan, retry=retry
        )

    clean = min((run_batch() for _ in range(2)), key=lambda r: r.wall_seconds)
    crash_all = uniform_plan(seed, rate=1.0, sites=("executor.task",))
    faulted = min(
        (run_batch(crash_all) for _ in range(2)), key=lambda r: r.wall_seconds
    )

    identical = clean.estimates() == faulted.estimates()
    if not identical:
        failures += 1
        print("[record_perf] FAIL: faulted estimates diverged from fault-free run")
    if faulted.retries < num_queries:
        failures += 1
        print(
            f"[record_perf] FAIL: expected >= {num_queries} retries, "
            f"got {faulted.retries} (plan injected nothing?)"
        )
    retention = (
        clean.wall_seconds / faulted.wall_seconds if faulted.wall_seconds > 0 else 0.0
    )
    print(
        f"[record_perf] resilience batch: {num_queries} queries "
        f"clean={clean.wall_seconds * 1000:.1f}ms "
        f"faulted={faulted.wall_seconds * 1000:.1f}ms "
        f"(crash-once-per-task, {faulted.retries} retries) "
        f"retention={retention:.2f} identical={identical}"
    )

    # Recovery latency: shard 0 permanently down, the task recounts on the
    # merged view — timed, and still bit-identical to the healthy run.
    sharded = ShardedStructure.from_structure(
        database, ByRelationPartitioner(2, assignment={"E": 0, "F": 1})
    )
    shard_queries = [parse_query("Ans(x) :- E(x, y), E(y, z)")]
    healthy = CountingService(sharded, ServiceConfig(executor="serial")).count_batch(
        shard_queries, seed=seed
    )
    dead_shard = FaultPlan(
        seed=seed,
        rules=(FaultRule(site="shard.count", kind="crash", times=99, match=(0,)),),
    )
    recovery_started = time.perf_counter()
    recovered = CountingService(sharded, ServiceConfig(executor="serial")).count_batch(
        shard_queries, seed=seed, fault_plan=dead_shard, retry=retry
    )
    recovery_seconds = time.perf_counter() - recovery_started
    shard_identical = recovered.estimates() == healthy.estimates()
    fell_back = any("merged view" in note for note in recovered.degradations)
    if not (shard_identical and fell_back):
        failures += 1
        print(
            f"[record_perf] FAIL: merged-view fallback identical={shard_identical} "
            f"fell_back={fell_back}"
        )
    print(
        f"[record_perf] resilience shard fallback: dead shard recovered in "
        f"{recovery_seconds * 1000:.1f}ms via merged view "
        f"(identical={shard_identical})"
    )

    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": "smoke" if smoke else "full",
        "num_queries": num_queries,
        "master_seed": seed,
        "fault_plan": "crash-once per executor.task (rate 1.0)",
        "retry_policy": "max_attempts=3, no backoff delay",
        "clean_seconds": round(clean.wall_seconds, 4),
        "faulted_seconds": round(faulted.wall_seconds, 4),
        "faulted_retries": faulted.retries,
        "faulted_degradations": len(faulted.degradations),
        "throughput_retention": round(retention, 2),
        "estimates_bit_identical": identical,
        "merged_fallback_seconds": round(recovery_seconds, 4),
        "merged_fallback_bit_identical": shard_identical,
        "note": (
            "throughput_retention = clean/faulted wall time with every task "
            "crashing once and retrying under the same derived seed (floored "
            "near 0.5 when counting dominates the batch; near 1.0 when "
            "planning does); merged_fallback_seconds is the recovery latency "
            "of a permanently dead shard recounting on the merged view"
        ),
    }
    _append_record(out_path, record)
    print(
        f"[record_perf] appended record to {out_path} "
        f"(retention {retention:.2f}, fallback {recovery_seconds * 1000:.0f}ms)"
    )
    return (1 if failures else 0), {
        "throughput_retention": record["throughput_retention"]
    }


# ------------------------------------------------------------- columnar suite
def run_columnar(smoke: bool, out_path: Path, repeats: int) -> tuple:
    """Columnar-vs-indexed on the two vectorized bulk kernels.

    The headline is the minimum GAC propagation speedup: the fixpoint loop is
    where the columnar engine does whole-column NumPy work (support-count
    arithmetic over int32 code columns) instead of per-tuple Python dict
    probes, so it is the honest place to claim the vectorization win.  Each
    timed run rebuilds the CSP from the shared database caches — identical
    work for both engines — and the propagated domains are compared
    set-for-set.  Exact counts are verified identical across engines
    (search-bound counting is only modestly faster: the backtracking
    recursion itself stays in Python), and the bag-solution join pipeline
    (one implementation, on code matrices) is timed as a secondary,
    ungated number with its solution count.
    """
    from repro.core import count_answers_exact as _exact
    from repro.core.bag_solutions import bag_solutions
    from repro.core.exact import solution_csp
    from repro.queries import parse_query

    failures = 0
    three_path = path_query(3)

    # -- propagation fixpoint (gated headline) --
    if smoke:
        gac_sizes = [(100, 0.3), (150, 0.15)]
    else:
        gac_sizes = [(100, 0.3), (200, 0.1), (400, 0.05)]
    gac_results = []
    for size, prob in gac_sizes:
        database = database_from_graph(erdos_renyi_graph(size, prob, rng=size))
        for label, query in (("two-hop", TWO_HOP), ("three-path", three_path)):
            name = f"gac|{label}|U={size} p={prob}"
            fixpoints = {
                engine: solution_csp(query, database, engine=engine).propagate()
                for engine in ("indexed", "columnar")
            }
            identical = fixpoints["indexed"] == fixpoints["columnar"]
            if not identical:
                failures += 1
                print(f"[record_perf] FAIL: {name} propagated domains diverged")
            indexed_time = _best_of(
                lambda: solution_csp(query, database, engine="indexed").propagate(),
                repeats,
            )
            columnar_time = _best_of(
                lambda: solution_csp(query, database, engine="columnar").propagate(),
                repeats,
            )
            speedup = indexed_time / columnar_time if columnar_time > 0 else float("inf")
            gac_results.append(
                {
                    "config": name,
                    "fixpoint_identical": identical,
                    "indexed_seconds": round(indexed_time, 6),
                    "columnar_seconds": round(columnar_time, 6),
                    "speedup": round(speedup, 2),
                }
            )
            print(
                f"[record_perf] {name}: indexed={indexed_time * 1000:.1f}ms "
                f"columnar={columnar_time * 1000:.1f}ms speedup={speedup:.1f}x "
                f"fixpoint_identical={identical}"
            )

    # -- bag-solution join pipeline (timed, not gated) --
    join_size, join_prob = (60, 0.15) if smoke else (200, 0.1)
    join_db = database_from_graph(erdos_renyi_graph(join_size, join_prob, rng=join_size))
    join_bag = set(three_path.variables)
    join_solutions = len(bag_solutions(three_path, join_db, join_bag))
    join_seconds = _best_of(lambda: bag_solutions(three_path, join_db, join_bag), repeats)
    print(
        f"[record_perf] join|three-path|U={join_size}: "
        f"|solutions|={join_solutions} seconds={join_seconds:.2f}s"
    )

    # -- exact counts, all three engines (verified, untimed) --
    # The 2-hop and 3-path count by elimination on the columnar engine
    # (free variables that share no atom), the all-free triangle by
    # elimination too (no existential variable), the Boolean triangle by
    # the answer search.
    count_checks = []
    for size, prob, query, label in (
        (60, 0.3, TWO_HOP, "two-hop"),
        (40, 0.2, three_path, "three-path"),
        (40, 0.2, parse_query("Ans(x, y, z) :- E(x, y), E(y, z), E(z, x)"), "all-free-triangle"),
        (40, 0.2, parse_query("Ans() :- E(x, y), E(y, z), E(z, x)"), "boolean-triangle"),
    ):
        database = database_from_graph(erdos_renyi_graph(size, prob, rng=size))
        counts = {
            engine: _exact(query, database, engine=engine)
            for engine in ("naive", "indexed", "columnar")
        }
        match = len(set(counts.values())) == 1
        if not match:
            failures += 1
            print(f"[record_perf] FAIL: count|{label}|U={size} counts diverged: {counts}")
        count_checks.append(
            {"config": f"count|{label}|U={size}", "count": counts["indexed"], "counts_match": match}
        )
        print(f"[record_perf] count|{label}|U={size}: count={counts['indexed']} match={match}")

    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": "smoke" if smoke else "full",
        "engine": "columnar",
        "baseline": "indexed",
        "configs": gac_results,
        "join": {
            "config": f"join|three-path|U={join_size} p={join_prob}",
            "solutions": join_solutions,
            "seconds": round(join_seconds, 4),
        },
        "count_checks": count_checks,
        "min_speedup": round(min((r["speedup"] for r in gac_results), default=0.0), 2),
        "all_counts_match": failures == 0,
    }
    _append_record(out_path, record)
    print(
        f"[record_perf] appended record to {out_path} "
        f"(min GAC speedup {record['min_speedup']}x)"
    )
    return (1 if failures else 0), {"min_speedup": record["min_speedup"]}


# -------------------------------------------------------------- planner suite
def run_planner(smoke: bool, out_path: Path) -> tuple:
    """Observed-cost adaptive planning: the closed telemetry loop.

    On a database just past the dichotomy's small-instance threshold the
    static Figure-1 pick for a CQ is the FPRAS, while the observed exact
    latencies are orders of magnitude cheaper — the situation the adaptive
    overlay exists for.  The suite warms the profile store with
    ``min_observations`` runs of each candidate under distinct seeds (the
    result cache would swallow repeats of one seed), then drives the same
    request stream through a static service and a warmed adaptive one; the
    gated headline is the adaptive-over-static wall-time speedup.

    Verified along the way (each a planner-determinism contract):

    * a cold-store adaptive plan is byte-identical to the static plan;
    * warmed plans are a pure function of the persisted profile snapshot
      (two services loading the same snapshot plan identically, twice);
    * every estimate — static and adaptive — equals the direct scheme
      execution under the same derived seed (the overlay changes *which*
      scheme runs, never what a scheme computes);
    * every adaptive execution is scored predicted-vs-actual in the
      ``planner.predictions`` counter.
    """
    import tempfile

    from repro.obs.profile import ProfileStore
    from repro.core.registry import REGISTRY
    from repro.service import (
        CountingService,
        CountRequest,
        PlannerConfig,
        ServiceConfig,
    )

    failures = 0
    epsilon, delta = (0.5, 0.3) if smoke else (0.4, 0.25)
    runs = 4 if smoke else 6
    min_obs = 3
    database = database_from_graph(
        erdos_renyi_graph(42, 0.25, rng=1), symmetric=True
    )
    query = TWO_HOP

    def config(adaptive: bool) -> ServiceConfig:
        return ServiceConfig(
            executor="serial", epsilon=epsilon, delta=delta,
            planner=PlannerConfig(adaptive=adaptive, min_observations=min_obs),
        )

    adaptive_service = CountingService(database, config(adaptive=True))
    static_service = CountingService(database, config(adaptive=False))

    # Cold-start contract: an empty store falls back to the dichotomy and
    # the plan is byte-identical to the static one.
    static_plan = static_service.plan(query)
    cold_identical = (
        adaptive_service.plan(query).to_dict() == static_plan.to_dict()
    )
    if not cold_identical:
        failures += 1
        print("[record_perf] FAIL: cold adaptive plan != static plan")

    # Warm-up: min_observations runs of each candidate, distinct seeds.
    candidates = ("exact", "fpras_cq")
    warm_started = time.perf_counter()
    for scheme in candidates:
        for index in range(min_obs):
            adaptive_service.submit(
                CountRequest(query, seed=1000 + index, method=scheme)
            )
    warm_seconds = time.perf_counter() - warm_started

    # The same request stream, static vs adaptive (distinct seeds again, so
    # every submit actually executes its scheme).
    static_started = time.perf_counter()
    static_results = [
        static_service.submit(CountRequest(query, seed=2000 + index))
        for index in range(runs)
    ]
    static_seconds = time.perf_counter() - static_started
    adaptive_started = time.perf_counter()
    adaptive_results = [
        adaptive_service.submit(CountRequest(query, seed=2000 + index))
        for index in range(runs)
    ]
    adaptive_seconds = time.perf_counter() - adaptive_started

    static_schemes = sorted({r.scheme for r in static_results})
    adaptive_schemes = sorted({r.scheme for r in adaptive_results})
    switched = static_schemes != adaptive_schemes
    if not switched:
        failures += 1
        print(
            f"[record_perf] FAIL: adaptive ran {adaptive_schemes}, same as "
            f"static {static_schemes} — the overlay never engaged"
        )
    speedup = (
        static_seconds / adaptive_seconds if adaptive_seconds > 0 else float("inf")
    )

    # Estimates equal the direct scheme execution under the same seeds.
    estimates_match = True
    for result in static_results + adaptive_results:
        direct = REGISTRY.count(
            result.scheme, query, database,
            epsilon=result.epsilon, delta=result.delta,
            rng=result.seed, engine=result.plan.engine,
        ).estimate
        if direct != result.estimate:
            estimates_match = False
            print(
                f"[record_perf] FAIL: {result.scheme} seed {result.seed}: "
                f"service={result.estimate} direct={direct}"
            )
    if not estimates_match:
        failures += 1

    # Every adaptive execution was scored predicted-vs-actual.
    outcome_counts = (
        adaptive_service.metrics.snapshot()["counters"]
        .get("planner.predictions", {})
    )
    scored = int(sum(outcome_counts.values()))
    predictions_scored = scored == runs
    if not predictions_scored:
        failures += 1
        print(
            f"[record_perf] FAIL: {scored} predictions scored, "
            f"expected {runs}"
        )

    # Purity: two services loading the persisted snapshot plan identically,
    # and planning twice changes nothing.
    with tempfile.TemporaryDirectory() as tmp:
        snapshot_path = Path(tmp) / "profiles.json"
        adaptive_service.profiles.save(snapshot_path)
        replayed = []
        for _ in range(2):
            replay = CountingService(
                database,
                ServiceConfig(
                    executor="serial", epsilon=epsilon, delta=delta,
                    planner=PlannerConfig(
                        adaptive=True, min_observations=min_obs
                    ),
                    profile_path=str(snapshot_path),
                ),
            )
            replayed.append(replay.plan(query).to_dict())
            replayed.append(replay.plan(query).to_dict())
        snapshot_runs = ProfileStore.load(snapshot_path).stats()["runs"]
    plans_pure = all(payload == replayed[0] for payload in replayed[1:])
    if not plans_pure:
        failures += 1
        print("[record_perf] FAIL: plans diverged across snapshot replays")

    # Persist the warmed snapshot next to the bench record so CI uploads it
    # with the other BENCH_* artifacts: anyone debugging a gate failure can
    # load the exact profile state the adaptive run planned from.
    profiles_out = out_path.with_name("BENCH_profiles.json")
    adaptive_service.profiles.save(profiles_out)
    print(f"[record_perf] saved warmed profile snapshot to {profiles_out}")

    print(
        f"[record_perf] planner: static {static_schemes} "
        f"{static_seconds * 1000:.0f}ms vs adaptive {adaptive_schemes} "
        f"{adaptive_seconds * 1000:.0f}ms over {runs} requests "
        f"(speedup {speedup:.1f}x, warmed in {warm_seconds:.1f}s, "
        f"{scored} predictions scored)"
    )

    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": "smoke" if smoke else "full",
        "database": "erdos_renyi(42, 0.25) symmetric",
        "database_size": database.size(),
        "query": "two-hop CQ",
        "epsilon": epsilon,
        "delta": delta,
        "min_observations": min_obs,
        "warmup_runs_per_scheme": min_obs,
        "warmup_seconds": round(warm_seconds, 4),
        "timed_requests": runs,
        "static_schemes": static_schemes,
        "adaptive_schemes": adaptive_schemes,
        "static_seconds": round(static_seconds, 4),
        "adaptive_seconds": round(adaptive_seconds, 4),
        "adaptive_speedup": round(speedup, 2),
        "snapshot_runs": snapshot_runs,
        "cold_plan_identical_to_static": cold_identical,
        "estimates_match_direct_calls": estimates_match,
        "predictions_scored": predictions_scored,
        "plans_pure_across_snapshot_replays": plans_pure,
        "note": (
            "adaptive_speedup compares the same request stream on the same "
            "machine through the static Figure-1 planner (FPRAS on a "
            "just-past-threshold database) and the warmed observed-cost "
            "planner (which learns the exact counter is cheaper here); "
            "estimates are verified against direct scheme execution under "
            "the same derived seeds — only the scheme choice changes"
        ),
    }
    _append_record(out_path, record)
    print(
        f"[record_perf] appended record to {out_path} "
        f"(adaptive {speedup:.1f}x over static)"
    )
    return (1 if failures else 0), {"adaptive_speedup": record["adaptive_speedup"]}


# ---------------------------------------------------------------- serve suite
def run_serve_suite(smoke: bool, out_path: Path) -> tuple:
    """The HTTP/JSON front-end under concurrent load.

    Two phases against servers started with ``start_in_thread`` on ephemeral
    ports:

    * **closed-loop latency** — N client threads drain a mixed CQ/DCQ job
      list (distinct seeds, so every request executes rather than hitting
      the result cache), recording per-request wall latency through the
      full wire round trip (serialize, HTTP, admission, dispatch, decode).
      Every served estimate is verified bit-identical to a twin in-process
      :meth:`CountingService.submit` with the same query and seed — the
      wire adds latency, never bits.
    * **herd coalescing** — a barrier releases a herd of byte-identical
      requests into a service whose executor is slowed by a deterministic
      0.25 s latency fault, so the herd reliably overlaps the leader.  The
      ``service.requests`` miss counter must advance by exactly one (one
      underlying execution) and all herd responses must carry the same
      estimate.  The gated ``coalescing_hit_rate`` is
      (herd − executions) / (herd − 1): 1.0 when the herd shares one
      execution, 0.0 if every member were to execute its own.
    """
    import statistics
    import threading

    from repro.queries import parse_query
    from repro.resilience.faults import FaultPlan, FaultRule
    from repro.serve import ServeClient, ServeConfig, start_in_thread
    from repro.service import CountingService, CountRequest, ServiceConfig

    failures = 0
    graph = erdos_renyi_graph(15, 0.25, rng=11)
    database = database_from_graph(graph)
    twin = CountingService(database_from_graph(graph))

    texts = [
        "Ans(x, y) :- E(x, y)",
        "Ans(x) :- E(x, y), E(y, z)",
        "Ans(x, y) :- E(x, y), x != y",
        "Ans(x) :- E(x, y), E(x, z), y != z",
    ]
    num_workers = 4 if smoke else 8
    seeds_per_query = 10 if smoke else 25
    jobs = [
        (text, seed) for seed in range(seeds_per_query) for text in texts
    ]
    latencies = [None] * len(jobs)
    estimates = [None] * len(jobs)
    errors = []

    service = CountingService(database)
    handle = start_in_thread(
        service, ServeConfig(worker_threads=num_workers, max_pending=256)
    )
    try:
        def worker(worker_id: int) -> None:
            client = ServeClient(handle.host, handle.port, timeout=60.0)
            for index in range(worker_id, len(jobs), num_workers):
                text, seed = jobs[index]
                started = time.perf_counter()
                try:
                    result = client.count(text, seed=seed)
                except Exception as error:  # noqa: BLE001 - recorded, then failed
                    errors.append(f"job {index} ({text!r}, seed {seed}): {error}")
                    return
                latencies[index] = time.perf_counter() - started
                estimates[index] = result.estimate

        threads = [
            threading.Thread(target=worker, args=(worker_id,))
            for worker_id in range(num_workers)
        ]
        wall_started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_seconds = time.perf_counter() - wall_started
    finally:
        handle.stop()

    if errors:
        failures += 1
        for line in errors[:5]:
            print(f"[record_perf] FAIL: serve closed-loop: {line}")

    # Wire fidelity: every served estimate equals the twin in-process call.
    twin_match = True
    if not errors:
        for index, (text, seed) in enumerate(jobs):
            local = twin.submit(CountRequest(query=parse_query(text), seed=seed))
            if estimates[index] != local.estimate:
                twin_match = False
                print(
                    f"[record_perf] FAIL: serve job {index} ({text!r}, seed "
                    f"{seed}): served={estimates[index]} local={local.estimate}"
                )
        if not twin_match:
            failures += 1

    timed = sorted(value for value in latencies if value is not None)
    p50 = statistics.median(timed) if timed else float("nan")
    p95 = timed[min(len(timed) - 1, int(0.95 * len(timed)))] if timed else float("nan")
    qps = len(timed) / wall_seconds if wall_seconds > 0 else 0.0
    print(
        f"[record_perf] serve closed-loop: {len(timed)}/{len(jobs)} requests, "
        f"{num_workers} workers, {wall_seconds:.2f}s ({qps:.0f} req/s) "
        f"p50={p50 * 1000:.1f}ms p95={p95 * 1000:.1f}ms twin_match={twin_match}"
    )

    # --- herd phase: identical requests share exactly one execution.
    herd = 16 if smoke else 32
    slow_plan = FaultPlan(
        seed=1,
        rules=(
            FaultRule(
                site="executor.task", kind="latency",
                rate=1.0, latency_seconds=0.25,
            ),
        ),
    )
    herd_service = CountingService(
        database_from_graph(graph), ServiceConfig(fault_plan=slow_plan)
    )
    herd_handle = start_in_thread(
        herd_service, ServeConfig(worker_threads=herd, max_pending=2 * herd)
    )
    herd_results = []
    herd_errors = []
    try:
        miss = herd_service.metrics.counter("service.requests", cache="miss")
        misses_before = miss.value
        barrier = threading.Barrier(herd)

        def herd_member() -> None:
            client = ServeClient(herd_handle.host, herd_handle.port, timeout=60.0)
            barrier.wait()
            try:
                result = client.count(
                    "Ans(x) :- E(x, y), E(y, z)", seed=21
                )
            except Exception as error:  # noqa: BLE001
                herd_errors.append(str(error))
                return
            herd_results.append((result.estimate, result.coalesced))

        members = [threading.Thread(target=herd_member) for _ in range(herd)]
        herd_started = time.perf_counter()
        for member in members:
            member.start()
        for member in members:
            member.join()
        herd_seconds = time.perf_counter() - herd_started
        executions = int(miss.value - misses_before)
    finally:
        herd_handle.stop()

    if herd_errors:
        failures += 1
        print(f"[record_perf] FAIL: serve herd: {herd_errors[:3]}")
    herd_estimates = {estimate for estimate, _ in herd_results}
    coalesced_responses = sum(1 for _, flag in herd_results if flag)
    herd_identical = len(herd_estimates) == 1 and len(herd_results) == herd
    if not herd_identical:
        failures += 1
        print(
            f"[record_perf] FAIL: serve herd: {len(herd_results)}/{herd} "
            f"responses, {len(herd_estimates)} distinct estimate(s)"
        )
    if executions != 1:
        failures += 1
        print(
            f"[record_perf] FAIL: serve herd executed the count "
            f"{executions} time(s), expected exactly 1"
        )
    coalescing_hit_rate = (
        (herd - executions) / (herd - 1) if herd > 1 else 0.0
    )
    print(
        f"[record_perf] serve herd: {herd} identical requests in "
        f"{herd_seconds:.2f}s, {executions} execution(s), "
        f"{coalesced_responses} coalesced response(s), "
        f"hit_rate={coalescing_hit_rate:.2f} identical={herd_identical}"
    )

    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": "smoke" if smoke else "full",
        "database": "erdos_renyi(15, 0.25) symmetric E",
        "num_requests": len(jobs),
        "client_threads": num_workers,
        "wall_seconds": round(wall_seconds, 4),
        "requests_per_second": round(qps, 2),
        "latency_p50_ms": round(p50 * 1000, 3),
        "latency_p95_ms": round(p95 * 1000, 3),
        "estimates_match_twin_service": twin_match and not errors,
        "herd_size": herd,
        "herd_seconds": round(herd_seconds, 4),
        "herd_executions": executions,
        "herd_coalesced_responses": coalesced_responses,
        "herd_estimates_identical": herd_identical,
        "coalescing_hit_rate": round(coalescing_hit_rate, 4),
        "note": (
            "closed-loop latency is the full wire round trip (serialize, "
            "HTTP, admission, dispatch, decode) for distinct-seed requests "
            "that each execute; coalescing_hit_rate comes from a "
            "barrier-released herd of identical requests against a "
            "latency-injected executor — (herd - executions) / (herd - 1), "
            "where executions is the service.requests miss-counter delta"
        ),
    }
    _append_record(out_path, record)
    print(
        f"[record_perf] appended record to {out_path} "
        f"(hit rate {coalescing_hit_rate:.2f}, p95 {p95 * 1000:.1f}ms)"
    )
    return (1 if failures else 0), {
        "coalescing_hit_rate": record["coalescing_hit_rate"]
    }


# ------------------------------------------------------------------ perf gate
def check_against(
    baseline_path: Path, observed: dict, tolerance_override: float = None
) -> int:
    """Compare observed suite metrics with committed baselines.

    The baselines file maps suite name -> {metric: baseline value} (plus an
    optional top-level ``tolerance``).  A metric regresses when ``observed <
    baseline / tolerance``; only suites that actually ran are checked, and a
    gated metric missing from a run that should carry it fails loudly.
    """
    payload = json.loads(Path(baseline_path).read_text())
    tolerance = float(payload.get("tolerance", 1.5))
    if tolerance_override is not None:
        tolerance = float(tolerance_override)
    if tolerance < 1.0:
        raise SystemExit("--check-tolerance must be >= 1.0")
    suites = payload.get("suites", {})
    failures = 0
    checked = 0
    for suite, metrics in sorted(suites.items()):
        if suite not in observed:
            continue
        for metric, baseline in sorted(metrics.items()):
            current = observed[suite].get(metric)
            checked += 1
            floor = baseline / tolerance
            if current is None:
                failures += 1
                print(
                    f"[perf-gate] FAIL {suite}.{metric}: metric missing from "
                    f"this run (baseline {baseline})"
                )
            elif current < floor:
                failures += 1
                print(
                    f"[perf-gate] FAIL {suite}.{metric}: {current} < "
                    f"{floor:.2f} (baseline {baseline} / tolerance {tolerance})"
                )
            else:
                print(
                    f"[perf-gate] ok   {suite}.{metric}: {current} >= "
                    f"{floor:.2f} (baseline {baseline} / tolerance {tolerance})"
                )
    if checked == 0:
        print("[perf-gate] no baselined suite ran; nothing to check")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="budgeted subset")
    parser.add_argument(
        "--suite",
        choices=[
            "engine", "service", "prepared", "stream", "shard", "resilience",
            "columnar", "planner", "serve", "all",
        ],
        default="all",
        help="which suite(s) to run (default: all)",
    )
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_engine.json",
        help="engine-suite output JSON file",
    )
    parser.add_argument(
        "--service-out", type=Path, default=REPO_ROOT / "BENCH_service.json",
        help="service-suite output JSON file",
    )
    parser.add_argument(
        "--prepared-out", type=Path, default=REPO_ROOT / "BENCH_prepared.json",
        help="prepared-suite output JSON file",
    )
    parser.add_argument(
        "--stream-out", type=Path, default=REPO_ROOT / "BENCH_stream.json",
        help="stream-suite output JSON file",
    )
    parser.add_argument(
        "--shard-out", type=Path, default=REPO_ROOT / "BENCH_shard.json",
        help="shard-suite output JSON file",
    )
    parser.add_argument(
        "--resilience-out", type=Path, default=REPO_ROOT / "BENCH_resilience.json",
        help="resilience-suite output JSON file",
    )
    parser.add_argument(
        "--columnar-out", type=Path, default=REPO_ROOT / "BENCH_columnar.json",
        help="columnar-suite output JSON file",
    )
    parser.add_argument(
        "--planner-out", type=Path, default=REPO_ROOT / "BENCH_planner.json",
        help="planner-suite output JSON file",
    )
    parser.add_argument(
        "--serve-out", type=Path, default=REPO_ROOT / "BENCH_serve.json",
        help="serve-suite output JSON file",
    )
    parser.add_argument(
        "--trajectory-out", type=Path, default=REPO_ROOT / "BENCH_trajectory.jsonl",
        help="cumulative one-line-per-suite trajectory log (JSON lines)",
    )
    parser.add_argument(
        "--timestamp", default=None, metavar="ISO8601",
        help="timestamp recorded in trajectory lines (default: now, UTC); "
        "CI passes the workflow-run timestamp so retries dedupe",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of timing repeats")
    parser.add_argument(
        "--budget-seconds", type=float, default=30.0, help="smoke-mode time budget"
    )
    parser.add_argument(
        "--check-against", type=Path, default=None, metavar="BASELINES_JSON",
        help="fail if any suite's headline metric regresses beyond the "
        "tolerance relative to the committed baselines (the CI perf gate)",
    )
    parser.add_argument(
        "--check-tolerance", type=float, default=None,
        help="override the baselines file's regression tolerance (default 1.5)",
    )
    args = parser.parse_args()
    status = 0
    observed = {}
    if args.suite in ("engine", "all"):
        suite_status, metrics = run_engine(
            args.smoke, args.out, max(1, args.repeats), args.budget_seconds
        )
        status |= suite_status
        observed["engine"] = metrics
    if args.suite in ("service", "all"):
        suite_status, metrics = run_service(args.smoke, args.service_out)
        status |= suite_status
        observed["service"] = metrics
    if args.suite in ("prepared", "all"):
        suite_status, metrics = run_prepared(args.smoke, args.prepared_out)
        status |= suite_status
        observed["prepared"] = metrics
    if args.suite in ("stream", "all"):
        suite_status, metrics = run_stream_suite(args.smoke, args.stream_out)
        status |= suite_status
        observed["stream"] = metrics
    if args.suite in ("shard", "all"):
        suite_status, metrics = run_shard_suite(args.smoke, args.shard_out)
        status |= suite_status
        observed["shard"] = metrics
    if args.suite in ("resilience", "all"):
        suite_status, metrics = run_resilience_suite(args.smoke, args.resilience_out)
        status |= suite_status
        observed["resilience"] = metrics
    if args.suite in ("columnar", "all"):
        suite_status, metrics = run_columnar(
            args.smoke, args.columnar_out, max(1, args.repeats)
        )
        status |= suite_status
        if metrics:
            observed["columnar"] = metrics
    if args.suite in ("planner", "all"):
        suite_status, metrics = run_planner(args.smoke, args.planner_out)
        status |= suite_status
        observed["planner"] = metrics
    if args.suite in ("serve", "all"):
        suite_status, metrics = run_serve_suite(args.smoke, args.serve_out)
        status |= suite_status
        observed["serve"] = metrics
    timestamp = args.timestamp or datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    _append_trajectory(
        args.trajectory_out, observed, timestamp, "smoke" if args.smoke else "full"
    )
    if args.check_against is not None:
        status |= check_against(args.check_against, observed, args.check_tolerance)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
