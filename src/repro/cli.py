"""Command-line interface: quick looks at the autonomous services.

Subcommands::

    repro stats       [--days N --seed S --workers W]  workload structure statistics
    repro cloudviews  [--days N --day D --workers W]   one day of computation reuse
    repro moneyball   [--tenants N]         pause/resume policy comparison
    repro seagull     [--servers N]         backup-window accuracy
    repro doppler     [--customers N]       SKU recommendation accuracy
    repro explain     [--seed S]            EXPLAIN a sample optimized plan
    repro algorithms  QUERY                 search the AlgorithmStore
    repro trace       [--jobs N --seed S]   traced workload->engine->service run
    repro fabric      [--days N --full --list --checkpoint P --resume P
                       --store DIR --inject-fault SPEC]  the control plane
    repro chaos       [--days N --kill-tick K --workers W
                       --inject-fault SPEC]  kill -9 mid-day, resume, compare
    repro serve       [--requests N --days D --warm-days W --resume P]
                      async query plane over the fleet

Every subcommand exits nonzero on failure, printing a one-line
``repro <command>: error: <reason>`` to stderr — scripts and CI can
gate on the exit code alone.

Every subcommand is deterministic given its seed and prints a compact
table, so the CLI doubles as a smoke test of the installation.  Every
subcommand also runs inside the shared observability runtime
(:mod:`repro.obs`): pass ``--trace`` to print the span tree and
per-layer metric rollup after the command's own output.  Analysis
subcommands accept ``--workers`` to fan the fleet-scale scans across
the persistent worker pool (:mod:`repro.parallel`); results are
identical for every worker count, and the pool is shut down before the
command exits.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.runtime import ObservabilityRuntime


def _cmd_stats(args: argparse.Namespace, obs: "ObservabilityRuntime") -> int:
    from repro.core.peregrine import WorkloadRepository, analyze
    from repro.workloads import ScopeWorkloadGenerator

    with obs.span("workload.generate", layer="workload", days=args.days):
        workload = ScopeWorkloadGenerator(rng=args.seed).generate(n_days=args.days)
    with obs.span("peregrine.analyze", layer="engine", workers=args.workers):
        stats = analyze(
            WorkloadRepository().ingest(workload), workers=args.workers
        )
    print(f"workload: {args.days} days, seed {args.seed}")
    for name, value in stats.summary_rows():
        print(f"  {name:26s} {value:10.3f}")
    return 0


def _cmd_cloudviews(args: argparse.Namespace, obs: "ObservabilityRuntime") -> int:
    from repro.core.cloudviews import CloudViews
    from repro.engine import (
        DefaultCardinalityEstimator,
        DefaultCostModel,
        TrueCardinalityModel,
    )
    from repro.workloads import ScopeWorkloadGenerator

    with obs.span("workload.generate", layer="workload", days=args.days):
        workload = ScopeWorkloadGenerator(rng=args.seed).generate(n_days=args.days)
    day = args.day if args.day is not None else args.days - 1
    jobs = [(j.job_id, j.plan) for j in workload.by_day(day)]
    if not jobs:
        print(f"no jobs on day {day} (workload has {args.days} days)")
        return 1
    est = DefaultCostModel(
        workload.catalog, DefaultCardinalityEstimator(workload.catalog)
    )
    truth = TrueCardinalityModel(workload.catalog, seed=args.seed)
    service = CloudViews(workload.catalog, est, obs=obs)
    report = service.run_day(
        jobs, truth, containment=args.containment, workers=args.workers
    )
    print(
        f"day {day}: {report.n_jobs} jobs, {report.n_views} views selected"
        f" (workers={args.workers})"
    )
    print(
        f"  latency improvement:  {report.latency_improvement:8.1%}"
        " (paper: 34%)"
    )
    print(
        f"  processing reduction: {report.processing_reduction:8.1%}"
        " (paper: 37%)"
    )
    return 0


def _cmd_moneyball(args: argparse.Namespace, obs: "ObservabilityRuntime") -> int:
    from repro.core.moneyball import MoneyballPolicy
    from repro.workloads import UsagePopulationConfig, generate_population

    with obs.span("workload.generate", layer="workload", tenants=args.tenants):
        tenants = generate_population(
            UsagePopulationConfig(n_tenants=args.tenants, n_days=42), rng=args.seed
        )
    service = MoneyballPolicy()
    service.bind(obs)
    for trace in tenants:
        service.observe(trace)
    report = service.report()
    obs.replay(report)
    print(
        f"predictable tenants: {report.predictable_fraction:.1%}"
        " (paper: 77%)"
    )
    for name, point in report.points.items():
        print(
            f"  {name:12s} cold-starts/active-hr={point.qos_penalty:.4f}"
            f"  billed/active-hr={point.cost:.3f}"
        )
    return 0


def _cmd_seagull(args: argparse.Namespace, obs: "ObservabilityRuntime") -> int:
    from repro.core.seagull import (
        PreviousDayPolicy,
        SeagullService,
    )
    from repro.workloads import UsagePopulationConfig, generate_population

    with obs.span("workload.generate", layer="workload", servers=args.servers):
        population = generate_population(
            UsagePopulationConfig(n_tenants=args.servers, n_days=42), rng=args.seed
        )
    servers = [t for t in population if t.is_predictable]
    days = range(29, 41)
    heuristic = SeagullService(policy=PreviousDayPolicy()).bind(obs)
    ml = SeagullService().bind(obs)
    for service in (heuristic, ml):
        for trace in servers:
            service.observe(trace)
        for trace in servers:
            for day in days:
                service.recommend(trace.tenant_id, day)
    heuristic_report = heuristic.report()
    ml_report = ml.report()
    obs.replay(ml_report)
    print(
        f"previous-day heuristic accuracy: {heuristic_report.accuracy:.1%}"
        " (paper: 96%)"
    )
    print(
        f"ML forecast accuracy:            {ml_report.accuracy:.1%}"
        " (paper: 99%)"
    )
    return 0


def _cmd_doppler(args: argparse.Namespace, obs: "ObservabilityRuntime") -> int:
    from repro.core.doppler import SkuRecommender, recommendation_accuracy
    from repro.workloads import generate_customers

    recommender = SkuRecommender(rng=args.seed).bind(obs)
    with obs.span("doppler.observe", layer="service"):
        recommender.observe(generate_customers(2 * args.customers, rng=args.seed))
    migrating = generate_customers(args.customers, rng=args.seed + 1)
    accuracy = recommendation_accuracy(recommender, migrating)
    exact = recommendation_accuracy(recommender, migrating, within_one_tier=False)
    obs.replay(recommender.report())
    print(f"SKU recommendation accuracy: {accuracy:.1%} within one tier "
          f"({exact:.1%} exact; paper: >95%)")
    return 0


def _cmd_explain(args: argparse.Namespace, obs: "ObservabilityRuntime") -> int:
    from repro.engine import Optimizer
    from repro.engine.serialize import explain
    from repro.workloads import ScopeWorkloadGenerator

    with obs.span("workload.generate", layer="workload"):
        workload = ScopeWorkloadGenerator(rng=args.seed).generate(n_days=1)
    job = next(j for j in workload.jobs if j.plan.size >= 5)
    optimizer = Optimizer(workload.catalog, obs=obs)
    print(f"job {job.job_id} (logical):")
    print(explain(job.plan))
    print("\noptimized:")
    print(explain(optimizer.optimize(job.plan).plan))
    return 0


def _cmd_algorithms(args: argparse.Namespace, obs: "ObservabilityRuntime") -> int:
    from repro.core.algorithmstore import default_store

    store = default_store()
    with obs.span("algorithmstore.search", layer="service"):
        results = store.search(" ".join(args.query))
    if not results:
        print("no matching algorithms")
        return 1
    for entry in results:
        print(f"{entry.name:26s} [{entry.category}] {entry.description}")
    return 0


def _trace_driver():
    """The end-to-end pipeline behind ``repro trace``, built lazily.

    One job per fabric tick: optimize -> execute -> steer.  Defined
    inside a factory so importing the CLI stays cheap.
    """
    from repro.fabric.pipeline import PipelineDriver, TickContext

    class _TraceDriver(PipelineDriver):
        name = "trace"
        layer = "engine"

        def __init__(
            self, jobs, optimizer, executor, est_cost, true_cost, steering
        ) -> None:
            self.jobs = list(jobs)
            self.optimizer = optimizer
            self.executor = executor
            self.est_cost = est_cost
            self.true_cost = true_cost
            self.steering = steering

        def services(self):
            return [self.steering]

        def bind_obs(self, obs) -> None:
            self.optimizer.bind(obs)
            self.executor.bind(obs)
            super().bind_obs(obs)

        def act(self, ctx: TickContext) -> None:
            from repro.engine import compile_stages

            if ctx.tick >= len(self.jobs):
                return
            job = self.jobs[ctx.tick]
            optimized = self.optimizer.optimize(job.plan).plan
            graph = compile_stages(
                optimized, self.est_cost, truth=self.true_cost
            )
            self.executor.run(graph)
            self.steering.observe(job.job_id, job.plan)

        def final_report(self) -> dict:
            report = self.steering.report()
            return {
                "jobs": len(self.jobs),
                "improvement": round(report.improvement, 10),
            }

    return _TraceDriver


def _cmd_trace(args: argparse.Namespace, obs: "ObservabilityRuntime") -> int:
    """One traced end-to-end scenario: workload -> engine -> service.

    Jobs arrive as fabric pipeline ticks on the DES event queue (infra
    layer); each tick optimizes the plan, executes the stage DAG on the
    simulated cluster (engine layer), and feeds the plan through the
    steering service (service layer).  Spans, fabric health events, and
    metrics land in one TelemetryStore.
    """
    from repro.core.steering import SteeringService
    from repro.engine import (
        ClusterExecutor,
        DefaultCardinalityEstimator,
        DefaultCostModel,
        Optimizer,
        TrueCardinalityModel,
    )
    from repro.fabric import ControlPlane
    from repro.fabric.fleet import TrueCostFn
    from repro.workloads import ScopeWorkloadGenerator

    with obs.span("workload.generate", layer="workload"):
        workload = ScopeWorkloadGenerator(rng=args.seed).generate(n_days=1)
    truth = TrueCardinalityModel(workload.catalog, seed=args.seed)
    est_cost = DefaultCostModel(
        workload.catalog, DefaultCardinalityEstimator(workload.catalog)
    )
    true_cost = DefaultCostModel(workload.catalog, truth)
    optimizer = Optimizer(workload.catalog)
    executor = ClusterExecutor(rng=args.seed)
    steering = SteeringService(optimizer, TrueCostFn(true_cost), rng=args.seed)

    jobs = workload.jobs[: args.jobs]
    driver = _trace_driver()(
        jobs, optimizer, executor, est_cost, true_cost, steering
    )
    plane = ControlPlane(obs=obs)
    plane.register(driver)
    plane.run_days(max(1, len(jobs)))
    obs.replay(steering.report())
    points = obs.flush()

    print(obs.render())
    print(
        f"\ntraced {len(jobs)} jobs on the fabric: "
        f"{len(obs.tracer.spans)} spans, "
        f"{len(obs.events)} events, {points} metric points exported"
    )
    return 0


def _cmd_fabric(args: argparse.Namespace, obs: "ObservabilityRuntime") -> int:
    """Run the whole fleet on the control plane (or resume a checkpoint)."""
    from repro.fabric import (
        CORE_FLEET,
        FULL_FLEET,
        CheckpointStore,
        ControlPlane,
        FaultInjector,
        FleetConfig,
        build_fleet,
    )
    from repro.fabric.faults import parse_fault_specs

    scratch_spill_dir = None
    if args.resume:
        plane = ControlPlane.restore(args.resume, obs=obs)
        if args.store:
            plane.attach_store(CheckpointStore(args.store))
        if args.chaos_kill_tick:
            from repro.fabric.chaos import make_kill_hook

            plane.tick_hook = make_kill_hook(args.chaos_kill_tick)
        if args.days < plane.day:
            raise ValueError(
                f"checkpoint already covers day {plane.day}"
                f" (target {args.days}); nothing to run"
            )
        # A frame written mid-run records the day its run ends at; the
        # ticks still due before it run first.
        plane.run_until(args.days)
    else:
        if args.services:
            include = tuple(args.services.split(","))
        else:
            include = FULL_FLEET if args.full else CORE_FLEET
        injector = FaultInjector(specs=parse_fault_specs(args.inject_fault))
        plane = ControlPlane(injector=injector, obs=obs)
        if args.store:
            plane.attach_store(CheckpointStore(args.store))
        if args.chaos_kill_tick:
            from repro.fabric.chaos import make_kill_hook

            plane.tick_hook = make_kill_hook(args.chaos_kill_tick)
        config = FleetConfig(
            seed=args.seed,
            days=args.days,
            jobs_per_day=args.jobs_per_day,
            workers=args.workers,
            include=include,
            repo_memory_budget_mb=args.memory_budget_mb,
            repo_spill_dir=args.spill_dir,
        )
        if config.repo_spill_dir is None and (
            args.store or args.memory_budget_mb
        ):
            # Somewhere for Peregrine's day files: colocate with the
            # store if one is attached (its checkpoints reference them),
            # else scratch for the budget to spill into.
            import tempfile
            from pathlib import Path

            if args.store:
                config.repo_spill_dir = str(
                    Path(args.store) / "peregrine-chunks"
                )
            else:
                config.repo_spill_dir = tempfile.mkdtemp(
                    prefix="repro-chunks-"
                )
                scratch_spill_dir = config.repo_spill_dir
        build_fleet(plane, config)
        if args.list:
            print(f"{'service':<12} {'layer':<8} {'cadence':>8}  stages")
            for binding in plane.bindings:
                stages = ", ".join(s for s, _ in binding.driver.stages())
                print(
                    f"{binding.name:<12} {binding.driver.layer:<8}"
                    f" {binding.cadence_days:>7.1f}d  {stages}"
                )
            return 0
        checkpoint_day = args.checkpoint_day
        if args.checkpoint and 0 < checkpoint_day < args.days:
            plane.run_days(checkpoint_day)
            plane.checkpoint(args.checkpoint)
            plane.run_days(args.days - checkpoint_day)
        else:
            plane.run_days(args.days)
            if args.checkpoint:
                plane.checkpoint(args.checkpoint)

    report = plane.final_report()
    if args.report_out:
        from pathlib import Path

        Path(args.report_out).write_bytes(plane.report_bytes())
    print(f"fabric: {report['days']} days, {len(plane.bindings)} services")
    for name, entry in report["services"].items():
        print(f"  {name:<12} ticks={entry['ticks']}")
    lifecycle = report["lifecycle"]
    print(
        f"lifecycle: {lifecycle['actions']}"
        f"  serving={lifecycle['serving']}"
    )
    print(plane.render_health())
    if plane.injector.fired:
        print(f"injected faults fired: {plane.injector.fired}")
    if plane.pool.generation:
        stats = plane.pool.stats()
        print(
            f"worker pool: {stats['dispatches']} dispatches over"
            f" {stats['generation']} pool start(s)"
            f" (spawn {stats['spawn_seconds']:.3f}s)"
        )
    import resource

    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak_mib:.0f} MiB")
    for binding in plane.bindings:
        repo = getattr(binding.driver, "repo", None)
        if repo is not None and hasattr(repo, "chunk_stats"):
            cs = repo.chunk_stats()
            print(
                f"repository: {cs['jobs']} jobs over {cs['days']} days,"
                f" {cs['hot_chunks']} hot / {cs['spilled_chunks']} spilled"
                f" chunks, ~{cs['hot_bytes'] / 2**20:.1f} MiB hot"
                f" ({cs['spills']} spills, {cs['loads']} loads)"
            )
    plane.close()
    if scratch_spill_dir is not None:
        import shutil

        shutil.rmtree(scratch_spill_dir, ignore_errors=True)
    return 0


def _cmd_chaos(args: argparse.Namespace, obs: "ObservabilityRuntime") -> int:
    """Kill-and-resume experiment: prove crash recovery is byte-exact."""
    from repro.fabric.chaos import run_chaos

    with obs.span("fabric.chaos", layer="fabric", kill_tick=args.kill_tick):
        result = run_chaos(
            days=args.days,
            kill_tick=args.kill_tick,
            services=tuple(args.services.split(",")) if args.services else None,
            workers=args.workers,
            faults=args.inject_fault,
            seed=args.seed,
            workdir=args.workdir or None,
        )
    print(result.summary())
    print(f"store: {result.store_path}")
    return 0 if result.identical else 1


def _cmd_serve(args: argparse.Namespace, obs: "ObservabilityRuntime") -> int:
    """Serve the fleet: async endpoints over a live or restored fabric."""
    import asyncio

    from repro.fabric import ControlPlane, FleetConfig, build_fleet
    from repro.serve import QueryPlane, TrafficGenerator

    if args.requests < 1:
        raise ValueError("--requests must be >= 1")
    if args.resume:
        fabric = ControlPlane.restore(args.resume, obs=obs)
    else:
        fabric = ControlPlane(obs=obs)
        horizon = max(1, args.warm_days + args.days)
        build_fleet(
            fabric, FleetConfig(seed=args.seed, days=horizon)
        )
        if args.warm_days:
            with obs.span("serve.warmup", layer="serve", days=args.warm_days):
                fabric.run_days(args.warm_days)
    plane = QueryPlane(
        fabric,
        obs=obs,
        rate_per_tenant=args.rate,
        max_queue_depth=args.max_queue_depth,
        max_batch=args.max_batch,
    )
    generator = TrafficGenerator(fabric, seed=args.seed)

    async def _serve() -> None:
        ticker = None
        if args.days:
            ticker = asyncio.ensure_future(
                plane.tick_background(args.days, pause=0.001)
            )
        sent = 0
        while sent < args.requests:
            burst = generator.stream(
                min(args.concurrency, args.requests - sent)
            )
            await asyncio.gather(
                *(plane.handle(endpoint, request) for endpoint, request in burst)
            )
            sent += len(burst)
        if ticker is not None:
            await ticker
        plane.drain()

    with obs.span("serve.loop", layer="serve", requests=args.requests):
        asyncio.run(_serve())
    stats = plane.stats()
    print(
        f"served {stats['requests']} requests over"
        f" {len(generator.endpoints())} endpoints"
        f" ({stats['ticked_days']} background days ticked)"
    )
    print("  by status: " + ", ".join(
        f"{status}={count}" for status, count in stats["by_status"].items()
    ))
    latency = stats["latency"]
    print(
        f"  latency p50={latency['p50'] * 1e3:.2f}ms"
        f" p99={latency['p99'] * 1e3:.2f}ms"
    )
    cache = stats["cache"]
    print(
        f"  cache: {cache['hits']} hits / {cache['misses']} misses"
        f" (hit rate {cache['hit_rate']:.1%},"
        f" {cache['invalidations']} invalidated)"
    )
    admission = stats["admission"]
    print(
        f"  admission: {admission['admitted']} admitted,"
        f" {admission['throttled']} throttled, {admission['shed']} shed,"
        f" {admission['expired']} expired"
    )
    batching = stats["batching"]
    print(
        f"  batching: {batching['coalesced']} coalesced into"
        f" {batching['batches']} batches"
        f" (largest {batching['largest_batch']})"
    )
    sessions = stats["sessions"]
    print(
        f"  sessions: {sessions['active']} active across"
        f" {len(sessions['tenants'])} tenants"
    )
    if args.stats_out:
        import json
        from pathlib import Path

        Path(args.stats_out).write_text(
            json.dumps(stats, indent=2, sort_keys=True) + "\n"
        )
    fabric.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Autonomous data services reproduction — quick looks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trace",
        action="store_true",
        help="print the span tree and per-layer rollup after the command",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser(
        "stats", help="workload structure statistics", parents=[common]
    )
    stats.add_argument("--days", type=int, default=7)
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width for the per-day sharing analysis",
    )
    stats.set_defaults(func=_cmd_stats)

    cloudviews = sub.add_parser(
        "cloudviews",
        help="one day of CloudViews computation reuse",
        parents=[common],
    )
    cloudviews.add_argument("--days", type=int, default=3)
    cloudviews.add_argument(
        "--day", type=int, default=None,
        help="which day to evaluate (default: the last generated day)",
    )
    cloudviews.add_argument("--seed", type=int, default=0)
    cloudviews.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width for candidate enumeration",
    )
    cloudviews.add_argument(
        "--containment", action="store_true",
        help="widen the candidate pool with drifted-bound families",
    )
    cloudviews.set_defaults(func=_cmd_cloudviews)

    moneyball = sub.add_parser(
        "moneyball", help="pause/resume comparison", parents=[common]
    )
    moneyball.add_argument("--tenants", type=int, default=60)
    moneyball.add_argument("--seed", type=int, default=0)
    moneyball.set_defaults(func=_cmd_moneyball)

    seagull = sub.add_parser(
        "seagull", help="backup-window accuracy", parents=[common]
    )
    seagull.add_argument("--servers", type=int, default=40)
    seagull.add_argument("--seed", type=int, default=0)
    seagull.set_defaults(func=_cmd_seagull)

    doppler = sub.add_parser(
        "doppler", help="SKU recommendation accuracy", parents=[common]
    )
    doppler.add_argument("--customers", type=int, default=150)
    doppler.add_argument("--seed", type=int, default=0)
    doppler.set_defaults(func=_cmd_doppler)

    explain = sub.add_parser(
        "explain", help="EXPLAIN a sample plan", parents=[common]
    )
    explain.add_argument("--seed", type=int, default=0)
    explain.set_defaults(func=_cmd_explain)

    algorithms = sub.add_parser(
        "algorithms", help="search the AlgorithmStore", parents=[common]
    )
    algorithms.add_argument("query", nargs="+")
    algorithms.set_defaults(func=_cmd_algorithms)

    trace = sub.add_parser(
        "trace",
        help="traced end-to-end run (workload -> engine -> service)",
        parents=[common],
    )
    trace.add_argument("--jobs", type=int, default=6)
    trace.add_argument("--seed", type=int, default=0)
    trace.set_defaults(func=_cmd_trace)

    fabric = sub.add_parser(
        "fabric",
        help="run every service on the control plane",
        parents=[common],
    )
    fabric.add_argument("--days", type=int, default=7)
    fabric.add_argument("--seed", type=int, default=0)
    fabric.add_argument(
        "--jobs-per-day", type=int, default=8,
        help="SCOPE jobs per day (the world is sized to match)",
    )
    fabric.add_argument(
        "--memory-budget-mb", type=int, default=None,
        help="repository chunk-cache budget; cold days spill past it",
    )
    fabric.add_argument(
        "--spill-dir", default=None,
        help="directory for Peregrine day files (default with --store or"
        " --memory-budget-mb: under the store, else scratch)",
    )
    fabric.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width for fleet-scale analyses",
    )
    fabric.add_argument(
        "--full", action="store_true",
        help="include the heavier infra/engine tuners (kea, autotune, joint)",
    )
    fabric.add_argument(
        "--services", default="",
        help="comma-separated service subset (overrides --full)",
    )
    fabric.add_argument(
        "--list", action="store_true",
        help="list the registered pipelines and exit without running",
    )
    fabric.add_argument(
        "--checkpoint", default="",
        help="snapshot fabric state to this path (see --checkpoint-day)",
    )
    fabric.add_argument(
        "--checkpoint-day", type=int, default=0,
        help="snapshot mid-run after this day, then continue (default: at the end)",
    )
    fabric.add_argument(
        "--resume", default="",
        help="restore from a checkpoint and run up to --days total",
    )
    fabric.add_argument(
        "--inject-fault", action="append", default=[],
        metavar="SERVICE:STAGE[:DAY[:TIMES]]",
        help="plant a deterministic stage fault (repeatable; day '*' = any)",
    )
    fabric.add_argument(
        "--store", default="",
        help="durable checkpoint store: persist a delta frame after every tick",
    )
    fabric.add_argument(
        "--chaos-kill-tick", type=int, default=0,
        help="SIGKILL this process after N completed ticks (chaos testing)",
    )
    fabric.add_argument(
        "--report-out", default="",
        help="write the canonical final-report bytes to this file",
    )
    fabric.set_defaults(func=_cmd_fabric)

    chaos = sub.add_parser(
        "chaos",
        help="kill -9 a fabric mid-day, resume it, verify byte-identity",
        parents=[common],
    )
    chaos.add_argument("--days", type=int, default=5)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--kill-tick", type=int, default=12,
        help="completed-tick count (across all services) to SIGKILL at",
    )
    chaos.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width inside the baseline/victim/resumed runs",
    )
    chaos.add_argument(
        "--services", default="",
        help="comma-separated service subset (default: the core fleet)",
    )
    chaos.add_argument(
        "--inject-fault", action="append", default=[],
        metavar="SERVICE:STAGE[:DAY[:TIMES]]",
        help="plant a deterministic stage fault in all three runs",
    )
    chaos.add_argument(
        "--workdir", default="",
        help="where to keep the store and reports (default: a temp dir)",
    )
    chaos.set_defaults(func=_cmd_chaos)

    serve = sub.add_parser(
        "serve",
        help="async query plane over the fleet (sessions, cache, batching)",
        parents=[common],
    )
    serve.add_argument(
        "--requests", type=int, default=400,
        help="total requests to serve from the seeded traffic stream",
    )
    serve.add_argument(
        "--days", type=int, default=2,
        help="fabric days to tick in the background while serving",
    )
    serve.add_argument(
        "--warm-days", type=int, default=2,
        help="fabric days to run before the plane starts serving",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--concurrency", type=int, default=32,
        help="in-flight requests per burst",
    )
    serve.add_argument(
        "--rate", type=float, default=500.0,
        help="per-tenant admission rate (requests/second)",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=64,
        help="queued+in-flight requests before load shedding kicks in",
    )
    serve.add_argument(
        "--max-batch", type=int, default=16,
        help="micro-batch size cap for coalesced recommend calls",
    )
    serve.add_argument(
        "--resume", default="",
        help="serve from a checkpoint-restored fabric instead of a fresh one",
    )
    serve.add_argument(
        "--stats-out", default="",
        help="write the full serve stats rollup to this JSON file",
    )
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.obs import ObservabilityRuntime
    from repro.parallel import shutdown_pool

    parser = build_parser()
    args = parser.parse_args(argv)
    obs = ObservabilityRuntime()
    try:
        with obs.span(f"cli.{args.command}", layer="cli"):
            code = args.func(args, obs)
    except Exception as exc:  # noqa: BLE001 — CLI boundary: one line, exit 1
        message = str(exc) or type(exc).__name__
        print(f"repro {args.command}: error: {message}", file=sys.stderr)
        code = 1
    finally:
        # Commands that fanned out leave the warm pool behind; stop the
        # workers before the process lingers (atexit is the backstop).
        shutdown_pool()
    obs.flush()
    if getattr(args, "trace", False) and args.command != "trace":
        print()
        print(obs.render())
    return code


if __name__ == "__main__":
    sys.exit(main())
