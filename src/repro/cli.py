"""Command-line interface: regenerate any paper artefact from the shell.

Usage::

    python -m repro list                 # available experiments
    python -m repro table5               # Table V (cycle-accurate RT sims)
    python -m repro table7               # Table VII grid (behavioural)
    python -m repro fig13                # one hardware convergence figure
    python -m repro speedup              # Sec. IV-C comparison
    python -m repro run --fitness mBF6_2 --pop 64 --gens 64 --seed 0x061F
    python -m repro serve --port 7117   # GA-as-a-service TCP front end
    python -m repro submit --port 7117 --fitness mShubert2D --seed 0x2961

The heavy sweeps print progress to stderr; all artefact output goes to
stdout as aligned text tables or ASCII plots, the same renderings the
benchmark harnesses produce.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager


def _print_table(title: str, rows: list[dict], keys=None) -> None:
    if not rows:
        print(f"== {title} == (no rows)")
        return
    keys = keys or list(rows[0].keys())
    widths = {k: max(len(str(k)), *(len(str(r.get(k, ""))) for r in rows)) for k in keys}
    print(f"== {title} ==")
    print(" | ".join(str(k).ljust(widths[k]) for k in keys))
    for r in rows:
        print(" | ".join(str(r.get(k, "")).ljust(widths[k]) for k in keys))


def cmd_table1(_args) -> None:
    from repro.experiments.table1 import run_table1

    report = run_table1()
    keys = ["work", "elitist", "pop_size", "selection", "rng", "best_fitness@budget"]
    _print_table(f"Table I (budget {report['budget']} evals)", report["rows"], keys)


def cmd_table5(_args) -> None:
    from repro.experiments.table5 import run_table5

    report = run_table5(cycle_accurate=True)
    _print_table("Table V (cycle-accurate RT simulation)", report["rows"])


def cmd_table6(_args) -> None:
    from repro.experiments.table6 import run_table6

    report = run_table6()
    _print_table(f"Table VI ({report['device']})", report["rows"])
    _print_table("Per-block breakdown", report["block_breakdown"])


def _fpga_table(function_name: str) -> None:
    from repro.experiments.table789 import run_fpga_table

    report = run_fpga_table(function_name)
    _print_table(f"{report['id']} ({function_name}, optimum {report['optimum']})",
                 report["rows"])
    print(f"best overall: {report['best_overall']}, gap {report['gap_pct']}%")


def cmd_table7(_args) -> None:
    _fpga_table("mBF6_2")


def cmd_table8(_args) -> None:
    _fpga_table("mBF7_2")


def cmd_table9(_args) -> None:
    _fpga_table("mShubert2D")


def cmd_fig7(_args) -> None:
    from repro.analysis.plots import ascii_plot
    from repro.experiments.figures import run_fig7

    report = run_fig7()
    print(ascii_plot(report["x"], report["y"], label="Fig. 7: BF6(x) on [0,300]"))


def cmd_figs8_12(_args) -> None:
    from repro.analysis.plots import ascii_plot
    from repro.experiments.figures import run_rt_convergence_figures

    report = run_rt_convergence_figures()
    for fig_id, fig in report["figures"].items():
        xs = [g for g, _ in fig["scatter"]]
        ys = [f for _, f in fig["scatter"]]
        print(ascii_plot(xs, ys, label=f"{fig_id} ({fig['function']})"))


def cmd_figs13_16(_args) -> None:
    from repro.analysis.plots import ascii_plot
    from repro.experiments.figures import run_hw_convergence_figures

    print("running 4 cycle-accurate pop-64 runs; ~20 s", file=sys.stderr)
    report = run_hw_convergence_figures(cycle_accurate=True)
    for fig_id, fig in report["figures"].items():
        xs = fig["generations"] * 2
        ys = fig["best"] + [int(a) for a in fig["average"]]
        print(ascii_plot(xs, ys, label=(
            f"{fig_id} ({fig['function']}, seed {fig['seed']}): best "
            f"{fig['best_fitness']} at gen {fig['found_generation']}"
        )))


def cmd_speedup(_args) -> None:
    from repro.experiments.speedup import run_speedup

    print("running 6 modelled + 6 cycle-accurate runs; ~25 s", file=sys.stderr)
    report = run_speedup()
    _print_table("Sec. IV-C runtime comparison", report["rows"])


def _run_params(args):
    from repro import GAParameters

    return GAParameters(
        n_generations=args.gens,
        population_size=args.pop,
        crossover_threshold=args.xover,
        mutation_threshold=args.mut,
        rng_seed=int(args.seed, 0),
    )


@contextmanager
def _request_errors():
    """Around building a ``GARequest`` only: an illegal request is the
    user's error, so it prints one ``error:`` line and exits with status 2
    (argparse's usage status).  A ``ValueError`` raised later, inside a
    run, stays a traceback."""
    try:
        yield
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _run_cached(args, request) -> None:
    """``repro run --store-dir``: serve from / populate the run store."""
    from repro import fitness_by_name
    from repro.store import RunStore, run_cached

    store = RunStore(args.store_dir)
    result, hit, key = run_cached(store, request, use_cache=not args.no_cache)
    fn = fitness_by_name(args.fitness)
    source = "cache hit" if hit else "computed cold"
    print(
        f"{fn.name}: best {result.best_fitness} at {result.best_individual}"
        f" (optimum {int(fn.table().max())}), {source}, key {key[:16]}..."
    )


def cmd_run(args) -> None:
    from repro import BehavioralGA, GASystem, fitness_by_name
    from repro.analysis.convergence import convergence_generation
    from repro.obs import Tracer
    from repro.service.jobs import GARequest

    # the request is the one legality check, whichever engine runs it
    with _request_errors():
        request = GARequest(
            params=_run_params(args),
            fitness_name=args.fitness,
            n_islands=args.islands,
            migration_interval=args.migration_interval,
            topology=args.topology,
            substrate="cycle" if args.cycle_accurate else "behavioral",
        )
    if getattr(args, "store_dir", ""):
        if getattr(args, "trace_out", ""):
            raise SystemExit(
                "--store-dir replays stored results, which have no trace; "
                "drop --trace-out for cached runs"
            )
        _run_cached(args, request)
        return
    params = request.params
    fn = fitness_by_name(args.fitness)
    tracer = None
    if getattr(args, "trace_out", ""):
        tracer = Tracer(args.trace_out, keep_records=False)
    try:
        if args.islands > 1:
            from repro.parallel import VectorIslandGA

            result = VectorIslandGA(
                params, fn,
                n_islands=args.islands,
                migration_interval=args.migration_interval,
                topology=args.topology,
                tracer=tracer,
            ).run()
            print(
                f"{fn.name}: best {result.best_fitness} at "
                f"{result.best_individual} (optimum {int(fn.table().max())}), "
                f"{args.islands} islands/{args.topology}, "
                f"{result.migrations} migrations, "
                f"{result.evaluations} evaluations"
            )
            return
        if args.cycle_accurate:
            result = GASystem(params, fn, tracer=tracer).run()
            extra = f", {result.cycles} GA cycles"
        else:
            result = BehavioralGA(params, fn, tracer=tracer).run()
            extra = ""
    finally:
        if tracer is not None:
            tracer.close()
            print(f"trace written to {args.trace_out}", file=sys.stderr)
    print(
        f"{fn.name}: best {result.best_fitness} at {result.best_individual}"
        f" (optimum {int(fn.table().max())}), "
        f"converged gen {convergence_generation(result.history)}{extra}"
    )


def cmd_trace(args) -> None:
    """A fully traced run: JSON-lines trace out, summary to stderr."""
    from repro import BehavioralGA, GASystem, fitness_by_name
    from repro.obs import (
        SamplingProfiler,
        Tracer,
        best_series,
        cycle_best_series,
        cycle_phase_breakdown,
        phase_breakdown,
    )

    params = _run_params(args)
    fn = fitness_by_name(args.fitness)
    sink = sys.stdout if args.out == "-" else args.out
    profiler = SamplingProfiler() if args.profile else None
    with Tracer(sink) as tracer:
        if profiler is not None:
            profiler.start()
        try:
            if args.cycle_accurate:
                result = GASystem(params, fn, tracer=tracer).run()
            else:
                result = BehavioralGA(params, fn, tracer=tracer).run()
        finally:
            if profiler is not None:
                profiler.stop()
        records = tracer.records

    best = cycle_best_series(records) if args.cycle_accurate else best_series(records)
    print(
        f"{fn.name}: best {result.best_fitness} at {result.best_individual}; "
        f"{len(records)} trace records"
        + (f" -> {args.out}" if args.out != "-" else ""),
        file=sys.stderr,
    )
    print(f"best-fitness series: {best[0]} -> {best[-1]}", file=sys.stderr)
    if args.cycle_accurate:
        breakdown = cycle_phase_breakdown(records)
        total = sum(breakdown.values()) or 1
        unit = "cycles"
    else:
        breakdown = phase_breakdown(records)
        total = sum(breakdown.values()) or 1.0
        unit = "s"
    for phase, amount in sorted(breakdown.items(), key=lambda kv: -kv[1]):
        print(
            f"  {phase:<10} {amount:>12.6f} {unit} ({amount / total:6.1%})"
            if unit == "s"
            else f"  {phase:<10} {amount:>12d} {unit} ({amount / total:6.1%})",
            file=sys.stderr,
        )
    if profiler is not None:
        print(f"profiler: {profiler.samples} samples", file=sys.stderr)
        for row in profiler.top(5):
            print(
                f"  {row['share']:6.1%} {row['function']} "
                f"({row['file']}:{row['line']})",
                file=sys.stderr,
            )


def cmd_stats(args) -> None:
    """Metrics snapshot: from a running server, or a local demo run."""
    import json

    from repro.obs import engine_rates, get_registry

    if args.port:
        from repro.service.server import call

        response = call(args.host, args.port, {"op": "metrics"})
        print(json.dumps(response.get("metrics", response), indent=2, sort_keys=True))
        return

    from repro import BehavioralGA, fitness_by_name

    print(
        f"no --port given: running a local {args.fitness} demo "
        f"(pop {args.pop}, {args.gens} gens)",
        file=sys.stderr,
    )
    BehavioralGA(_run_params(args), fitness_by_name(args.fitness)).run()
    snapshot = get_registry().snapshot()
    snapshot["engine_rates"] = engine_rates()
    print(json.dumps(snapshot, indent=2, sort_keys=True))


def cmd_campaign(args) -> None:
    import json

    from repro import GAParameters, fitness_by_name
    from repro.resilience import ResilienceCampaign, report_rows

    params = GAParameters(
        n_generations=args.gens,
        population_size=args.pop,
        crossover_threshold=args.xover,
        mutation_threshold=args.mut,
        rng_seed=int(args.seed, 0),
    )
    fn = fitness_by_name(args.fitness)
    rates = [float(r) for r in args.rates.split(",")]
    configs = [c.strip() for c in args.configs.split(",")]
    campaign = ResilienceCampaign(
        params=params,
        fitness=fn,
        rates=rates,
        configs=configs,
        n_replicas=args.replicas,
        seed=args.campaign_seed,
    )
    cells = len(rates) * len(configs)
    print(
        f"running {cells} campaign cell(s) x {args.replicas} replicas "
        f"({fn.name}, pop {args.pop}, {args.gens} gens)",
        file=sys.stderr,
    )
    report = campaign.run()
    _print_table(
        f"SEU campaign (baseline best {report['baseline_best']}, "
        f"seed {report['seed']})",
        report_rows(report),
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"report written to {args.json}", file=sys.stderr)


def cmd_serve(args) -> None:
    import os
    import signal
    import threading

    from repro.service import BatchPolicy, GAService, serve

    policy = BatchPolicy(
        max_batch=args.max_batch,
        admit_interval=args.admit_interval,
        max_pending=args.max_pending,
        chunk_timeout_s=args.chunk_timeout_s or None,
        shed_queue_depth=args.shed_queue_depth or None,
    )
    if args.resume and not (args.spill_dir or args.store_dir):
        raise SystemExit("--resume requires --spill-dir or --store-dir")
    service = GAService(
        workers=args.workers,
        mode=args.mode,
        policy=policy,
        spill_dir=args.spill_dir or None,
        resume=args.resume,
        store_dir=args.store_dir or None,
        cache=not args.no_cache,
    ).start()
    if service.resumed_handles:
        print(
            f"resumed {len(service.resumed_handles)} spilled job(s) "
            f"from {args.spill_dir or args.store_dir}",
            file=sys.stderr,
        )

        def report_resumed() -> None:
            for handle in service.resumed_handles:
                try:
                    result = handle.result()
                    print(
                        f"resumed job {result.job_id} completed: best "
                        f"{result.best_fitness} at {result.best_individual}",
                        file=sys.stderr,
                    )
                except Exception as exc:
                    print(f"resumed job failed: {exc}", file=sys.stderr)

        threading.Thread(target=report_resumed, daemon=True).start()

    def ready(host: str, port: int) -> None:
        print(f"serving on {host}:{port}", flush=True)
        print(
            f"workers={args.workers} mode={args.mode} "
            f"max_batch={policy.max_batch} admit_interval={policy.admit_interval}",
            file=sys.stderr,
        )

    serving_pid = os.getpid()

    def drain_on_sigterm(signum, _frame) -> None:
        # SIGTERM takes SIGINT's path: serve() returns and the finally
        # below drains the service and joins the pool workers; forked
        # workers inherit this handler and must still die on SIGTERM
        if os.getpid() != serving_pid:
            os._exit(128 + signum)
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, drain_on_sigterm)
    try:
        serve(
            service,
            host=args.host,
            port=args.port,
            max_jobs=args.max_jobs or None,
            ready_callback=ready,
        )
    finally:
        service.shutdown()
        print(service.metrics.to_json(), file=sys.stderr)


def cmd_submit(args) -> None:
    import json

    from repro import GAParameters
    from repro.service import GARequest, RetryPolicy, submit_remote

    with _request_errors():
        request = GARequest(
            params=GAParameters(
                n_generations=args.gens,
                population_size=args.pop,
                crossover_threshold=args.xover,
                mutation_threshold=args.mut,
                rng_seed=int(args.seed, 0),
            ),
            fitness_name=args.fitness,
            priority=args.priority,
            deadline_s=args.deadline_ms / 1e3 if args.deadline_ms else None,
            protection=args.protection or None,
            upset_rate=args.upset_rate,
            n_islands=getattr(args, "islands", 1),
            migration_interval=getattr(args, "migration_interval", 8),
            topology=getattr(args, "topology", "ring"),
            retry=RetryPolicy(
                max_attempts=args.retries,
                backoff_s=args.retry_backoff_ms / 1e3,
                max_backoff_s=max(2.0, args.retry_backoff_ms / 1e3),
            ),
            deadline_mode=args.deadline_mode,
            use_cache=not args.no_cache,
        )
    result = submit_remote(args.host, args.port, request, timeout=args.timeout_s)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        island_note = (
            f", {result.island_stats['islands']} islands/"
            f"{result.island_stats['topology']}"
            if result.island_stats
            else ""
        )
        print(
            f"job {result.job_id}: {result.fitness_name} best "
            f"{result.best_fitness} at {result.best_individual} "
            f"({result.evaluations} evaluations, "
            f"{result.latency_s * 1e3:.1f} ms latency, "
            f"{result.n_chunks} chunk(s){island_note}"
            f"{', DEADLINE MISSED' if result.deadline_missed else ''}"
            f"{', from cache' if result.cache_hit else ''})"
        )


def cmd_replay(args) -> None:
    """Re-execute one stored run and assert bit-identity."""
    from repro.store import RunStore, replay

    store = RunStore(args.store_dir)
    try:
        report = replay(store, args.key)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]) if exc.args else str(exc))
    print(
        f"key {report.key[:16]}...: {report.verdict} "
        f"(stored best {report.stored_best}, replayed best "
        f"{report.replayed_best}, {report.compute_s * 1e3:.1f} ms recompute)"
    )
    if not report.identical:
        print(f"mismatched fields: {', '.join(report.mismatched_fields)}")
        raise SystemExit(1)


def cmd_store(args) -> None:
    """Run-store maintenance: ``repro store ls | verify | gc``."""
    from repro.store import RunStore

    store = RunStore(args.store_dir)
    if args.action == "ls":
        rows = []
        for entry in store.entries():
            prov = entry.provenance
            rows.append({
                "key": entry.key[:16],
                "fitness": entry.request.fitness_name,
                "pop": entry.request.params.population_size,
                "gens": entry.request.params.n_generations,
                "seed": hex(entry.request.params.rng_seed),
                "best": entry.result.best_fitness,
                "source": prov.get("source", "?"),
            })
        _print_table(f"run store {store.root} ({len(rows)} entries)", rows)
        return
    if args.action == "verify":
        rows = store.verify()
        bad = [row for row in rows if not row["ok"]]
        for row in bad:
            print(f"BAD {row['key'][:16]}...: {row['reason']}")
        print(f"{len(rows) - len(bad)}/{len(rows)} entries ok")
        if bad:
            raise SystemExit(1)
        return
    if args.action == "gc":
        removed = store.gc(all_spills=args.all_spills)
        print(
            f"gc: removed {removed['tmp']} temp file(s), "
            f"{removed['corrupt']} corrupt entr(ies), "
            f"{removed['spills']} orphaned spill(s)"
        )
        return
    raise SystemExit(f"unknown store action {args.action!r}")


def cmd_experiment(args) -> None:
    """The experiment harness: ``repro experiment run | ls | report``."""
    from repro.experiments.harness import load_summary
    from repro.experiments.report import experiment_summary_md
    from repro.experiments.zoo import ZOO, experiment

    if args.action == "ls":
        rows = []
        for name in sorted(ZOO):
            exp = ZOO[name]
            rows.append(
                {
                    "experiment": name,
                    "scenarios": len(exp.scenarios),
                    "repeats": exp.nb_repeats,
                    "description": exp.description,
                }
            )
        _print_table("workload zoo", rows)
        return
    if args.action == "run":
        if not args.name:
            raise SystemExit("experiment run requires --name (see: experiment ls)")
        try:
            exp = experiment(args.name, nb_repeats=args.repeats or None)
        except KeyError as exc:
            raise SystemExit(str(exc.args[0]))
        total = len(exp.scenarios) * exp.nb_repeats
        print(
            f"running experiment {exp.name!r}: {len(exp.scenarios)} "
            f"scenario(s) x {exp.nb_repeats} repeat(s) = {total} job(s)",
            file=sys.stderr,
        )
        result = exp.run(
            args.out_dir,
            workers=args.workers,
            mode=args.mode,
            store_dir=args.store_dir or None,
        )
        hits = sum(1 for row in result.rows if row["cache_hit"])
        print(result.out_dir / "summary.md")
        print(
            f"{total} job(s) in {result.wall_s:.2f}s "
            f"({hits} served from cache); results in {result.out_dir}",
            file=sys.stderr,
        )
        return
    if args.action == "report":
        if not args.name:
            raise SystemExit("experiment report requires --name")
        try:
            summary = load_summary(args.out_dir, args.name)
        except FileNotFoundError:
            raise SystemExit(
                f"no summary for experiment {args.name!r} under "
                f"{args.out_dir} — run it first"
            )
        print(experiment_summary_md(summary))
        return
    raise SystemExit(f"unknown experiment action {args.action!r}")


def cmd_list(_args) -> None:
    for name in sorted(COMMANDS):
        print(name)


COMMANDS = {
    "table1": cmd_table1,
    "table5": cmd_table5,
    "table6": cmd_table6,
    "table7": cmd_table7,
    "table8": cmd_table8,
    "table9": cmd_table9,
    "fig7": cmd_fig7,
    "figs8-12": cmd_figs8_12,
    "figs13-16": cmd_figs13_16,
    "speedup": cmd_speedup,
    "run": cmd_run,
    "trace": cmd_trace,
    "stats": cmd_stats,
    "campaign": cmd_campaign,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "replay": cmd_replay,
    "store": cmd_store,
    "experiment": cmd_experiment,
    "list": cmd_list,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate the paper's tables and figures."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "run":
            p.add_argument("--fitness", default="mBF6_2")
            p.add_argument("--pop", type=int, default=64)
            p.add_argument("--gens", type=int, default=64)
            p.add_argument("--xover", type=int, default=10)
            p.add_argument("--mut", type=int, default=1)
            p.add_argument("--seed", default="0x061F")
            p.add_argument("--cycle-accurate", action="store_true")
            p.add_argument("--islands", type=int, default=1,
                           help="archipelago size; >1 runs the vectorized "
                                "island model (one batched slab)")
            p.add_argument("--migration-interval", type=int, default=8)
            p.add_argument("--topology", default="ring",
                           help="ring | torus | random[:k]")
            p.add_argument("--trace-out", default="",
                           help="also write a JSON-lines trace to this path")
            p.add_argument("--store-dir", default="",
                           help="content-addressed run store: serve this "
                                "run from cache when stored, else compute "
                                "and write back")
            p.add_argument("--no-cache", action="store_true",
                           help="with --store-dir: skip the cache read, "
                                "recompute, still write back")
        elif name == "trace":
            p.add_argument("--fitness", default="mBF6_2")
            p.add_argument("--pop", type=int, default=64)
            p.add_argument("--gens", type=int, default=64)
            p.add_argument("--xover", type=int, default=10)
            p.add_argument("--mut", type=int, default=1)
            p.add_argument("--seed", default="0x061F")
            p.add_argument("--cycle-accurate", action="store_true")
            p.add_argument("--out", default="trace.jsonl",
                           help="JSON-lines trace destination ('-' for stdout)")
            p.add_argument("--profile", action="store_true",
                           help="also run the sampling wall-clock profiler")
        elif name == "stats":
            p.add_argument("--host", default="127.0.0.1")
            p.add_argument("--port", type=int, default=0,
                           help="fetch metrics from a running repro serve")
            p.add_argument("--fitness", default="mBF6_2")
            p.add_argument("--pop", type=int, default=64)
            p.add_argument("--gens", type=int, default=64)
            p.add_argument("--xover", type=int, default=10)
            p.add_argument("--mut", type=int, default=1)
            p.add_argument("--seed", default="0x061F")
        elif name == "campaign":
            p.add_argument("--fitness", default="mBF6_2")
            p.add_argument("--pop", type=int, default=32)
            p.add_argument("--gens", type=int, default=64)
            p.add_argument("--xover", type=int, default=10)
            p.add_argument("--mut", type=int, default=1)
            p.add_argument("--seed", default="0x2961")
            p.add_argument(
                "--rates",
                default="0,1e-4,5e-4",
                help="comma-separated per-bit per-generation upset rates",
            )
            p.add_argument(
                "--configs",
                default="unprotected,hardened",
                help="comma-separated protection presets "
                "(unprotected, secded, watchdog, guard, checkpoint, hardened)",
            )
            p.add_argument("--replicas", type=int, default=4)
            p.add_argument("--campaign-seed", type=int, default=2026)
            p.add_argument("--json", default="", help="also dump the report as JSON")
        elif name == "serve":
            p.add_argument("--host", default="127.0.0.1")
            p.add_argument("--port", type=int, default=0,
                           help="TCP port (0 picks an ephemeral one)")
            p.add_argument("--workers", type=int, default=2)
            p.add_argument("--mode", choices=["thread", "process"],
                           default="process")
            p.add_argument("--max-batch", type=int, default=32)
            p.add_argument("--admit-interval", type=int, default=16)
            p.add_argument("--max-pending", type=int, default=1024)
            p.add_argument("--max-jobs", type=int, default=0,
                           help="exit after serving N jobs (0 = forever)")
            p.add_argument("--chunk-timeout-s", type=float, default=0.0,
                           help="hung-chunk watchdog: retry chunks older "
                                "than this (0 = disabled)")
            p.add_argument("--spill-dir", default="",
                           help="directory for resumable slab checkpoints "
                                "(arms crash recovery)")
            p.add_argument("--resume", action="store_true",
                           help="re-dispatch slabs spilled by a previous "
                                "(crashed) server from --spill-dir")
            p.add_argument("--shed-queue-depth", type=int, default=0,
                           help="start shedding lowest-priority jobs at "
                                "this queue depth (0 = disabled)")
            p.add_argument("--store-dir", default="",
                           help="content-addressed run store: cached "
                                "results, duplicate coalescing, and (unless "
                                "--spill-dir overrides) slab checkpoints")
            p.add_argument("--no-cache", action="store_true",
                           help="with --store-dir: disable cache reads and "
                                "coalescing, keep write-back (recorder mode)")
        elif name == "submit":
            p.add_argument("--host", default="127.0.0.1")
            p.add_argument("--port", type=int, default=7117)
            p.add_argument("--fitness", default="mBF6_2")
            p.add_argument("--pop", type=int, default=64)
            p.add_argument("--gens", type=int, default=64)
            p.add_argument("--xover", type=int, default=10)
            p.add_argument("--mut", type=int, default=1)
            p.add_argument("--seed", default="0x061F")
            p.add_argument("--priority", type=int, default=0)
            p.add_argument("--deadline-ms", type=float, default=0.0,
                           help="advisory deadline (0 = none)")
            p.add_argument("--deadline-mode", choices=["observe", "enforce"],
                           default="observe",
                           help="observe reports misses; enforce cancels "
                                "the job at the next chunk boundary")
            p.add_argument("--retries", type=int, default=3,
                           help="total attempts per chunk on worker "
                                "crashes/timeouts (1 = no retries)")
            p.add_argument("--retry-backoff-ms", type=float, default=50.0,
                           help="base retry backoff (exponential, "
                                "seed-jittered)")
            p.add_argument("--protection", default="",
                           help="resilience preset for hardened execution")
            p.add_argument("--upset-rate", type=float, default=0.0)
            p.add_argument("--islands", type=int, default=1,
                           help="archipelago size; >1 submits an island "
                                "job (one vectorized slab, routed solo)")
            p.add_argument("--migration-interval", type=int, default=8)
            p.add_argument("--topology", default="ring",
                           help="ring | torus | random[:k]")
            p.add_argument("--timeout-s", type=float, default=300.0)
            p.add_argument("--json", action="store_true",
                           help="print the full result as JSON")
            p.add_argument("--no-cache", action="store_true",
                           help="opt this job out of the server's cache "
                                "read path (it is still written back)")
        elif name == "replay":
            p.add_argument("key", help="store entry key (full sha256 hex)")
            p.add_argument("--store-dir", required=True,
                           help="run store root to replay from")
        elif name == "store":
            p.add_argument("action", choices=["ls", "verify", "gc"])
            p.add_argument("--store-dir", required=True,
                           help="run store root to operate on")
            p.add_argument("--all-spills", action="store_true",
                           help="gc: reclaim every spill checkpoint, not "
                                "just those of dead processes")
        elif name == "experiment":
            p.add_argument("action", choices=["run", "ls", "report"])
            p.add_argument("--name", default="",
                           help="zoo experiment name (see: experiment ls)")
            p.add_argument("--out-dir", default="experiments_out",
                           help="per-experiment output root "
                                "(<out-dir>/<name>/results.jsonl + summaries)")
            p.add_argument("--repeats", type=int, default=0,
                           help="override the experiment's nb_repeats "
                                "(0 = keep its default)")
            p.add_argument("--workers", type=int, default=2)
            p.add_argument("--mode", choices=["thread", "process"],
                           default="thread")
            p.add_argument("--store-dir", default="",
                           help="shared run store (default: a store inside "
                                "the experiment's output directory)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
