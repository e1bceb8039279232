"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list-datasets`` / ``list-experiments`` — discover what is available.
- ``dataset-stats`` — print Table I rows for one or all datasets.
- ``train`` — train LightLT on a named dataset and report MAP plus the
  head/tail and codebook-health diagnostics; optionally save the quantized
  index to disk. ``--metrics-out`` / ``--trace`` enable the observability
  layer and export its metric snapshot / span trace as JSONL.
- ``experiment`` — run one of the paper's table/figure experiments and
  print the rendered artifact.
- ``bench`` — the per-phase benchmark harness (:mod:`repro.obs.bench`);
  writes ``BENCH_results.json``.
- ``tune`` — the calibrated auto-tuner (:mod:`repro.tuning`): sweep a
  config grid over a profile, fit the cost model to the measurements
  (writes a schema-v6 ``TUNE_results.json``), and with ``--latency-ms`` /
  ``--recall`` / ``--memory-mb`` recommend a concrete serving config for
  that budget (exit 1 when no config meets it).
- ``serve`` — boot the resilient serving daemon (:mod:`repro.serving`)
  over a saved index and drive seeded open- or closed-loop traffic
  through it; prints the latency/QPS load report and any degradation or
  failover events. ``--ivf-cells`` / ``--nprobe`` swap the replicas'
  exhaustive scan for the IVF-pruned engine (one shared coarse layout,
  trained at boot). ``--mutable`` wraps the saved index in the segmented
  mutable index so the daemon accepts online add/remove/compact, and
  ``--churn`` drives seeded mutation rounds through ``daemon.mutate``
  alongside the query traffic.

The consolidated flag reference lives in README.md ("CLI reference").
"""

from __future__ import annotations

import argparse
import sys

from repro.version import __version__

EXPERIMENTS = (
    "table1",
    "fig4",
    "table2",
    "table3",
    "fig5",
    "table4",
    "fig6",
    "fig7",
    "fig8",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LightLT (ICDE 2024) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list-datasets", help="show available dataset names")
    commands.add_parser("list-experiments", help="show reproducible artifacts")

    stats = commands.add_parser("dataset-stats", help="print Table I rows")
    stats.add_argument("--dataset", default=None, help="restrict to one dataset")
    stats.add_argument("--scale", choices=("ci", "paper"), default="ci")

    train = commands.add_parser("train", help="train LightLT on a dataset")
    train.add_argument("--dataset", required=True)
    train.add_argument("--imbalance-factor", type=int, default=50, choices=(50, 100))
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--ensemble", action="store_true", help="run the full ensemble")
    train.add_argument("--fast", action="store_true", help="shorter training")
    train.add_argument("--save-index", default=None, help="write the quantized index here")
    train.add_argument(
        "--checkpoint-dir",
        default=None,
        help="write an atomic training checkpoint here after every epoch",
    )
    train.add_argument(
        "--resume",
        action="store_true",
        help="continue from the newest valid checkpoint in --checkpoint-dir",
    )
    train.add_argument(
        "--keep-checkpoints",
        type=int,
        default=3,
        help="how many checkpoint files to retain (default: 3)",
    )
    train.add_argument(
        "--guard",
        action="store_true",
        help="guarded training: roll back + LR backoff on NaN/Inf loss "
        "(requires --checkpoint-dir)",
    )
    train.add_argument(
        "--metrics-out",
        default=None,
        help="enable observability and write the metric snapshot here (JSONL)",
    )
    train.add_argument(
        "--trace",
        default=None,
        help="enable observability and write the span trace here (JSONL)",
    )

    experiment = commands.add_parser("experiment", help="reproduce a table/figure")
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--full", action="store_true", help="full training budget (slower)"
    )

    serve = commands.add_parser(
        "serve",
        help="serve a saved index through the resilient daemon and drive "
        "seeded traffic through it",
    )
    serve.add_argument("--index", required=True, help="index archive from --save-index")
    serve.add_argument("--replicas", type=int, default=2)
    serve.add_argument("--requests", type=int, default=256)
    serve.add_argument(
        "--clients", type=int, default=8,
        help="closed-loop concurrency (ignored with --qps)",
    )
    serve.add_argument(
        "--qps", type=float, default=None,
        help="open-loop arrival rate (default: closed loop)",
    )
    serve.add_argument("--k", type=int, default=10)
    serve.add_argument("--queries", type=int, default=64, help="seeded query-pool size")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--kill-replica-at", type=int, default=None, metavar="CALL",
        help="demo fault: kill replica 0 at its CALL-th scan (failover demo)",
    )
    serve.add_argument(
        "--ivf-cells", type=int, default=None, metavar="N",
        help="serve through an IVF-pruned engine with N coarse cells "
        "(default: exhaustive scan; implies the sqrt rule when --nprobe "
        "is given alone)",
    )
    serve.add_argument(
        "--nprobe", type=int, default=None,
        help="cells probed per query on the IVF path (default: 8; "
        "implies --ivf-cells)",
    )
    serve.add_argument(
        "--mutable", action="store_true",
        help="wrap the saved index in the segmented mutable index so the "
        "daemon accepts online add/remove/compact mutations",
    )
    serve.add_argument(
        "--churn", type=int, default=None, metavar="ROUNDS",
        help="drive ROUNDS seeded add/remove rounds through daemon.mutate "
        "alongside the query traffic, compacting at the end "
        "(implies --mutable)",
    )
    serve.add_argument(
        "--metrics-out", default=None,
        help="enable observability and write the serve.* snapshot here (JSONL)",
    )
    serve.add_argument(
        "--query-encoder", default=None, metavar="PATH",
        help="light query encoder archive from `repro distill`; traffic "
        "then submits raw features with encoder='light' and the daemon "
        "embeds them through the distilled fast path before the scan",
    )

    distill = commands.add_parser(
        "distill",
        help="train a LightLT teacher on a profile, distill the light "
        "query encoder from it, and save the encoder archive",
    )
    distill.add_argument(
        "--profile", default="tiny",
        help="dataset profile (accepts the -lt suffix; default: tiny)",
    )
    distill.add_argument("--seed", type=int, default=0)
    distill.add_argument(
        "--out", default="encoder.npz",
        help="light-encoder archive path (default: encoder.npz)",
    )
    distill.add_argument(
        "--save-index", default=None, metavar="PATH",
        help="also build and save the teacher's index over the profile "
        "database (ready for `repro serve --index ... --query-encoder`)",
    )
    distill.add_argument(
        "--hidden-dim", type=int, default=None,
        help="student hidden width (default: pure linear projection)",
    )
    distill.add_argument(
        "--mode", choices=("kl", "contrastive"), default="kl",
        help="distillation objective: soft codeword-posterior KL or the "
        "MoPQ-style contrastive matching head (default: kl)",
    )
    distill.add_argument(
        "--epochs", type=int, default=None,
        help="distillation epochs (default: the distiller's own budget)",
    )

    commands.add_parser(
        "bench",
        help="per-phase benchmark harness; writes BENCH_results.json "
        "(see `python -m repro bench --help`)",
        add_help=False,
    )

    tune = commands.add_parser(
        "tune",
        help="sweep a config grid, calibrate the cost model, and "
        "recommend a serving config for a latency/recall/memory budget",
    )
    tune.add_argument(
        "--profile", default="tiny",
        help="dataset profile to sweep (accepts the -lt suffix; "
        "default: tiny)",
    )
    tune.add_argument(
        "--quick", action="store_true",
        help="use the small CI grid (default grid otherwise)",
    )
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument(
        "--k", type=int, default=10,
        help="top-k the sweep measures recall and latency at (default: 10)",
    )
    tune.add_argument(
        "--out", default="TUNE_results.json",
        help="sweep artifact path (default: TUNE_results.json)",
    )
    tune.add_argument(
        "--from-results", default=None, metavar="PATH",
        help="recommend from an existing sweep artifact instead of "
        "running a new sweep",
    )
    tune.add_argument(
        "--latency-ms", type=float, default=None,
        help="budget: per-query latency ceiling in milliseconds "
        "(amortised over the sweep's query batch)",
    )
    tune.add_argument(
        "--recall", type=float, default=None,
        help="budget: recall@k floor in (0, 1]",
    )
    tune.add_argument(
        "--memory-mb", type=float, default=None,
        help="budget: as-stored serving memory ceiling in MB",
    )
    return parser


def _cmd_list_datasets() -> int:
    from repro.data import available_datasets

    for name in available_datasets():
        print(name)
    return 0


def _cmd_list_experiments() -> int:
    for name in EXPERIMENTS:
        print(name)
    return 0


def _cmd_dataset_stats(args: argparse.Namespace) -> int:
    from repro.data import available_datasets, load_dataset
    from repro.experiments import format_table1

    names = [args.dataset] if args.dataset else available_datasets()
    rows = []
    for name in names:
        for factor in (50, 100):
            rows.append(load_dataset(name, factor, scale=args.scale).summary())
    print(format_table1(rows))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.analysis import analyze
    from repro.core import EnsembleConfig, Trainer, train_ensemble
    from repro.data import load_dataset
    from repro.experiments import (
        default_loss_config,
        default_model_config,
        default_training_config,
    )
    from repro.retrieval.persistence import save_index

    if (args.resume or args.guard) and not args.checkpoint_dir:
        print("error: --resume and --guard require --checkpoint-dir", file=sys.stderr)
        return 2
    obs_handle = None
    if args.metrics_out or args.trace:
        from repro import obs

        obs_handle = obs.enable_observability()
    dataset = load_dataset(args.dataset, args.imbalance_factor, seed=args.seed)
    model_config = default_model_config(dataset)
    loss_config = default_loss_config(dataset)
    training_config = default_training_config(dataset, fast=args.fast)
    if args.ensemble:
        if args.checkpoint_dir:
            print("note: checkpointing is per-member and not yet wired for "
                  "--ensemble; ignoring --checkpoint-dir")
        result = train_ensemble(
            dataset,
            model_config,
            loss_config,
            training_config,
            EnsembleConfig(num_members=2 if args.fast else 4),
            seed=args.seed,
        )
        model = result.model
    elif args.guard:
        from repro.resilience import GuardedTrainer

        guarded = GuardedTrainer(
            Trainer(model_config, loss_config, training_config, seed=args.seed),
            checkpoint_dir=args.checkpoint_dir,
            keep_checkpoints=args.keep_checkpoints,
        )
        model, _, history = guarded.fit(dataset, resume=args.resume)
        for event in history.events:
            print(f"guard intervention: {event}")
    else:
        trainer = Trainer(model_config, loss_config, training_config, seed=args.seed)
        model, _, _ = trainer.fit(
            dataset,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            keep_checkpoints=args.keep_checkpoints,
        )

    report = analyze(model, dataset)
    for line in report.summary_lines():
        print(line)
    if args.save_index:
        index = model.build_index(
            dataset.database.features, labels=dataset.database.labels
        )
        save_index(index, args.save_index)
        print(f"index saved to {args.save_index}")
    if obs_handle is not None:
        from repro import obs

        run_info = {"command": "train", "dataset": args.dataset, "seed": args.seed}
        if args.metrics_out:
            obs.export_metrics(obs_handle.registry, args.metrics_out, run=run_info)
            print(f"metrics written to {args.metrics_out}")
        if args.trace:
            obs.export_spans(obs_handle.tracer, args.trace, run=run_info)
            print(f"trace written to {args.trace}")
        obs.disable_observability()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the daemon over a saved index and push seeded traffic through."""
    import asyncio

    import numpy as np

    from repro.retrieval.persistence import load_index
    from repro.rng import make_rng
    from repro.serving import ServingDaemon, TrafficGenerator

    if args.replicas < 1:
        print("error: --replicas must be at least 1", file=sys.stderr)
        return 2
    if args.requests < 1:
        print("error: --requests must be at least 1", file=sys.stderr)
        return 2
    if args.nprobe is not None and args.nprobe < 1:
        print("error: --nprobe must be at least 1", file=sys.stderr)
        return 2
    if args.ivf_cells is not None and args.ivf_cells < 1:
        print("error: --ivf-cells must be at least 1", file=sys.stderr)
        return 2
    if args.churn is not None and args.churn < 1:
        print("error: --churn must be at least 1", file=sys.stderr)
        return 2
    mutable = args.mutable or args.churn is not None
    obs_handle = None
    if args.metrics_out:
        from repro import obs

        obs_handle = obs.enable_observability()
    index = load_index(args.index)
    engine_kwargs = None
    mutable_index = None
    if mutable:
        # The mutable index owns its engine (rebuilt at every compaction),
        # so the IVF layout is handed to it as a cell *count* — a prebuilt
        # coarse layer would go stale the moment compaction reshapes the
        # base segment.
        from repro.retrieval import MutableIndex
        from repro.retrieval.ivf import default_num_cells

        index_engine_kwargs = None
        if args.ivf_cells is not None or args.nprobe is not None:
            cells = (
                args.ivf_cells
                if args.ivf_cells is not None
                else default_num_cells(len(index))
            )
            nprobe = args.nprobe if args.nprobe is not None else 8
            index_engine_kwargs = {"ivf": cells, "nprobe": nprobe}
        mutable_index = MutableIndex.from_index(
            index, engine_kwargs=index_engine_kwargs
        )
        ivf = mutable_index.ivf
        if ivf is not None:
            print(
                f"ivf: {ivf.num_cells} cells, nprobe "
                f"{index_engine_kwargs['nprobe']} "
                f"(~{ivf.cell_sizes().mean():.0f} items/cell)"
            )
        print(
            f"mutable: {mutable_index.n_db} rows adopted as the base "
            f"segment (generation {mutable_index.generation})"
        )
    elif args.ivf_cells is not None or args.nprobe is not None:
        # One shared IVF layout for every replica: the coarse quantizer is
        # trained once here, so replicas differ only in their scan state.
        from repro.retrieval import IVFIndex

        ivf = IVFIndex.build(index, num_cells=args.ivf_cells, seed=args.seed)
        nprobe = args.nprobe if args.nprobe is not None else 8
        engine_kwargs = {"ivf": ivf, "nprobe": nprobe}
        print(
            f"ivf: {ivf.num_cells} cells, nprobe {nprobe} "
            f"(~{ivf.cell_sizes().mean():.0f} items/cell)"
        )
    query_encoders = None
    encoder_mode = None
    if args.query_encoder:
        from repro.encoding import load_encoder

        light = load_encoder(args.query_encoder)
        if light.embed_dim != index.codebooks.shape[2]:
            print(
                f"error: encoder embeds into {light.embed_dim}-d but the "
                f"index stores {index.codebooks.shape[2]}-d vectors",
                file=sys.stderr,
            )
            return 2
        query_encoders = {"light": light}
        encoder_mode = "light"
        print(
            f"query encoder: light ({light.input_dim} -> {light.embed_dim}"
            + (", linear)" if light.hidden_dim is None
               else f", hidden {light.hidden_dim})")
        )
    rng = make_rng(args.seed)
    # With an encoder the pool rows are raw features (the daemon embeds
    # them); without one they are embeddings at the index's dimension.
    pool_dim = (
        query_encoders["light"].input_dim
        if query_encoders
        else index.codebooks.shape[2]
    )
    pool = rng.normal(size=(args.queries, pool_dim))
    faults = None
    if args.kill_replica_at is not None:
        from repro.resilience.faults import ReplicaKillFault, ServingFaults

        faults = ServingFaults(
            ReplicaKillFault(replica=0, at_call=args.kill_replica_at)
        )
        print(f"fault plan: kill replica 0 at scan {args.kill_replica_at}")

    async def churn(daemon) -> dict:
        """Seeded add/remove rounds through ``daemon.mutate``; one final
        compaction so the summary shows the post-merge generation."""
        from repro.retrieval import MutationRequest

        churn_rng = make_rng(args.seed + 1)
        stats = {"added": 0, "removed": 0}
        dim = mutable_index.dim
        # A labelled index (train --save-index) refuses unlabelled adds;
        # draw synthetic arrivals from the existing label vocabulary.
        label_pool = (
            np.unique(index.labels) if index.labels is not None else None
        )
        for _ in range(args.churn):
            vectors = churn_rng.normal(size=(32, dim))
            labels = (
                churn_rng.choice(label_pool, size=len(vectors))
                if label_pool is not None
                else None
            )
            added = await daemon.mutate(
                MutationRequest(op="add", vectors=vectors, labels=labels)
            )
            stats["added"] += added.added
            live = mutable_index.live_ids()
            doomed = churn_rng.choice(
                live, size=min(8, len(live)), replace=False
            )
            removed = await daemon.mutate(
                MutationRequest(op="remove", ids=doomed)
            )
            stats["removed"] += removed.removed
            await asyncio.sleep(0)  # let query traffic interleave
        compacted = await daemon.mutate(MutationRequest(op="compact"))
        stats["result"] = compacted
        return stats

    async def run():
        daemon = ServingDaemon(
            mutable_index if mutable else index,
            num_replicas=args.replicas, faults=faults,
            engine_kwargs=engine_kwargs, on_event=print,
            query_encoders=query_encoders,
        )
        async with daemon:
            generator = TrafficGenerator(
                daemon, pool, k=args.k, seed=args.seed,
                encoder=encoder_mode,
            )
            churn_task = (
                asyncio.create_task(churn(daemon))
                if args.churn is not None
                else None
            )
            try:
                if args.qps is not None:
                    report = await generator.run_open(args.qps, args.requests)
                else:
                    report = await generator.run_closed(
                        args.requests, clients=args.clients
                    )
            finally:
                churn_stats = await churn_task if churn_task else None
        return daemon, report, churn_stats

    daemon, report, churn_stats = asyncio.run(run())
    mode = f"open loop @ {args.qps:g} qps" if args.qps is not None else (
        f"closed loop, {args.clients} clients"
    )
    print(f"serve: {args.replicas} replicas, {mode}")
    for line in report.summary_lines():
        print(line)
    if churn_stats is not None:
        final = churn_stats["result"]
        print(
            f"churn: {args.churn} rounds — {churn_stats['added']} added, "
            f"{churn_stats['removed']} removed; compacted to generation "
            f"{final.generation} ({final.live} live rows, "
            f"{final.segments} segment(s), {final.tombstones} tombstones)"
        )
    if mutable_index is not None:
        mutable_index.close()
    interesting = (
        "retries", "hedges", "failovers", "shed", "stale_served",
        "degraded_transitions",
    )
    resilience = {key: daemon.counts[key] for key in interesting if daemon.counts[key]}
    if resilience:
        print("resilience: " + "  ".join(f"{k}: {v}" for k, v in sorted(resilience.items())))
    if obs_handle is not None:
        from repro import obs

        run_info = {"command": "serve", "index": args.index, "seed": args.seed}
        obs.export_metrics(obs_handle.registry, args.metrics_out, run=run_info)
        print(f"metrics written to {args.metrics_out}")
        obs.disable_observability()
    return 0 if report.n_failed == 0 else 1


def _cmd_distill(args: argparse.Namespace) -> int:
    """Teacher fit → light-encoder distillation → encoder archive.

    Prints the light-vs-full comparison on the profile's query split
    (batched encode speedup and recall@10 of each path against the exact
    embedding-space oracle) so the trade-off is visible before serving.
    """
    import dataclasses

    import numpy as np

    from repro.core.trainer import Trainer
    from repro.encoding import (
        DistillationConfig,
        distill_query_encoder,
        save_encoder,
    )
    from repro.experiments import (
        default_loss_config,
        default_model_config,
        default_training_config,
    )
    from repro.obs.bench import load_profile_dataset, overlap_recall
    from repro.retrieval.search import squared_distances

    if args.epochs is not None and args.epochs < 1:
        print("error: --epochs must be at least 1", file=sys.stderr)
        return 2
    dataset = load_profile_dataset(args.profile, args.seed)
    trainer = Trainer(
        default_model_config(dataset),
        default_loss_config(dataset),
        default_training_config(dataset, fast=True),
        seed=args.seed,
    )
    teacher, _, _ = trainer.fit(dataset)
    teacher.eval()
    training_config = None
    if args.epochs is not None:
        from repro.encoding import default_distill_training_config

        training_config = dataclasses.replace(
            default_distill_training_config(), epochs=args.epochs
        )
    student, history = distill_query_encoder(
        teacher,
        dataset,
        hidden_dim=args.hidden_dim,
        config=DistillationConfig(mode=args.mode),
        training_config=training_config,
        seed=args.seed,
    )
    save_encoder(student, args.out)
    print(
        f"distilled {args.mode} student ({student.input_dim} -> "
        f"{student.embed_dim}"
        + (f", hidden {args.hidden_dim}" if args.hidden_dim else ", linear")
        + f") in {len(history.epochs)} epochs; saved to {args.out}"
    )

    raw_queries = np.asarray(dataset.query.features, dtype=np.float64)
    emb_db = np.asarray(teacher.embed(dataset.database.features), dtype=np.float64)
    exact_ids = np.argsort(
        squared_distances(
            np.asarray(teacher.embed(raw_queries), dtype=np.float64), emb_db
        ),
        kind="stable", axis=1,
    )[:, :10]
    index = teacher.build_index(
        dataset.database.features, labels=dataset.database.labels
    )
    import time as _time

    timings = {}
    recalls = {}
    for label, embed in (("full", teacher.embed), ("light", student.embed)):
        best = float("inf")
        for _ in range(5):
            start = _time.perf_counter()
            embedded = embed(raw_queries)
            best = min(best, _time.perf_counter() - start)
        timings[label] = best
        recalls[label] = overlap_recall(index.search(embedded, k=10), exact_ids)
    speedup = timings["full"] / timings["light"] if timings["light"] > 0 else float("inf")
    delta = recalls["full"] - recalls["light"]
    print(
        f"encode: light x{speedup:.2f} vs full "
        f"({timings['full'] * 1e3:.3f} -> {timings['light'] * 1e3:.3f} ms "
        f"per {len(raw_queries)}-query batch)"
    )
    print(
        f"recall@10: full {recalls['full']:.3f}, light {recalls['light']:.3f} "
        f"(delta {delta:+.3f})"
    )
    if args.save_index:
        from repro.retrieval.persistence import save_index

        save_index(index, args.save_index)
        print(f"index saved to {args.save_index}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    """Run (or load) a tune sweep; optionally recommend for a budget."""
    from repro.obs.bench import format_summary, load_results, write_results
    from repro.tuning import TuneRequest, recommend, run_tune_sweep

    budgets_given = (
        args.latency_ms is not None
        or args.recall is not None
        or args.memory_mb is not None
    )
    if args.from_results:
        results = load_results(args.from_results)
        if not budgets_given:
            print(format_summary(results))
            return 0
    else:
        results = run_tune_sweep(
            profile=args.profile,
            quick=args.quick,
            seed=args.seed,
            k=args.k,
        )
        path = write_results(results, args.out)
        print(format_summary(results))
        print(f"[results written to {path}]")
    if not budgets_given:
        return 0
    try:
        request = TuneRequest(
            latency_ms=args.latency_ms,
            recall=args.recall,
            memory_mb=args.memory_mb,
            k=args.k,
        )
        recommendation = recommend(results, request)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for line in recommendation.summary_lines():
        print(line)
    return 0 if recommendation.feasible else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    import repro.experiments as exp

    fast = not args.full
    if args.name == "table1":
        print(exp.format_table1(exp.run_table1(seed=args.seed)))
    elif args.name == "fig4":
        print(exp.format_fig4(exp.run_fig4()))
    elif args.name == "table2":
        print(
            exp.format_comparison(
                exp.run_table2(seed=args.seed, fast=fast), "Table II — image datasets"
            )
        )
    elif args.name == "table3":
        print(
            exp.format_comparison(
                exp.run_table3(seed=args.seed, fast=fast), "Table III — text datasets"
            )
        )
    elif args.name == "fig5":
        print(exp.format_fig5(exp.run_fig5(seed=args.seed, fast=fast)))
    elif args.name == "table4":
        print(exp.format_table4(exp.run_table4(seed=args.seed, fast=fast)))
    elif args.name == "fig6":
        print(exp.format_fig6(exp.run_fig6(seed=args.seed, fast=fast)))
    elif args.name == "fig7":
        print(exp.format_fig7(exp.run_fig7(seed=args.seed, fast=fast)))
    elif args.name == "fig8":
        print(exp.format_fig8(exp.run_fig8(seed=args.seed, fast=fast)))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench":
        # The harness owns its flag set; hand the rest of the line over so
        # `repro bench --profile ... --quick` matches benchmarks/run_bench.py.
        from repro.obs.bench import main as bench_main

        return bench_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "list-datasets":
        return _cmd_list_datasets()
    if args.command == "list-experiments":
        return _cmd_list_experiments()
    if args.command == "dataset-stats":
        return _cmd_dataset_stats(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "distill":
        return _cmd_distill(args)
    if args.command == "tune":
        return _cmd_tune(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
