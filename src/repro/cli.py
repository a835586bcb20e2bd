"""``repro`` command-line interface.

Every major capability is reachable without writing Python::

    repro generate  --platform theta --jobs 4000 --out theta.npz
    repro census    --dataset theta.npz
    repro noise     --dataset theta.npz
    repro taxonomy  --platform theta --jobs 3000
    repro cluster   --dataset theta.npz --clusters 10
    repro export-darshan --dataset theta.npz --out logs/ --limit 100
    repro drift     --dataset theta.npz
    repro obs --requests 64 --slowest 8

Commands accept either ``--dataset file.npz`` (a saved dataset) or
``--platform/--jobs/--seed`` to simulate one on the fly.  Serving
throughput and latency are measured by ``benchmarks/e2e/run.py``; the
serving planes' overhead gates by ``python benchmarks/bench_serve.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.config import preset
from repro.data import Dataset, build_dataset, find_duplicate_sets, temporal_split
from repro.ml.metrics import dex_to_pct
from repro.taxonomy import application_bound, noise_bound
from repro.viz import format_table

__all__ = ["main", "build_parser", "make_serve_model", "record_trajectory_entry"]


def record_trajectory_entry(
    entry: dict, results_dir: Path, filename: str = "BENCH_serve.json"
) -> Path:
    """Append one timestamped entry to a bench trajectory
    (``BENCH_serve.json`` by default; ``BENCH_kernels.json`` is the
    other — one entry per run, never overwritten).

    The single writer for the trajectory format: the
    ``benchmarks/bench_*.py`` scripts all go through here, so the
    load-append-write scheme cannot drift between them.
    """
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    trajectory_path = results_dir / filename
    trajectory = []
    if trajectory_path.exists():
        trajectory = json.loads(trajectory_path.read_text())
    trajectory.append(
        {"timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"), **entry}
    )
    trajectory_path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return trajectory_path


def _synth(n: int, d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    y = (
        np.sin(2 * X[:, 0])
        + 0.5 * X[:, 1] ** 2
        + X[:, 2] * X[:, 3]
        + 0.1 * rng.normal(0, 1, n)
    )
    return X, y


def make_serve_model(kind: str, n_train: int, n_features: int, n_trees: int, seed: int):
    """Train the synthetic-data estimator a serving demo or bench registers."""
    X, y = _synth(n_train, n_features, seed)
    if kind == "forest":
        from repro.ml.forest import RandomForestRegressor

        return RandomForestRegressor(
            n_estimators=n_trees, max_depth=12, random_state=seed
        ).fit(X, y)
    if kind == "gbm":
        from repro.ml.gbm import GradientBoostingRegressor

        return GradientBoostingRegressor(
            n_estimators=n_trees, max_depth=6, loss="squared", random_state=seed
        ).fit(X, y)
    raise ValueError(f"kind must be 'forest' or 'gbm', got {kind!r}")


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", type=Path, default=None, help="saved dataset (.npz)")
    p.add_argument("--platform", default="theta", choices=("theta", "cori"))
    p.add_argument("--jobs", type=int, default=4000, help="jobs to simulate")
    p.add_argument("--seed", type=int, default=2022)


def _load(args: argparse.Namespace) -> Dataset:
    if args.dataset is not None:
        return Dataset.load(args.dataset)
    return build_dataset(preset(args.platform, n_jobs=args.jobs, seed=args.seed))


# ---------------------------------------------------------------------- #
def cmd_generate(args: argparse.Namespace) -> int:
    dataset = build_dataset(preset(args.platform, n_jobs=args.jobs, seed=args.seed))
    dataset.save(args.out)
    print(f"wrote {len(dataset)} {dataset.name} jobs to {args.out}")
    print(f"telemetry frames: {', '.join(dataset.sources)}")
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    dataset = _load(args)
    dups = find_duplicate_sets(dataset.frames["posix"])
    bound = application_bound(dataset.frames["posix"], dataset.y, dups=dups)
    sizes = dups.set_sizes()
    rows = [
        ["jobs", len(dataset)],
        ["duplicate sets", dups.n_sets],
        ["duplicate jobs", dups.n_duplicates],
        ["duplicate fraction", f"{dups.fraction_of(len(dataset)):.1%}"],
        ["largest set", int(sizes.max()) if sizes.size else 0],
        ["application bound (median |err|)", f"{bound.median_abs_pct:.2f}%"],
    ]
    print(format_table(["quantity", "value"], rows,
                       title=f"Duplicate census — {dataset.name} (paper §VI.A)"))
    return 0


def cmd_noise(args: argparse.Namespace) -> int:
    dataset = _load(args)
    dups = find_duplicate_sets(dataset.frames["posix"])
    nb = noise_bound(dataset.y, dups, dataset.start_time)
    rows = [
        ["concurrent duplicate sets", nb.n_concurrent_sets],
        ["sigma (dex)", f"{nb.sigma_dex:.4f}"],
        ["68% band", f"±{nb.band_68_pct:.2f}%"],
        ["95% band", f"±{nb.band_95_pct:.2f}%"],
        ["aleatory floor (median |err|)", f"{nb.median_abs_pct:.2f}%"],
        ["share of Δt=0 sets of size 2", f"{nb.set_size_share_2:.0%}"],
    ]
    print(format_table(["quantity", "value"], rows,
                       title=f"I/O noise bounds — {dataset.name} (paper §IX)"))
    return 0


def cmd_taxonomy(args: argparse.Namespace) -> int:
    from repro.taxonomy import TaxonomyPipeline
    from repro.taxonomy.report import render_breakdown

    dataset = _load(args)
    pipeline = TaxonomyPipeline(
        ensemble_members=args.members, ensemble_epochs=args.epochs, seed=args.seed
    )
    report = pipeline.run(dataset)
    print(render_breakdown(report.breakdown))
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import cluster_workload

    dataset = _load(args)
    rep = cluster_workload(dataset, n_clusters=args.clusters, random_state=args.seed)
    rows = [
        [s.cluster_id, s.n_jobs, s.dominant_family, f"{s.family_purity:.0%}",
         f"{s.median_gib:.1f}", f"{s.median_throughput_mibps:.0f}", f"{s.duplicate_share:.0%}"]
        for s in sorted(rep.summaries, key=lambda s: -s.n_jobs)
    ]
    print(format_table(
        ["cluster", "jobs", "family", "purity", "med GiB", "med MiB/s", "dup share"],
        rows, title=f"Workload clusters — {dataset.name} (Gauge-style)"))
    return 0


def cmd_export_darshan(args: argparse.Namespace) -> int:
    from repro.telemetry.darshan_text import dump_dataset

    dataset = _load(args)
    n = dump_dataset(dataset, args.out, limit=args.limit)
    print(f"wrote {n} darshan-parser text logs to {args.out}/")
    return 0


def cmd_drift(args: argparse.Namespace) -> int:
    from repro.data import feature_matrix
    from repro.stats import DriftMonitor

    dataset = _load(args)
    X, names = feature_matrix(dataset, "posix")
    train, test = temporal_split(dataset.start_time, cutoff_frac=args.cutoff)
    monitor = DriftMonitor().fit(np.log10(1.0 + np.abs(X[train])), names=names)
    report = monitor.score(np.log10(1.0 + np.abs(X[test])))
    rows = [[name, f"{psi:.3f}"] for name, psi in report.worst(args.top)]
    print(format_table(
        ["feature", "PSI"], rows,
        title=(f"Deployment drift — {dataset.name}: {report.n_drifted} of "
               f"{len(names)} features above PSI {report.threshold}")))
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """End-to-end observability demo on the deployed stack: trace one wire
    request through edge -> RetryController -> sharded cluster, then pull
    its span dump, the slowest spans, and the unified metrics snapshot
    back over the same wire.  Exits 1 when the reassembled trace covers
    fewer than 6 distinct stages."""
    from repro.serve.net import AsyncServeServer, ServeClient
    from repro.serve.obs import StructuredLogger, Tracer
    from repro.serve.registry import ModelRegistry
    from repro.serve.resilience import RetryController
    from repro.serve.shard import ShardedServingCluster

    log = StructuredLogger(stream=sys.stderr if args.log_json else None)
    model = make_serve_model(args.model, args.train, 12, args.trees, args.seed)
    registry = ModelRegistry()
    registry.register(args.model, model, promote=True)
    rows = np.random.default_rng(args.seed + 1).normal(0, 1, (args.requests, 12))

    # one tracer shared by the edge and the cluster parent: their spans
    # land in one place, and the server's span collection dedups it
    tracer = Tracer()
    trace_id = f"repro-obs-{args.seed}"
    with ShardedServingCluster(
        registry, n_shards=args.shards, route="hash", transport=args.transport,
        tracer=tracer,
    ) as cluster:
        with AsyncServeServer(RetryController(cluster), tracer=tracer) as server:
            log.info("server-up", host=server.host, port=server.port,
                     shards=args.shards, transport=args.transport)
            with ServeClient(server.host, server.port, timeout=30.0) as client:
                # a warm stream first, then the request under forensics —
                # its explicit trace id is never sampled away
                for row in rows[:-1]:
                    client.send(args.model, row)
                client.drain()
                client.send(args.model, rows[-1], trace_id=trace_id)
                value = client.recv()
                log.info("traced-request", trace=trace_id, value=value)

                dump = client.trace(trace_id)
                spans = sorted(dump["spans"], key=lambda s: (s["pid"], s["start"]))
                print(format_table(
                    ["pid", "component", "stage", "ms", "meta"],
                    [[s["pid"], s["component"], s["stage"],
                      f"{1e3 * (s['end'] - s['start']):.3f}",
                      "" if not s.get("meta") else str(s["meta"])]
                     for s in spans],
                    title=(f"Trace {trace_id} — {len(spans)} spans across "
                           f"{len({s['pid'] for s in spans})} processes")))

                slowest = client.slowest(args.slowest)
                print(format_table(
                    ["component", "stage", "ms", "trace"],
                    [[s["component"], s["stage"],
                      f"{1e3 * (s['end'] - s['start']):.3f}", s["trace"]]
                     for s in slowest],
                    title=f"Slowest {len(slowest)} spans (rings + exemplars)"))

                if args.metrics == "prom":
                    print(client.metrics("prom"), end="")
                else:
                    snap = client.metrics("json")
                    rows_out = []
                    for name in sorted(snap["families"]):
                        fam = snap["families"][name]
                        for suffix, labels, val in fam["samples"]:
                            label = ",".join(f"{k}={v}" for k, v in
                                             sorted(labels.items()))
                            rows_out.append([name + suffix, label, val])
                    print(format_table(
                        ["metric", "labels", "value"], rows_out,
                        title=(f"Unified metrics — {len(snap['families'])} "
                               "families (edge + retry + cluster + spans)")))
    stages = {(s["component"], s["stage"]) for s in spans}
    log.info("done", spans=len(spans), stages=len(stages),
             dropped=sum(dump["dropped"].values()))
    if len(stages) < 6:
        print(f"incomplete trace: {len(stages)} distinct stages, need >= 6",
              file=sys.stderr)
        return 1
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    from repro.scheduler import BatchScheduler, Dragonfly, PlacementPolicy

    rng = np.random.default_rng(args.seed)
    topo = Dragonfly(n_groups=args.groups, routers_per_group=16, nodes_per_router=4)
    submit = np.sort(rng.uniform(0.0, 3600.0 * 12, args.jobs))
    nodes = np.minimum(rng.geometric(0.02, args.jobs), topo.n_nodes // 2)
    wall = rng.lognormal(7.5, 1.0, args.jobs)
    rows = []
    for policy in ("contiguous", "cluster", "random"):
        sched = BatchScheduler(PlacementPolicy(topo, policy, seed=args.seed))
        jobs, stats = sched.run(submit, nodes, wall)
        loc = float(np.mean([j.locality for j in jobs]))
        rows.append([policy, f"{stats.mean_wait:.0f}s", f"{stats.backfill_share:.0%}",
                     f"{stats.utilization:.0%}", f"{loc:.2f}"])
    print(format_table(
        ["placement", "mean wait", "backfill", "utilization", "mean locality"],
        rows, title=f"Scheduler comparison — dragonfly, {topo.n_nodes} nodes"))
    return 0


# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPC I/O ML error-taxonomy reproduction (SC 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate a platform and save the dataset")
    p.add_argument("--platform", default="theta", choices=("theta", "cori"))
    p.add_argument("--jobs", type=int, default=4000)
    p.add_argument("--seed", type=int, default=2022)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("census", help="duplicate census + application bound (§VI)")
    _add_source_args(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("noise", help="I/O noise bounds from concurrent duplicates (§IX)")
    _add_source_args(p)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("taxonomy", help="run the full five-step framework (§X)")
    _add_source_args(p)
    p.add_argument("--members", type=int, default=5, help="ensemble size for Step 4")
    p.add_argument("--epochs", type=int, default=25, help="epochs per ensemble member")
    p.set_defaults(func=cmd_taxonomy)

    p = sub.add_parser("cluster", help="Gauge-style workload clustering report")
    _add_source_args(p)
    p.add_argument("--clusters", type=int, default=10)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("export-darshan", help="write darshan-parser text logs")
    _add_source_args(p)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_export_darshan)

    p = sub.add_parser("drift", help="feature drift across a temporal split (PSI)")
    _add_source_args(p)
    p.add_argument("--cutoff", type=float, default=0.8, help="training fraction of the span")
    p.add_argument("--top", type=int, default=8, help="features to list")
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser(
        "obs",
        help="observability demo: trace one wire request end to end "
             "(edge -> retry -> cluster -> worker), dump its spans, the slowest "
             "spans, and the unified metrics snapshot over the wire ops",
    )
    p.add_argument("--model", default="forest", choices=("forest", "gbm"))
    p.add_argument("--trees", type=int, default=50)
    p.add_argument("--train", type=int, default=800)
    p.add_argument("--requests", type=int, default=64,
                   help="warm-up stream length before the traced request")
    p.add_argument("--shards", type=int, default=2)
    p.add_argument("--transport", default="socket", choices=("pipe", "socket"))
    p.add_argument("--slowest", type=int, default=8,
                   help="rows in the slowest-span table")
    p.add_argument("--metrics", default="json", choices=("json", "prom"),
                   help="metrics snapshot format to print")
    p.add_argument("--log-json", action="store_true",
                   help="emit trace-correlated JSON log lines on stderr")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_obs)

    p = sub.add_parser("schedule", help="compare placement policies on a dragonfly")
    p.add_argument("--jobs", type=int, default=200)
    p.add_argument("--groups", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_schedule)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
