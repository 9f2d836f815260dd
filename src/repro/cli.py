"""Command-line interface for the reproduction.

Subcommands::

    python -m repro.cli datasets
    python -m repro.cli boost    --dataset digg-like --k 50 --seeds 20
    python -m repro.cli compare  --dataset digg-like --k 25
    python -m repro.cli tree     --nodes 255 --k 8 --epsilon 0.5
    python -m repro.cli budget   --dataset flixster-like --cost-ratio 20
    python -m repro.cli ingest   soc-digg.txt.gz digg.rpgs --prob wc --beta 2
    python -m repro.cli query    --dataset digg-like --file queries.json --json
    python -m repro.cli query    --graph-store digg.rpgs --file queries.json
    python -m repro.cli serve    --dataset digg-like --cache-size 512
    python -m repro.cli serve    --graph-store digg.rpgs --http 8321
    python -m repro.cli dist-worker --graph-store digg.rpgs --port 9123
    python -m repro.cli serve    --graph-store digg.rpgs \
                                 --hosts hostA:9123,hostB:9123

The ``ingest`` subcommand converts an edge list — including gzip'd
SNAP/Konect dumps with ``#``-comment headers and arbitrary node ids —
into a binary graph store (:mod:`repro.storage`) in bounded memory;
``query`` and ``serve`` then open the store zero-copy via ``np.memmap``
with ``--graph-store`` instead of building a graph in RAM.

Every subcommand accepts ``--seed`` for reproducibility; ``boost``,
``compare``, ``budget``, ``query`` and ``serve`` accept ``--workers N``
to run the sampling phases on a pool of N forked local hosts.

The ``query`` subcommand is the batch form of the session API: it reads
a JSON list of typed queries (the :func:`repro.api.query_from_dict`
shape), answers all of them in one warm :class:`repro.api.Session`, and
prints either a summary table or (``--json``) the full
:class:`~repro.api.QueryResult` envelopes as NDJSON — one line per
query, written as each completes, so a pipe-connected consumer streams
answers instead of waiting for the whole batch::

    [
      {"type": "seed",  "algorithm": "imm", "k": 10, "rng_seed": 1},
      {"type": "boost", "algorithm": "prr_boost", "seeds": [3, 14], "k": 20,
       "budget": {"max_samples": 5000}},
      {"type": "eval",  "seeds": [3, 14], "boost": [1, 2], "metric": "boost"}
    ]

The ``serve`` subcommand keeps one warm session alive behind a front
end (:mod:`repro.api.serve`): by default NDJSON over stdin/stdout (each
input line is a query object or an array batch; an array runs as one
``run_many`` batch), or ``--http PORT`` for the stdlib HTTP
endpoint (``POST /query``, ``GET /stats``, ``GET /healthz``).  The
result cache is on by default (``--no-cache`` disables it) and
``--reject-units`` / ``--queue-units`` / ``--cap-samples`` /
``--cap-mc-runs`` install an admission policy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .api import BoostQuery, EvalQuery, SamplingBudget, SeedQuery, Session, query_from_dict
from .datasets import DATASETS, dataset_names, load_dataset, load_graph
from .engine import model_names
from .experiments import (
    budget_allocation_experiment,
    compare_algorithms,
    format_table,
    make_tree_workload,
    make_workload,
    tree_comparison,
)

__all__ = ["main"]


def _cmd_datasets(_args: argparse.Namespace) -> int:
    rows = [
        [spec.name, spec.n, f"{spec.mean_probability:.3f}", spec.description]
        for spec in DATASETS.values()
    ]
    print(format_table(["name", "nodes", "avg p", "description"], rows))
    return 0


def _cmd_boost(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    graph = load_dataset(args.dataset, seed=args.seed)
    sample_budget = SamplingBudget(
        max_samples=args.max_samples, workers=args.workers
    )
    mc_budget = SamplingBudget(mc_runs=args.mc_runs)
    # One warm session drives seed selection, boosting and both Monte
    # Carlo evaluations; close() releases the worker pool (if any).
    with Session(graph) as session:
        seeds = session.run(
            SeedQuery(algorithm="imm", k=args.seeds, budget=sample_budget),
            rng=rng,
        ).selected
        result = session.run(
            BoostQuery(
                algorithm="prr_boost_lb" if args.lb else "prr_boost",
                seeds=seeds,
                k=args.k,
                budget=sample_budget,
            ),
            rng=rng,
        )
        boost = session.run(
            EvalQuery(seeds=seeds, boost=result.selected, metric="boost",
                      budget=mc_budget),
            rng=rng,
        ).estimates["boost"]
        sigma0 = session.run(
            EvalQuery(seeds=seeds, metric="sigma", budget=mc_budget),
            rng=rng,
        ).estimates["sigma"]
    print(f"dataset        : {args.dataset} (n={graph.n}, m={graph.m})")
    print(f"seeds (IMM)    : {len(seeds)}")
    print(f"algorithm      : {'PRR-Boost-LB' if args.lb else 'PRR-Boost'}")
    print(f"boost set      : {result.selected}")
    print(f"spread w/o B   : {sigma0:.1f}")
    print(f"boost (MC)     : {boost:.1f}  (+{100 * boost / sigma0:.1f}%)")
    print(f"boost time     : {result.timings['total']:.2f}s")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    graph = load_dataset(args.dataset, seed=args.seed)
    workload = make_workload(
        args.dataset, graph, args.seeds, args.seed_mode, rng,
        mc_runs=args.mc_runs, workers=args.workers,
    )
    runs = compare_algorithms(
        workload, args.k, rng, mc_runs=args.mc_runs,
        max_samples=args.max_samples, workers=args.workers,
    )
    runs.sort(key=lambda r: -r.boost)
    rows = [
        [r.algorithm, f"{r.boost:.1f}", f"{r.seconds:.2f}s"] for r in runs
    ]
    print(format_table(["algorithm", "boost", "select time"], rows))
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    tree = make_tree_workload(args.nodes, args.seeds, rng)
    runs = tree_comparison(tree, [args.k], [args.epsilon])
    rows = [
        [r.algorithm, f"{r.boost:.4f}", f"{r.seconds:.2f}s"] for r in runs
    ]
    print(format_table(["algorithm", "boost (exact)", "time"], rows))
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    graph = load_dataset(args.dataset, seed=args.seed)
    fractions = [0.2, 0.4, 0.6, 0.8, 1.0]
    points = budget_allocation_experiment(
        graph,
        max_seeds=args.max_seeds,
        cost_ratio=args.cost_ratio,
        seed_fractions=fractions,
        rng=rng,
        mc_runs=args.mc_runs,
        max_samples=args.max_samples,
        workers=args.workers,
    )
    rows = [
        [f"{p.seed_fraction:.0%}", p.num_seeds, p.num_boosts, f"{p.spread:.1f}"]
        for p in points
    ]
    print(format_table(["seed budget", "#seeds", "#boosts", "spread"], rows))
    return 0


def _resolve_graph(args: argparse.Namespace):
    """The graph a query/serve invocation runs on: ``--graph-store`` (a
    binary store opened zero-copy via mmap) wins over ``--dataset``."""
    store = getattr(args, "graph_store", None)
    if store is not None:
        return load_graph(store, seed=args.seed)
    return load_dataset(args.dataset, seed=args.seed)


def _cmd_ingest(args: argparse.Namespace) -> int:
    from .storage import ingest_edge_list
    from .storage.ingest import DEFAULT_CHUNK_EDGES

    report = ingest_edge_list(
        args.input,
        store_path=args.output,
        prob=args.prob,
        beta=args.beta,
        chunk_edges=args.chunk_edges or DEFAULT_CHUNK_EDGES,
        include_engine=not args.no_engine,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    print(f"ingested  : {report.input_path}"
          f"{' (gzip)' if report.gzipped else ''}")
    print(f"store     : {report.store_path} ({report.file_bytes:,} bytes)")
    print(f"graph     : n={report.n:,}  m={report.m:,}")
    print(f"node ids  : {report.min_node_id}..{report.max_node_id} "
          f"(remapped to 0..{report.n - 1})")
    print(f"columns   : {report.columns}  prob={report.prob_mode}"
          f"{'' if report.beta is None else f'  beta={report.beta}'}")
    print(f"chunks    : {report.chunks}  comment lines: {report.comment_lines}")
    return 0


def _cmd_dist_worker(args: argparse.Namespace) -> int:
    """One worker host of the distributed sampling runtime.

    Prints a one-line JSON ready message (bound host/port — with
    ``--port 0`` that is how launchers learn the ephemeral port) to
    stdout, then serves coordinator sessions until interrupted."""
    from .dist import serve_worker

    graph = _resolve_graph(args)

    def ready(info):
        print(json.dumps({"listening": info,
                          "graph": {"n": int(graph.n), "m": int(graph.m)}}),
              flush=True)

    try:
        stats = serve_worker(
            graph, host=args.host, port=args.port, workers=args.workers,
            max_sessions=args.max_sessions, ready=ready,
        )
    except KeyboardInterrupt:
        return 0
    print(json.dumps(stats), file=sys.stderr)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    text = sys.stdin.read() if args.file == "-" else Path(args.file).read_text()
    data = json.loads(text)
    if isinstance(data, dict):
        data = data.get("queries", [data])
    if not isinstance(data, list):
        raise SystemExit("query batch must be a JSON list (or {'queries': [...]})")
    if args.model is not None:
        # --model is the batch default: entries naming their own model win.
        data = [
            entry if "model" in entry else {**entry, "model": args.model}
            for entry in data
        ]
    queries = [query_from_dict(entry) for entry in data]
    graph = _resolve_graph(args)
    rng = np.random.default_rng(args.seed)
    default_budget = SamplingBudget(
        max_samples=args.max_samples, mc_runs=args.mc_runs,
        workers=args.workers,
    )
    with Session(graph, budget=default_budget, hosts=args.hosts) as session:
        if args.json:
            # NDJSON: one envelope per line, flushed as each query
            # completes, so downstream consumers stream instead of
            # waiting for the whole batch.
            # Errors stream as inline envelopes (timeout/failed/rejected)
            # so one bad query never truncates the NDJSON output.
            for result in session.run_iter(queries, rng=rng, on_error="envelope"):
                print(json.dumps(result.to_dict()), flush=True)
            return 0
        results = session.run_many(queries, rng=rng)
    rows = []
    for r in results:
        estimates = (
            "  ".join(f"{k}={v:.2f}" for k, v in r.estimates.items()) or "-"
        )
        rows.append([
            r.algorithm, (r.query or {}).get("model", "ic"),
            len(r.selected), estimates, r.num_samples,
            f"{r.timings['total']:.2f}s",
        ])
    print(format_table(
        ["algorithm", "model", "|selected|", "estimates", "samples", "time"],
        rows,
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .api import AdmissionPolicy, ResultCache, serve_http, serve_ndjson

    graph = _resolve_graph(args)
    default_budget = SamplingBudget(
        max_samples=args.max_samples, mc_runs=args.mc_runs,
        workers=args.workers,
    )
    cache = None if args.no_cache else ResultCache(capacity=args.cache_size)
    admission = None
    if any(
        value is not None
        for value in (args.reject_units, args.queue_units,
                      args.cap_samples, args.cap_mc_runs)
    ):
        admission = AdmissionPolicy(
            reject_units=args.reject_units,
            queue_units=args.queue_units,
            max_samples=args.cap_samples,
            max_mc_runs=args.cap_mc_runs,
        )
    if cache is not None and args.cache_file is not None:
        # Warm-start from the previous process's snapshot; entries from
        # other graph versions are dropped (their probabilities are gone).
        report = cache.load(
            args.cache_file, graph_version=getattr(graph, "version", 0)
        )
        print(f"cache snapshot {args.cache_file}: loaded "
              f"{report['loaded']}, dropped {report['dropped']} stale",
              file=sys.stderr)
    with Session(
        graph, budget=default_budget, cache=cache, admission=admission,
        hosts=args.hosts,
    ) as session:
        if cache is not None and args.cache_file is not None:
            _install_cache_snapshot_handler(cache, args.cache_file)
        if args.workers is not None and args.workers > 1:
            session.ensure_runtime(args.workers)
        if args.http is not None:
            source = args.graph_store or args.dataset
            print(
                f"serving {source} (n={graph.n}, m={graph.m}) on "
                f"http://{args.host}:{args.http} — POST /query, GET /stats",
                file=sys.stderr,
            )
            summary = serve_http(
                session, args.host, args.http,
                default_deadline_ms=args.deadline_ms,
            )
        else:
            summary = serve_ndjson(
                session, sys.stdin, sys.stdout,
                default_deadline_ms=args.deadline_ms,
            )
    if cache is not None and args.cache_file is not None:
        saved = cache.save(args.cache_file)
        print(f"cache snapshot {args.cache_file}: saved {saved} entries",
              file=sys.stderr)
    print(json.dumps(summary), file=sys.stderr)
    return 0


def _install_cache_snapshot_handler(cache, path) -> None:
    """Snapshot the result cache when the server is SIGTERM'd.

    The handler persists the cache, shuts the local pool's hosts down,
    then re-raises the default disposition so the exit status still
    reports the signal.
    """
    import os
    import signal

    def _snapshot(signum, _frame):  # pragma: no cover - signal path
        try:
            cache.save(path)
        finally:
            from .core.parallel import shutdown_runtime

            shutdown_runtime()
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)

    signal.signal(signal.SIGTERM, _snapshot)


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None,
        help="sampling workers: forked local hosts (default serial)",
    )


def _add_hosts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--hosts", default=None, metavar="HOST:PORT,...",
        help="shard chunked sampling across these repro dist-worker "
        "hosts (comma-separated; each must serve a replica of the "
        "same graph)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="k-boosting reproduction (Lin, Chen, Lui; ICDE 2017)",
    )
    parser.add_argument("--seed", type=int, default=7, help="RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the synthetic dataset stand-ins")

    p_boost = sub.add_parser("boost", help="run PRR-Boost on a dataset")
    p_boost.add_argument("--dataset", choices=dataset_names(), default="digg-like")
    p_boost.add_argument("--k", type=int, default=50)
    p_boost.add_argument("--seeds", type=int, default=20)
    p_boost.add_argument("--lb", action="store_true", help="use PRR-Boost-LB")
    p_boost.add_argument("--max-samples", type=int, default=10_000)
    p_boost.add_argument("--mc-runs", type=int, default=1000)
    _add_workers(p_boost)

    p_cmp = sub.add_parser("compare", help="compare all six algorithms")
    p_cmp.add_argument("--dataset", choices=dataset_names(), default="digg-like")
    p_cmp.add_argument("--k", type=int, default=25)
    p_cmp.add_argument("--seeds", type=int, default=15)
    p_cmp.add_argument("--seed-mode", choices=("influential", "random"),
                       default="influential")
    p_cmp.add_argument("--max-samples", type=int, default=4000)
    p_cmp.add_argument("--mc-runs", type=int, default=500)
    _add_workers(p_cmp)

    p_tree = sub.add_parser("tree", help="Greedy-Boost vs DP-Boost on a tree")
    p_tree.add_argument("--nodes", type=int, default=255)
    p_tree.add_argument("--k", type=int, default=8)
    p_tree.add_argument("--seeds", type=int, default=12)
    p_tree.add_argument("--epsilon", type=float, default=0.5)

    p_budget = sub.add_parser("budget", help="seeding/boosting budget sweep")
    p_budget.add_argument("--dataset", choices=dataset_names(),
                          default="flixster-like")
    p_budget.add_argument("--max-seeds", type=int, default=20)
    p_budget.add_argument("--cost-ratio", type=int, default=20)
    p_budget.add_argument("--max-samples", type=int, default=4000)
    p_budget.add_argument("--mc-runs", type=int, default=500)
    _add_workers(p_budget)

    p_ingest = sub.add_parser(
        "ingest",
        help="convert an edge list (text or .gz, SNAP-style comments, "
        "arbitrary node ids) into a binary graph store",
    )
    p_ingest.add_argument("input", help="edge-list file (plain or gzip'd)")
    p_ingest.add_argument(
        "output", nargs="?", default=None,
        help="store path (default: input with .rpgs suffix)",
    )
    p_ingest.add_argument(
        "--prob", default="auto",
        help="probability model: auto (file columns, else weighted "
        "cascade), wc, or const:<p>",
    )
    p_ingest.add_argument(
        "--beta", type=float, default=None,
        help="boost parameter: pp = 1-(1-p)^beta when the file has no pp "
        "column (default: pp = p)",
    )
    p_ingest.add_argument(
        "--chunk-edges", type=int, default=None,
        help="edges per streaming chunk (the ingest memory knob)",
    )
    p_ingest.add_argument(
        "--no-engine", action="store_true",
        help="skip the persisted engine-precompute section (smaller file, "
        "slower first query)",
    )
    p_ingest.add_argument(
        "--json", action="store_true", help="print the ingest report as JSON"
    )

    p_query = sub.add_parser(
        "query", help="answer a JSON batch of typed queries in one session"
    )
    p_query.add_argument("--dataset", choices=dataset_names(), default="digg-like")
    p_query.add_argument(
        "--graph-store", default=None, metavar="PATH",
        help="open this binary graph store (mmap, zero-copy) instead of "
        "building --dataset in RAM",
    )
    p_query.add_argument(
        "--file", default="-",
        help="JSON file holding the query list ('-' reads stdin)",
    )
    p_query.add_argument(
        "--json", action="store_true",
        help="print full QueryResult envelopes as JSON (default: summary table)",
    )
    p_query.add_argument(
        "--max-samples", type=int, default=10_000,
        help="default budget for queries that do not carry one",
    )
    p_query.add_argument("--mc-runs", type=int, default=1000)
    p_query.add_argument(
        "--model", choices=model_names(), default=None,
        help="default diffusion model for queries that do not name one "
        "(ic = incoming-boost IC, ic_out = outgoing-boost, lt = linear "
        "threshold; evaluate/mc_greedy accept all three)",
    )
    _add_workers(p_query)
    _add_hosts(p_query)

    p_serve = sub.add_parser(
        "serve", help="keep one warm session serving NDJSON (stdin) or HTTP"
    )
    p_serve.add_argument("--dataset", choices=dataset_names(), default="digg-like")
    p_serve.add_argument(
        "--graph-store", default=None, metavar="PATH",
        help="serve this binary graph store (mmap, zero-copy) instead of "
        "building --dataset in RAM",
    )
    p_serve.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="serve the stdlib HTTP endpoint on PORT instead of stdin NDJSON",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--cache-size", type=int, default=256,
        help="result-cache capacity in envelopes (LRU)",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the fingerprint-keyed result cache",
    )
    p_serve.add_argument(
        "--reject-units", type=float, default=None,
        help="admission: reject queries estimated above this many work units",
    )
    p_serve.add_argument(
        "--queue-units", type=float, default=None,
        help="admission: run queries above this estimate after the admitted ones",
    )
    p_serve.add_argument(
        "--cap-samples", type=int, default=None,
        help="admission: hard cap on budget.max_samples",
    )
    p_serve.add_argument(
        "--cap-mc-runs", type=int, default=None,
        help="admission: hard cap on budget.mc_runs",
    )
    p_serve.add_argument(
        "--max-samples", type=int, default=10_000,
        help="default budget for queries that do not carry one",
    )
    p_serve.add_argument("--mc-runs", type=int, default=1000)
    p_serve.add_argument(
        "--deadline-ms", type=int, default=None,
        help="server-wide latency SLO: queries without their own "
        "deadline_ms inherit this; missed deadlines return the timeout "
        "envelope (HTTP 504)",
    )
    p_serve.add_argument(
        "--cache-file", default=None, metavar="PATH",
        help="NDJSON result-cache snapshot: loaded at startup (stale "
        "graph versions dropped), saved on SIGTERM and clean shutdown",
    )
    _add_workers(p_serve)
    _add_hosts(p_serve)

    p_worker = sub.add_parser(
        "dist-worker",
        help="serve this machine as a distributed-sampling worker host",
    )
    p_worker.add_argument(
        "--dataset", choices=dataset_names(), default="digg-like"
    )
    p_worker.add_argument(
        "--graph-store", default=None, metavar="PATH",
        help="serve this binary graph store replica (mmap, zero warm-up) "
        "instead of building --dataset in RAM",
    )
    p_worker.add_argument("--host", default="127.0.0.1")
    p_worker.add_argument(
        "--port", type=int, default=9123,
        help="listen port (0 = ephemeral; the bound port is printed in "
        "the ready line)",
    )
    p_worker.add_argument(
        "--max-sessions", type=int, default=None,
        help="exit after serving this many coordinator sessions "
        "(default: serve forever)",
    )
    _add_workers(p_worker)

    return parser


_COMMANDS = {
    "datasets": _cmd_datasets,
    "boost": _cmd_boost,
    "compare": _cmd_compare,
    "tree": _cmd_tree,
    "budget": _cmd_budget,
    "ingest": _cmd_ingest,
    "query": _cmd_query,
    "serve": _cmd_serve,
    "dist-worker": _cmd_dist_worker,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
