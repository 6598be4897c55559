"""Command-line interface.

::

    clan mine DATABASE --min-sup 0.85 [--all-frequent|--maximal] [--min-size 3]
    clan sweep DATABASE --min-sups 1.00,0.95,0.90,0.85 [--cache DIR]
    clan topk DATABASE --min-sup 85% -k 5
    clan quasi DATABASE --min-sup 2 --gamma 0.8 --max-size 5
    clan stats DATABASE [--extended]
    clan validate DATABASE
    clan lattice DATABASE --min-sup 2 [--dot]
    clan convert INPUT OUTPUT --from tve --to json
    clan diff RESULT_A RESULT_B
    clan generate {stock,chem,example} OUTPUT [options]
    clan serve DATABASE --state DIR [--port 8765] [--max-concurrency 2]
    clan submit URL [--request FILE | --task ... --min-sup ...] [--wait]
    clan watch-job URL JOB_ID
    clan experiments

``DATABASE`` is a file in ``t/v/e`` format (``--format matrix`` or
``--format json`` select the others).  ``clan`` is also reachable as
``python -m repro``.

Exit codes: 0 success; 1 comparison mismatch (diff/replay/validate);
2 usage or input error; 3 mining configuration error; 4 result
truncated by a budget (see :data:`EXIT_TRUNCATED`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .bench.experiments import registry_report
from .core.config import MinerConfig
from .core.lattice import CliqueLattice
from .core.miner import ClanMiner
from .exceptions import MiningError, ReproError
from .graphdb.database import GraphDatabase
from .graphdb.examples import paper_example_database
from .graphdb.stats import characteristics_table, database_characteristics
from .io import gspan_format, json_format, matrix_format, patterns

# ----------------------------------------------------------------------
# Exit codes (documented in docs/API.md).  Scripts can rely on these:
#
# 0  success
# 1  comparison mismatch (`clan diff`, `clan replay`, `clan validate`)
# 2  usage / input error (bad flags, unreadable or malformed files)
# 3  mining configuration error (MiningError: bad task/gamma/k/support...)
# 4  truncated result (a --deadline/--max-patterns budget stopped the
#    search; the partial patterns were still printed)
# ----------------------------------------------------------------------
EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_MINING = 3
EXIT_TRUNCATED = 4

#: ``--kernel`` choices; ``set`` is the deprecated spelling of
#: ``bitset`` (it warns and runs the int masks).
KERNEL_CHOICES = ("bitset", "slab", "set")


def _load(path: str, fmt: str) -> GraphDatabase:
    if fmt == "tve":
        return gspan_format.open_database(path)
    if fmt == "matrix":
        return matrix_format.open_database(path)
    if fmt == "json":
        return json_format.open_database(path)
    if fmt == "sqlite":
        # A view over the on-disk store: transactions stream in
        # shard-sized batches instead of materialising up front.
        from .graphdb import open_source

        return GraphDatabase(source=open_source(path))
    raise ReproError(f"unknown database format {fmt!r}")


def _save(database: GraphDatabase, path: str, fmt: str) -> None:
    if fmt == "tve":
        gspan_format.save_database(database, path)
    elif fmt == "matrix":
        matrix_format.save_database(database, path)
    elif fmt == "json":
        json_format.save_database(database, path)
    elif fmt == "sqlite":
        from .graphdb import import_graphs

        import_graphs(path, iter(database), name=database.name)
    else:
        raise ReproError(f"unknown database format {fmt!r}")


def _parse_min_sup(text: str) -> float:
    """Accept '10' (absolute), '0.85' (fraction), or '85%'.

    Thin alias over the shared :func:`repro.core.support.parse_support`
    so the CLI and the Python API accept identical spellings.
    """
    from .core.support import parse_support

    return parse_support(text)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="clan",
        description="CLAN: mine frequent closed cliques from graph transaction databases",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine frequent closed cliques")
    mine.add_argument("database", help="input database file")
    mine.add_argument("--format", default="tve",
                      choices=("tve", "matrix", "json", "sqlite"))
    mine.add_argument("--db", dest="sqlite_db", action="store_true",
                      help="shorthand for --format sqlite: DATABASE is a "
                           "store written by 'clan import'")
    mine.add_argument("--shards", type=int, default=None, metavar="N",
                      help="mine via N transaction-range shards and an exact "
                           "merge (out-of-core; results identical); a "
                           "unique-label store mines on the slab index instead")
    mine.add_argument("--shard-size", type=int, default=None, metavar="T",
                      help="like --shards, but sized in transactions per shard")
    mine.add_argument("--min-sup", default="2", help="absolute count, fraction, or percentage")
    mine.add_argument("--min-size", type=int, default=1)
    mine.add_argument("--max-size", type=int, default=None)
    kind = mine.add_mutually_exclusive_group()
    kind.add_argument("--all-frequent", action="store_true", help="report all frequent cliques")
    kind.add_argument("--maximal", action="store_true", help="report maximal frequent cliques")
    mine.add_argument("--output", default=None, help="write patterns to this file")
    mine.add_argument("--stats", action="store_true", help="print search statistics")
    mine.add_argument("--processes", type=int, default=1,
                      help="at most this many worker processes; the pool "
                           "starts only when it is predicted to pay")
    mine.add_argument("--scheduler", default="stealing",
                      choices=("stealing", "static"),
                      help="parallel root scheduler: adaptive work-stealing "
                           "with cost-guided splitting (default) or static "
                           "one task per root in canonical order; results "
                           "are identical")
    mine.add_argument("--kernel", default=None, choices=KERNEL_CHOICES,
                      help="candidate-intersection kernel: numpy slabs "
                           "(default; int masks where labels repeat) or "
                           "integer bitmasks ('set' is a deprecated alias "
                           "of 'bitset')")
    mine.add_argument("--require", default=None, metavar="L1,L2",
                      help="only report cliques containing all these labels")
    mine.add_argument("--allow", default=None, metavar="L1,L2",
                      help="restrict mining to these vertex labels")
    mine.add_argument("--forbid", default=None, metavar="L1,L2",
                      help="exclude these vertex labels from mining")
    mine.add_argument("--progress", action="store_true",
                      help="print per-root heartbeat lines to stderr")
    mine.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                      help="stop cooperatively after this much wall-clock time "
                           "and return the completed DFS roots")
    mine.add_argument("--max-patterns", type=int, default=None, metavar="N",
                      help="stop cooperatively once N patterns have been mined")
    mine.add_argument("--trace", default=None, metavar="FILE",
                      help="write the typed session event stream as JSONL")
    mine.add_argument("--checkpoint", default=None, metavar="FILE",
                      help="write a resumable checkpoint of the completed roots")
    mine.add_argument("--resume", default=None, metavar="FILE",
                      help="resume from a checkpoint written by --checkpoint")
    mine.add_argument("--cache", default=None, metavar="DIR",
                      help="reuse (and update) a persistent mining cache in "
                           "this directory; repeated runs and threshold "
                           "sweeps skip already-mined DFS roots")

    sweep = sub.add_parser(
        "sweep",
        help="mine at several support thresholds, sharing work between them",
    )
    sweep.add_argument("database", help="input database file")
    sweep.add_argument("--format", default="tve", choices=("tve", "matrix", "json"))
    sweep.add_argument("--min-sups", default="1.00,0.95,0.90,0.85",
                       metavar="S1,S2,...",
                       help="comma-separated thresholds (counts, fractions, or "
                            "percentages); one real mine at the lowest, the "
                            "rest answered by support filtering")
    sweep.add_argument("--all-frequent", action="store_true",
                       help="sweep the all-frequent task instead of closed")
    sweep.add_argument("--min-size", type=int, default=1)
    sweep.add_argument("--max-size", type=int, default=None)
    sweep.add_argument("--kernel", default=None, choices=KERNEL_CHOICES)
    sweep.add_argument("--processes", type=int, default=1,
                       help="at most this many worker processes per mining call")
    sweep.add_argument("--scheduler", default="stealing",
                       choices=("stealing", "static"))
    sweep.add_argument("--cache", default=None, metavar="DIR",
                       help="persist the cache here: later sweeps and "
                            "'clan mine --cache' runs start warm")
    sweep.add_argument("--output-dir", default=None, metavar="DIR",
                       help="write one pattern file per threshold into DIR")

    topk = sub.add_parser("topk", help="mine the k largest closed cliques")
    topk.add_argument("database")
    topk.add_argument("--format", default="tve", choices=("tve", "matrix", "json"))
    topk.add_argument("--min-sup", default="2")
    topk.add_argument("-k", type=int, default=5)
    topk.add_argument("--min-size", type=int, default=1)
    topk.add_argument("--kernel", default=None, choices=KERNEL_CHOICES,
                      help="candidate-intersection kernel (as for 'clan mine')")
    topk.add_argument("--processes", type=int, default=1,
                      help="at most this many worker processes for the root search")
    topk.add_argument("--scheduler", default="stealing",
                      choices=("stealing", "static"))
    topk.add_argument("--stats", action="store_true",
                      help="print search statistics")

    quasi = sub.add_parser("quasi", help="mine closed quasi-cliques (gamma-relaxed)")
    quasi.add_argument("database")
    quasi.add_argument("--format", default="tve", choices=("tve", "matrix", "json"))
    quasi.add_argument("--min-sup", default="2")
    quasi.add_argument("--gamma", type=float, default=0.8)
    quasi.add_argument("--min-size", type=int, default=2)
    quasi.add_argument("--max-size", type=int, default=5)
    quasi.add_argument("--kernel", default=None, choices=KERNEL_CHOICES,
                       help="candidate-intersection kernel (as for 'clan mine')")
    quasi.add_argument("--processes", type=int, default=1,
                       help="at most this many worker processes for the root search")
    quasi.add_argument("--scheduler", default="stealing",
                       choices=("stealing", "static"))
    quasi.add_argument("--cache", default=None, metavar="DIR",
                       help="persist the mining cache here: repeated runs "
                            "replay cached roots instead of re-mining")
    quasi.add_argument("--stats", action="store_true",
                       help="print search statistics")

    validate = sub.add_parser("validate", help="check database integrity")
    validate.add_argument("database")
    validate.add_argument("--format", default="tve",
                          choices=("tve", "matrix", "json", "sqlite"))

    convert = sub.add_parser("convert", help="convert between database formats")
    convert.add_argument("input")
    convert.add_argument("output")
    convert.add_argument("--from", dest="from_format", default="tve",
                         choices=("tve", "matrix", "json", "sqlite"))
    convert.add_argument("--to", dest="to_format", default="json",
                         choices=("tve", "matrix", "json", "sqlite"))

    imp = sub.add_parser(
        "import",
        help="stream a database file into an out-of-core SQLite store",
    )
    imp.add_argument("database", help="input database file")
    imp.add_argument("store", help="SQLite store to create (e.g. db.sqlite)")
    imp.add_argument("--format", default="tve", choices=("tve", "matrix", "json"))
    imp.add_argument("--name", default="",
                     help="database name recorded in the store "
                          "(defaults to the input file name)")

    diff = sub.add_parser("diff", help="compare two pattern result files")
    diff.add_argument("left")
    diff.add_argument("right")

    record = sub.add_parser("record", help="mine and write a reproducible run record")
    record.add_argument("database")
    record.add_argument("record_file")
    record.add_argument("--format", default="tve", choices=("tve", "matrix", "json"))
    record.add_argument("--min-sup", default="2")
    record.add_argument("--min-size", type=int, default=1)

    replay = sub.add_parser("replay", help="re-mine a recorded run and compare")
    replay.add_argument("record_file")
    replay.add_argument("database")
    replay.add_argument("--format", default="tve", choices=("tve", "matrix", "json"))

    stats = sub.add_parser("stats", help="print database characteristics (Table 1 style)")
    stats.add_argument("database")
    stats.add_argument("--format", default="tve",
                       choices=("tve", "matrix", "json", "sqlite"))
    stats.add_argument("--extended", action="store_true")

    lattice = sub.add_parser("lattice", help="print the frequent-clique lattice (Figure 4)")
    lattice.add_argument("database")
    lattice.add_argument("--format", default="tve", choices=("tve", "matrix", "json"))
    lattice.add_argument("--min-sup", default="2")
    lattice.add_argument("--dot", action="store_true", help="emit Graphviz DOT")

    generate = sub.add_parser("generate", help="generate a synthetic database")
    generate.add_argument("kind", choices=("stock", "chem", "example"))
    generate.add_argument("output")
    generate.add_argument("--format", default="tve", choices=("tve", "matrix", "json"))
    generate.add_argument("--theta", type=float, default=0.90, help="stock: correlation threshold")
    generate.add_argument("--scale", default="small", help="stock: tiny/small/medium/paper")
    generate.add_argument("--compounds", type=int, default=422, help="chem: compound count")
    generate.add_argument("--seed", type=int, default=7)

    serve = sub.add_parser(
        "serve",
        help="run the mining service: a multi-tenant HTTP control plane "
             "over one database",
    )
    serve.add_argument("database", help="the database jobs mine by default")
    serve.add_argument("--format", default="tve",
                       choices=("tve", "matrix", "json", "sqlite"))
    serve.add_argument("--storage-root", default=None, metavar="DIR",
                       help="allow jobs to name an alternative SQLite store "
                            "(X-Clan-Database header / --database-uri) "
                            "resolved inside this directory")
    serve.add_argument("--state", required=True, metavar="DIR",
                       help="durable state: job records, result envelopes, "
                            "per-job checkpoints, and the shared mining cache; "
                            "restarting on the same DIR resumes unfinished jobs")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--max-concurrency", type=int, default=2,
                       help="jobs mining at once; the rest queue fairly "
                            "round-robin across tenants")
    serve.add_argument("--default-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job SLO: a deadline budget applied to "
                            "requests that carry no budget of their own")

    submit = sub.add_parser(
        "submit", help="submit a mining job to a running 'clan serve'"
    )
    submit.add_argument("url", help="service address, e.g. http://127.0.0.1:8765")
    submit.add_argument("--request", default=None, metavar="FILE",
                        help="a mining-request JSON file (the exact wire "
                             "format); when given, the task flags are ignored")
    submit.add_argument("--tenant", default="default",
                        help="tenant name (the X-Clan-Tenant header)")
    submit.add_argument("--task", default="closed",
                        choices=("closed", "frequent", "maximal", "topk", "quasi"))
    submit.add_argument("--min-sup", default="2")
    submit.add_argument("--min-size", type=int, default=1)
    submit.add_argument("--max-size", type=int, default=None)
    submit.add_argument("-k", type=int, default=None, help="topk: patterns to keep")
    submit.add_argument("--gamma", type=float, default=None,
                        help="quasi: density threshold in [0.5, 1.0]")
    submit.add_argument("--kernel", default=None, choices=KERNEL_CHOICES)
    submit.add_argument("--database-uri", default=None, metavar="NAME",
                        help="mine this SQLite store (relative to the "
                             "service's --storage-root) instead of the "
                             "service's default database")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes and print its "
                             "result envelope JSON to stdout")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="--wait: seconds to wait before giving up")

    watch = sub.add_parser(
        "watch-job",
        help="stream a job's live session events (JSONL; ends when the job does)",
    )
    watch.add_argument("url", help="service address, e.g. http://127.0.0.1:8765")
    watch.add_argument("job_id")

    sub.add_parser("experiments", help="list the paper's tables/figures and their benchmarks")
    return parser


def _split_labels(text: Optional[str]) -> Optional[List[str]]:
    if text is None:
        return None
    labels = [token.strip() for token in text.split(",") if token.strip()]
    if not labels:
        raise ReproError(f"no labels in {text!r}")
    return labels


def _open_cli_cache(path: Optional[str]):
    """Load (or create) the persistent cache behind ``--cache DIR``."""
    if not path:
        return None
    from pathlib import Path

    from .io.runlog import load_or_create_cache

    Path(path).mkdir(parents=True, exist_ok=True)
    return load_or_create_cache(path)


def _save_cli_cache(cache, path: Optional[str]) -> None:
    if cache is None or not path:
        return
    from .io.runlog import save_cache

    target = save_cache(cache, path)
    print(
        f"# cache: {cache.hits} root hits, {cache.misses} misses "
        f"({len(cache)} entries saved to {target})",
        file=sys.stderr,
    )


def _session_mine(args: argparse.Namespace, database, min_sup, cache=None):
    """The ``clan mine`` control-plane path (--progress/--deadline/...)."""
    from .core.api import MiningRequest
    from .core.session import (
        JsonlTraceSink,
        MiningBudget,
        MiningSession,
        ProgressSink,
    )
    from .io.runlog import open_checkpoint, save_checkpoint

    sinks = []
    if args.progress:
        sinks.append(ProgressSink())
    if args.trace:
        sinks.append(JsonlTraceSink(args.trace))
    budget = None
    if args.deadline is not None or args.max_patterns is not None:
        budget = MiningBudget(
            deadline_seconds=args.deadline, max_patterns=args.max_patterns
        )
    resume_from = open_checkpoint(args.resume) if args.resume else None
    task = _mine_task(args)
    request = MiningRequest.from_options(
        min_sup,
        task=task,
        min_size=args.min_size,
        max_size=args.max_size,
        kernel=args.kernel,
        processes=max(args.processes, 1),
        scheduler=args.scheduler,
        budget=budget,
    )
    session = MiningSession.from_request(
        database,
        request,
        sinks=sinks,
        resume_from=resume_from,
        cache=cache,
    )
    result = session.run()
    if args.checkpoint:
        save_checkpoint(session.checkpoint(), args.checkpoint)
        print(
            f"# checkpoint ({len(result.completed_roots or ())} completed roots) "
            f"written to {args.checkpoint}",
            file=sys.stderr,
        )
    if result.truncated:
        print(
            f"# TRUNCATED: partial result covers {len(result.completed_roots or ())} "
            f"completed roots; resume with --resume to finish",
            file=sys.stderr,
        )
    return result, task


def _mine_task(args: argparse.Namespace) -> str:
    if args.maximal:
        return "maximal"
    return "frequent" if args.all_frequent else "closed"


def cmd_mine(args: argparse.Namespace) -> int:
    fmt = "sqlite" if getattr(args, "sqlite_db", False) else args.format
    database = _load(args.database, fmt)
    min_sup = _parse_min_sup(args.min_sup)
    require = _split_labels(args.require)
    allow = _split_labels(args.allow)
    forbid = _split_labels(args.forbid)
    task = _mine_task(args)
    if args.maximal and args.max_size is not None:
        raise ReproError(
            "--maximal cannot be combined with --max-size; a size ceiling "
            "makes subcliques of capped cliques look maximal"
        )
    session_wanted = bool(
        args.progress
        or args.deadline is not None
        or args.max_patterns is not None
        or args.trace
        or args.checkpoint
        or args.resume
    )
    if session_wanted and (require or allow or forbid):
        raise ReproError(
            "--progress/--deadline/--max-patterns/--trace/--checkpoint/--resume "
            "cannot be combined with label constraints"
        )
    if args.cache and (require or allow or forbid):
        raise ReproError(
            "--cache cannot be combined with label constraints"
        )
    sharded = bool(args.shards or args.shard_size)
    if sharded and (session_wanted or require or allow or forbid or args.cache):
        raise ReproError(
            "--shards/--shard-size cannot be combined with session options, "
            "label constraints, or --cache"
        )
    cache = _open_cli_cache(args.cache)
    if require or allow or forbid:
        if args.maximal or args.all_frequent:
            raise ReproError(
                "label constraints are only supported for closed mining"
            )
        from .core.constraints import CliqueConstraints, mine_with_constraints

        constraints = CliqueConstraints.of(
            allowed=allow,
            forbidden=forbid or (),
            required=require or (),
            min_size=args.min_size,
            max_size=args.max_size,
        )
        result = mine_with_constraints(
            database,
            min_sup,
            constraints,
            kernel=args.kernel,
            processes=max(args.processes, 1),
            scheduler=args.scheduler,
        )
        sys.stdout.write(patterns.dumps_result(result))
        print(
            f"# {len(result)} closed cliques under constraints, "
            f"min_sup={result.min_sup}",
            file=sys.stderr,
        )
        if args.output:
            patterns.save_result(result, args.output)
        return 0
    if session_wanted:
        result, kind = _session_mine(args, database, min_sup, cache=cache)
    else:
        # One engine path for closed / frequent / maximal: kernels,
        # worker pools, and the cache apply to every task.
        from .core.api import MiningRequest, execute_request

        request = MiningRequest.from_options(
            min_sup,
            task=task,
            min_size=args.min_size,
            max_size=args.max_size,
            kernel=args.kernel,
            processes=max(args.processes, 1),
            scheduler=args.scheduler,
        )
        if sharded:
            from .core.sharding import mine_sharded

            result = mine_sharded(
                database, request, shards=args.shards, shard_size=args.shard_size
            )
        else:
            result = execute_request(database, request, cache=cache)
        kind = task
    _save_cli_cache(cache, args.cache)
    if args.output:
        patterns.save_result(result, args.output)
        print(f"{len(result)} patterns written to {args.output}")
    else:
        sys.stdout.write(patterns.dumps_result(result))
    print(
        f"# {len(result)} {kind} cliques, min_sup={result.min_sup}, "
        f"{result.elapsed_seconds:.3f}s",
        file=sys.stderr,
    )
    if args.stats:
        print("# " + result.statistics.summary(), file=sys.stderr)
    return EXIT_TRUNCATED if result.truncated else EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    from .core.cache import sweep as run_sweep

    database = _load(args.database, args.format)
    specs = [token.strip() for token in args.min_sups.split(",") if token.strip()]
    if not specs:
        raise ReproError(f"no thresholds in {args.min_sups!r}")
    supports = [_parse_min_sup(token) for token in specs]
    cache = _open_cli_cache(args.cache)
    results = run_sweep(
        database,
        supports,
        task="frequent" if args.all_frequent else "closed",
        cache=cache,
        min_size=args.min_size,
        max_size=args.max_size,
        kernel=args.kernel,
        processes=max(args.processes, 1),
        scheduler=args.scheduler if args.processes > 1 else None,
    )
    print(f"{'min_sup':>10} {'absolute':>8} {'patterns':>8} "
          f"{'cached_roots':>12} {'seconds':>8}")
    for token, spec in zip(specs, supports):
        result = results[spec]
        print(
            f"{token:>10} {result.min_sup:>8} {len(result):>8} "
            f"{result.statistics.roots_from_cache:>12} "
            f"{result.elapsed_seconds:>8.3f}"
        )
    if args.output_dir:
        from pathlib import Path

        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for token, spec in zip(specs, supports):
            target = out / f"patterns-{token.replace('%', 'pct')}.json"
            patterns.save_result(results[spec], target)
        print(f"# {len(specs)} pattern files written to {out}", file=sys.stderr)
    _save_cli_cache(cache, args.cache)
    return 0


def cmd_topk(args: argparse.Namespace) -> int:
    from .core.api import MiningRequest, execute_request

    database = _load(args.database, args.format)
    request = MiningRequest.from_options(
        _parse_min_sup(args.min_sup),
        task="topk",
        k=args.k,
        min_size=args.min_size,
        kernel=args.kernel,
        processes=max(args.processes, 1),
        scheduler=args.scheduler,
    )
    result = execute_request(database, request)
    for pattern in result:
        print(pattern.key())
    print(f"# top-{args.k} closed cliques by size", file=sys.stderr)
    if args.stats:
        print("# " + result.statistics.summary(), file=sys.stderr)
    return EXIT_OK


def cmd_quasi(args: argparse.Namespace) -> int:
    from .core.api import MiningRequest, execute_request

    database = _load(args.database, args.format)
    cache = _open_cli_cache(args.cache)
    request = MiningRequest.from_options(
        _parse_min_sup(args.min_sup),
        task="quasi",
        gamma=args.gamma,
        min_size=args.min_size,
        max_size=args.max_size,
        kernel=args.kernel,
        processes=max(args.processes, 1),
        scheduler=args.scheduler,
    )
    result = execute_request(database, request, cache=cache)
    sys.stdout.write(patterns.dumps_result(result))
    print(
        f"# {len(result)} closed {args.gamma}-quasi-cliques "
        f"(sizes {args.min_size}..{args.max_size})",
        file=sys.stderr,
    )
    if args.stats:
        print("# " + result.statistics.summary(), file=sys.stderr)
    _save_cli_cache(cache, args.cache)
    return EXIT_OK


def _service_endpoint(url: str):
    """Parse 'http://host:port' (or bare 'host:port') into (host, port)."""
    from urllib.parse import urlsplit

    split = urlsplit(url if "//" in url else f"//{url}", scheme="http")
    if not split.hostname or not split.port:
        raise ReproError(
            f"service url must include host and port, got {url!r} "
            "(e.g. http://127.0.0.1:8765)"
        )
    return split.hostname, split.port


def _http_json(host, port, method, path, body=None, headers=None, timeout=310.0):
    """One JSON request/response against the service."""
    import http.client
    import json as json_

    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        payload = json_.loads(response.read().decode("utf-8") or "{}")
        return response.status, payload
    finally:
        conn.close()


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .core.session import MiningBudget
    from .service import MiningService

    database = _load(args.database, args.format)
    budget = (
        MiningBudget(deadline_seconds=args.default_deadline)
        if args.default_deadline is not None
        else None
    )
    service = MiningService(
        database,
        args.state,
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        default_budget=budget,
        storage_root=args.storage_root,
    )

    def announce(host: str, port: int) -> None:
        print(
            f"# clan service on http://{host}:{port} "
            f"({len(database)} graphs, state: {args.state})",
            file=sys.stderr,
        )

    try:
        asyncio.run(service.run_forever(announce))
    except KeyboardInterrupt:
        print("# interrupted; shutting down", file=sys.stderr)
    return EXIT_OK


def cmd_submit(args: argparse.Namespace) -> int:
    import json as json_

    from .core.api import MiningRequest

    host, port = _service_endpoint(args.url)
    if args.request:
        from .io.runlog import open_request

        request = open_request(args.request)
    else:
        request = MiningRequest.from_options(
            args.min_sup,
            task=args.task,
            min_size=args.min_size,
            max_size=args.max_size,
            k=args.k,
            gamma=args.gamma,
            kernel=args.kernel,
        )
    headers = {"X-Clan-Tenant": args.tenant}
    if args.database_uri:
        headers["X-Clan-Database"] = args.database_uri
    status, payload = _http_json(
        host,
        port,
        "POST",
        "/v1/jobs",
        body=request.to_json(),
        headers=headers,
    )
    if status != 202:
        raise ReproError(f"submit failed ({status}): {payload.get('error', payload)}")
    job_id = payload["id"]
    if not args.wait:
        print(job_id)
        return EXIT_OK
    print(f"# submitted {job_id}; waiting", file=sys.stderr)
    status, payload = _http_json(
        host,
        port,
        "GET",
        f"/v1/jobs/{job_id}/result?wait=1&timeout={args.timeout}",
        timeout=args.timeout + 10.0,
    )
    if status != 200:
        raise MiningError(
            f"job {job_id} did not finish: {payload.get('error', payload)}"
        )
    print(json_.dumps(payload, indent=1, sort_keys=True))
    truncated = payload.get("result", {}).get("truncated")
    return EXIT_TRUNCATED if truncated else EXIT_OK


def cmd_watch_job(args: argparse.Namespace) -> int:
    import http.client
    import json as json_

    host, port = _service_endpoint(args.url)
    conn = http.client.HTTPConnection(host, port, timeout=3600.0)
    try:
        conn.request("GET", f"/v1/jobs/{args.job_id}/trace")
        response = conn.getresponse()
        if response.status != 200:
            payload = json_.loads(response.read().decode("utf-8") or "{}")
            raise ReproError(
                f"watch failed ({response.status}): "
                f"{payload.get('error', payload)}"
            )
        while True:
            line = response.readline()
            if not line:
                break
            sys.stdout.write(line.decode("utf-8"))
            sys.stdout.flush()
    finally:
        conn.close()
    status, payload = _http_json(host, port, "GET", f"/v1/jobs/{args.job_id}")
    state = payload.get("state") if status == 200 else "unknown"
    print(f"# job {args.job_id}: {state}", file=sys.stderr)
    if state == "done":
        return EXIT_OK
    if state == "failed":
        return EXIT_MINING
    return EXIT_TRUNCATED


def cmd_validate(args: argparse.Namespace) -> int:
    from .graphdb.validation import validate_database

    database = _load(args.database, args.format)
    report = validate_database(database)
    print(report.render())
    return 0 if report.ok else 1


def cmd_convert(args: argparse.Namespace) -> int:
    database = _load(args.input, args.from_format)
    _save(database, args.output, args.to_format)
    print(f"converted {len(database)} graphs: {args.input} ({args.from_format}) "
          f"-> {args.output} ({args.to_format})")
    return 0


def cmd_import(args: argparse.Namespace) -> int:
    from .graphdb import import_graphs

    name = args.name or args.database
    if args.format == "tve":
        graphs = gspan_format.iter_database_file(args.database)
    elif args.format == "json":
        graphs = json_format.iter_database_file(args.database)
    else:
        # The matrix format has no streaming reader; the eager parse is
        # the bound, the store write still batches.
        graphs = iter(_load(args.database, args.format))
    source = import_graphs(args.store, graphs, name=name)
    print(f"imported {len(source)} graphs into {args.store}")
    source.close()
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from .analysis import diff_results

    left = patterns.open_result(args.left)
    right = patterns.open_result(args.right)
    diff = diff_results(left, right)
    print(diff.render())
    return 0 if diff.identical else 1


def cmd_record(args: argparse.Namespace) -> int:
    from .io.runlog import record_run, save_record

    database = _load(args.database, args.format)
    config = MinerConfig(min_size=args.min_size)
    record = record_run(database, _parse_min_sup(args.min_sup), config)
    save_record(record, args.record_file)
    print(
        f"recorded {len(record.patterns())} patterns "
        f"(min_sup={record.min_sup}, fingerprint "
        f"{record.database_fingerprint[:12]}...) to {args.record_file}"
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from .io.runlog import open_record, replay

    record = open_record(args.record_file)
    database = _load(args.database, args.format)
    outcome = replay(record, database)
    print(f"database fingerprint matches: {outcome.fingerprint_matches}")
    print(f"patterns match: {outcome.patterns_match} "
          f"({outcome.recorded_patterns} recorded, {outcome.replayed_patterns} replayed)")
    print("reproduced" if outcome.reproduced else "NOT reproduced")
    return 0 if outcome.reproduced else 1


def cmd_stats(args: argparse.Namespace) -> int:
    database = _load(args.database, args.format)
    print(characteristics_table([database_characteristics(database)], extended=args.extended))
    return 0


def cmd_lattice(args: argparse.Namespace) -> int:
    database = _load(args.database, args.format)
    config = MinerConfig(closed_only=False, nonclosed_prefix_pruning=False)
    result = ClanMiner(database, config).mine(_parse_min_sup(args.min_sup))
    lattice = CliqueLattice.from_result(result)
    print(lattice.to_dot() if args.dot else lattice.render())
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "stock":
        from .stockmarket.datasets import stock_market_database

        database = stock_market_database(theta=args.theta, scale=args.scale, seed=args.seed)
    elif args.kind == "chem":
        from .chem.generator import ca_like_database

        database = ca_like_database(n_compounds=args.compounds, seed=args.seed)
    else:
        database = paper_example_database()
    _save(database, args.output, args.format)
    print(
        f"wrote {len(database)} graphs "
        f"(avg |V|={database.average_vertices():.1f}, avg |E|={database.average_edges():.1f}) "
        f"to {args.output}"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "mine": cmd_mine,
        "sweep": cmd_sweep,
        "topk": cmd_topk,
        "quasi": cmd_quasi,
        "stats": cmd_stats,
        "validate": cmd_validate,
        "lattice": cmd_lattice,
        "convert": cmd_convert,
        "import": cmd_import,
        "diff": cmd_diff,
        "record": cmd_record,
        "replay": cmd_replay,
        "generate": cmd_generate,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "watch-job": cmd_watch_job,
        "experiments": lambda _: (print(registry_report()), 0)[1],
    }
    try:
        return handlers[args.command](args)
    except MiningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MINING
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
