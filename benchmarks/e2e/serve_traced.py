"""`clan serve` with the benchmark's span recorder installed.

Usage (the runner starts it with ``src`` on ``PYTHONPATH``)::

    python benchmarks/e2e/serve_traced.py --spans SPANS.jsonl serve DB --state DIR --port 0

The recorder wraps the seams in :mod:`spans` before the service starts
and writes its spans to ``--spans`` when `clan serve` returns (SIGINT).
"""

from __future__ import annotations

import sys

import spans


def main(argv: list) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: serve_traced.py --spans FILE serve ...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[2:]
    from repro.cli import main as clan_main

    recorder = spans.Recorder().install()
    try:
        return clan_main(cli_args)
    finally:
        recorder.uninstall()
        recorder.write_jsonl(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
