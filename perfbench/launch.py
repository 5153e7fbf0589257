"""Traced launcher: ``python3 perfbench/launch.py SPANS_OUT <soilnet args>``.

Wraps the program's layer entry points with span recorders, runs
``soilnet.cli.main(<soilnet args>)`` in this process and, once ``main``
returns (``serve`` returns on SIGTERM), writes the spans to SPANS_OUT as JSON.
The program's source is not touched: only attributes of its imported
modules are replaced in this process.
"""

from __future__ import annotations

import sys

import common
import spans


def _line_key(args):
    """Reading key of a PUB line passed to Gateway.handle_line."""
    try:
        kind, topic, seq = args[1].split(b" ", 3)[:3]
        parts = topic.decode("ascii").split("/")
        if kind != b"PUB" or len(parts) != 7:
            return None
        return common.reading_key(parts[3], parts[5], parts[6], seq.decode("ascii"))
    except (ValueError, UnicodeDecodeError):
        return None


def _row_key(args):
    row = args[1]
    return common.reading_key(row.profile_id, row.depth_cm, row.channel.value, row.seq)


def instrument(rec: spans.Recorder) -> None:
    from soilnet import gateway, sim, store

    gateway.Gateway.handle_line = rec.wrap(
        "gateway.handle_line", gateway.Gateway.handle_line, key=_line_key)
    gateway.classify_line = rec.wrap(
        "protocol.classify_line", gateway.classify_line,
        tag=lambda a, r: r[0].value if r and r[0] is not None else None)
    store.Store.append = rec.wrap("store.append", store.Store.append, key=_row_key)
    store.Store.last_seqs = rec.wrap("store.last_seqs", store.Store.last_seqs)
    sim.step = rec.wrap(
        "sim.step", sim.step, tag=lambda a, r: [a[3], 0 if r is None else len(r)])


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    common.bootstrap()
    rec = spans.Recorder()
    instrument(rec)
    from soilnet import cli

    try:
        return cli.main(cli_args)
    finally:
        rec.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
