"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the paper's artifacts without writing code:

- ``table1``     — the pitfall x configuration outcome matrix;
- ``table2``     — the constraint classification counts;
- ``coverage``   — the §6.3 microbenchmark coverage comparison;
- ``machines``   — the Figures 6-8 state machine catalog;
- ``generate``   — dump the synthesized wrapper module source;
- ``fig9``       — the three error-message styles;
- ``fig10``      — the local-reference time series (original vs fixed);
- ``fig11``      — the Python/C dangling-borrow demonstration;
- ``demo``       — run one microbenchmark under a chosen configuration;
- ``dispatch``   — the (function, direction) dispatch-index statistics;
- ``pipeline``   — inspect the compiled call pipeline: ``show``;
- ``trace``      — FFI event record/replay: ``record``, ``replay``,
  ``diff``, ``corpus``, and ``recover`` subcommands;
- ``fuzz``       — spec-driven FFI fuzzing: ``run``, ``shrink``,
  ``corpus``, ``faults``, ``graph``;
- ``resilience`` — checker containment and the overhead governor:
  ``chaos``, ``status``;
- ``obs``        — observe a checked run: ``snapshot``, ``top``,
  ``diff``, ``export``;
- ``status``     — one roll-up of pipeline, governor, caches, telemetry.

One module per command group (``repro.cli.paper``, ``.dispatch``,
``.pipeline``, ``.trace``, ``.fuzz``, ``.resilience``, ``.obs``,
``.status``); each exposes a ``COMMANDS`` mapping and an
``add_parsers(sub)`` hook this package assembles into the single
``repro`` parser.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import dispatch as _dispatch_group
from repro.cli import fuzz as _fuzz_group
from repro.cli import obs as _obs_group
from repro.cli import paper as _paper_group
from repro.cli import pipeline as _pipeline_group
from repro.cli import resilience as _resilience_group
from repro.cli import status as _status_group
from repro.cli import trace as _trace_group

#: Parser-registration order fixes ``repro --help``'s command listing.
_GROUPS = (
    _paper_group,
    _dispatch_group,
    _pipeline_group,
    _trace_group,
    _fuzz_group,
    _resilience_group,
    _obs_group,
    _status_group,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Jinn (PLDI 2010) reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for group in _GROUPS:
        group.add_parsers(sub)
    return parser


_COMMANDS = {}
for _group in _GROUPS:
    _COMMANDS.update(_group.COMMANDS)

_TRACE_COMMANDS = _trace_group.SUBCOMMANDS
_FUZZ_COMMANDS = _fuzz_group.SUBCOMMANDS
_RESILIENCE_COMMANDS = _resilience_group.SUBCOMMANDS
_PIPELINE_COMMANDS = _pipeline_group.SUBCOMMANDS
_OBS_COMMANDS = _obs_group.SUBCOMMANDS


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
