#!/usr/bin/env python3
"""Static drift check between the protocol registry and its consumers.

The registry (:mod:`repro.protocols`) is the single source of truth for
algorithm dispatch; this tool fails CI when anything drifts away from
it:

* **completeness** — every public ``repro.core.run_*`` entry point must
  be some protocol's ``entry`` (no orphaned algorithms);
* **CLI** — the ``repro`` subcommand tree must contain exactly the
  protocols carrying a presentable :class:`CliSpec` (plus the
  pipeline commands), and the ``repro trace run`` algorithm choices
  must equal the registry entries with the ``trace`` capability;
* **docs** — ``docs/protocols.md`` must carry a table row for every
  registered protocol, and no rows for unregistered ones.

Entry points are the functions themselves and capabilities are checked
when a :class:`Protocol` is built, so neither needs a check here.

Usage::

    PYTHONPATH=src python tools/check_registry.py

Exit status is nonzero on any drift; ``tests/protocols/test_registry.py``
runs the same entry point under pytest so the check is tier-1.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Callable, List

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

#: The hand-written pipeline commands; everything else in the ``repro``
#: command tree must come from the registry.
PIPELINE_COMMANDS = {
    "experiment", "campaign", "trace", "bench",
    "serve", "serve-bench", "serve-chaos", "cache",
}

DOCS_TABLE = REPO_ROOT / "docs" / "protocols.md"


def check_core_completeness(problems: List[str]) -> None:
    from repro import core, protocols

    public = {
        getattr(core, name) for name in dir(core)
        if name.startswith("run_") and callable(getattr(core, name))
    }
    registered = {p.entry for p in protocols.protocols()}
    for entry in sorted(public - registered, key=lambda f: f.__name__):
        problems.append(
            f"core.{entry.__name__} is public but no protocol "
            f"registers it"
        )


def _subparser_choices(parser) -> dict:
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(
            action.choices, dict
        ):
            return action.choices
    return {}


def check_cli(problems: List[str]) -> None:
    from repro import protocols
    from repro.cli import build_parser

    commands = _subparser_choices(build_parser())
    expected = PIPELINE_COMMANDS | {
        p.name for p in protocols.protocols()
        if p.cli is not None and p.cli.present is not None
    }
    for name in sorted(set(commands) - expected):
        problems.append(
            f"CLI subcommand {name!r} is not registry-derived"
        )
    for name in sorted(expected - set(commands)):
        problems.append(
            f"protocol {name!r} has a presentable CliSpec but no "
            f"CLI subcommand"
        )

    trace_run = _subparser_choices(commands["trace"])["run"]
    for action in trace_run._actions:
        if action.dest == "algorithm":
            traceable = {
                p.name for p in protocols.protocols()
                if "trace" in p.capabilities
            }
            if set(action.choices) != traceable:
                problems.append(
                    "`repro trace run` choices "
                    f"{sorted(action.choices)} != trace-capable "
                    f"protocols {sorted(traceable)}"
                )
            break
    else:
        problems.append(
            "`repro trace run` has no algorithm choices to check"
        )


def check_docs(problems: List[str]) -> None:
    from repro import protocols

    if not DOCS_TABLE.exists():
        problems.append(f"{DOCS_TABLE} is missing")
        return
    text = DOCS_TABLE.read_text(encoding="utf-8")
    documented = set(
        re.findall(r"^\|\s*`([a-z0-9-]+)`", text, flags=re.MULTILINE)
    )
    registered = set(protocols.names())
    for name in sorted(registered - documented):
        problems.append(
            f"docs/protocols.md has no table row for {name!r}"
        )
    for name in sorted(documented - registered):
        problems.append(
            f"docs/protocols.md documents {name!r}, which is not "
            f"registered"
        )


CHECKS: List[Callable[[List[str]], None]] = [
    check_core_completeness,
    check_cli,
    check_docs,
]


def main() -> int:
    problems: List[str] = []
    for check in CHECKS:
        check(problems)
    if problems:
        print(f"registry drift: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    from repro import protocols

    print(
        f"registry OK: {len(protocols.names())} protocols, "
        f"{len(CHECKS)} checks"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
