"""tools/cli_times.py times every CLI command."""

from __future__ import annotations

import sys
from pathlib import Path

from clustersc.cli import build_parser

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_every_command_timed(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    monkeypatch.delitem(sys.modules, "cli_times", raising=False)
    import cli_times

    assert set(cli_times.COMMANDS) == set(build_parser()[1])
    for name, argv in cli_times.COMMANDS.items():
        assert argv[0] == name
