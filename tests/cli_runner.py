"""Run the CLI in this process and capture what it prints.

`invoke(main, args, env=None)` returns a `Result`: the exit code, the
output (stdout and stderr interleaved in the order written) and stderr
alone.  An exception that the CLI lets through is raised to the test."""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from unittest import mock


@dataclass
class Result:
    exit_code: int
    output: str
    stderr: str


class _Stream(io.StringIO):
    """A stream that also copies each write to ``both``."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


def invoke(main, args: list[str], env: dict[str, str] | None = None) -> Result:
    """Call ``main(args)`` with ``env`` added to the environment."""
    output = io.StringIO()
    stderr = _Stream(output)
    with mock.patch.dict(os.environ, env or {}), \
            redirect_stdout(_Stream(output)), redirect_stderr(stderr):
        try:
            code = main(args)
        except SystemExit as exc:
            # argparse exits on a usage error and after --help.
            code = exc.code
    return Result(code or 0, output.getvalue(), stderr.getvalue())
