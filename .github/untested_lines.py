"""Fail when the test suite leaves a line of the package unexecuted.

Runs ``pytest -q tests`` under the standard library's ``trace`` module, on
every thread and with no ignored directories, then lists each executable
line of ``src/bola_guard/*.py`` that no test ran, except the lines in
ALLOWED. Exits 1 when it lists any line or the tests fail. Run it from
anywhere; it takes several times as long as the plain test run:

    python .github/untested_lines.py
"""

from __future__ import annotations

import os
import sys
import trace
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bola_guard"

# Lines that no test can run, by file and stripped text: JournalStore's two
# subclass hooks, ``_encode`` and ``_decode`` (only its subclasses are
# built), and the call under cli's ``if __name__ == "__main__":`` (the tests
# call ``main``).
ALLOWED = Counter({
    ("store.py", "raise NotImplementedError"): 2,
    ("cli.py", "sys.exit(main())"): 1,
})


def untested_lines(counts: dict[tuple[str, int], int]) -> list[tuple[str, int, str]]:
    """The executable package lines that ``counts`` never saw, less ALLOWED."""
    allowed = ALLOWED.copy()
    untested = []
    for module in sorted(PACKAGE.glob("*.py")):
        lines = module.read_text(encoding="utf-8").splitlines()
        # The same table of executable lines that ``trace --missing`` marks;
        # its line 0 is no source line.
        for line_no in sorted(trace._find_executable_linenos(str(module))):
            if line_no == 0 or counts.get((str(module), line_no)):
                continue
            text = lines[line_no - 1].strip()
            if allowed[module.name, text] > 0:
                allowed[module.name, text] -= 1
            else:
                untested.append((module.name, line_no, text))
    return untested


class NoDeadline:
    """Pytest plugin: tracing slows each hypothesis example several times
    over, so this run drops the deadline that the plain test run keeps."""

    def pytest_configure(self, config):
        from hypothesis import settings
        settings.register_profile("traced", deadline=None)
        settings.load_profile("traced")


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    tracer = trace.Trace(count=1, trace=0)
    scope = {"pytest": pytest, "plugins": [NoDeadline()]}
    tracer.runctx("status = pytest.main(['-q', 'tests'], plugins=plugins)",
                  scope, scope)
    untested = untested_lines(tracer.results().counts)
    for name, line_no, text in untested:
        print(f"src/bola_guard/{name}:{line_no}: {text}")
    print(f"{len(untested)} untested line(s) in src/bola_guard, "
          f"{ALLOWED.total()} allowed")
    return 1 if untested or scope["status"] != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
