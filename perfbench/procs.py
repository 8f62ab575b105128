"""Starting, talking to and stopping the process under test."""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path


class Child:
    """A process under test with line-based pipes on stdin and stdout.

    ``started`` is taken just before the spawn, so set-up time can be
    measured from it. Leaving the ``with`` block stops the process if it is
    still running.
    """

    def __init__(self, argv: list[str], cwd: Path, env: dict, log: Path):
        self._log = open(log, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self._log)
        self._pending = b""
        self.log = log

    def readline(self, timeout: float = 120.0) -> str:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no reply within {timeout:.0f}s; {self.log_tail()}")
            if select.select([fd], [], [], remaining)[0]:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise EOFError(f"process exited ({self.proc.poll()}); {self.log_tail()}")
                self._pending += chunk
        line, self._pending = self._pending.split(b"\n", 1)
        return line.decode("utf-8")

    def ask(self, message) -> dict:
        self.proc.stdin.write((json.dumps(message) + "\n").encode("utf-8"))
        self.proc.stdin.flush()
        return json.loads(self.readline())

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the process, in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM not found")

    def log_tail(self) -> str:
        self._log.flush()
        return "stderr: " + self.log.read_text(errors="replace")[-2000:]

    def stop(self, timeout: float = 60.0) -> None:
        """Close its input, which asks it to finish, and wait for it."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"process under test exited with {self.proc.returncode}; "
                               f"{self.log.read_text(errors='replace')[-2000:]}")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self._log):
            try:
                stream.close()
            except OSError:
                pass
        return False
