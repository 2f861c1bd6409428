"""Child processes written by the benchmark: launch, command, account, stop.

A child prints one JSON line when ready, then reads one command per line on
standard input and answers each with one JSON line on standard output. End
of input (or ``quit``) makes it shut down, so a child never outlives the
benchmark. CPU time and peak RSS are read from ``/proc/<pid>``.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
from typing import List, Optional

from common import proc_cpu_seconds, proc_peak_rss_mb

HERE = os.path.dirname(os.path.abspath(__file__))

#: Seconds to wait for a child's ready line or a command's answer.
REPLY_TIMEOUT = 60.0


class ChildError(RuntimeError):
    pass


class Child:
    def __init__(self, script: str, args: List[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        try:
            self.ready = self._read()
        except ChildError:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _read(self, timeout: float = REPLY_TIMEOUT) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise ChildError(f"child {self.proc.args[1]} did not answer in {timeout:g}s")
        line = self.proc.stdout.readline()
        if not line:
            raise ChildError(f"child {self.proc.args[1]} exited ({self.proc.poll()})")
        return json.loads(line)

    def command(self, *words: object) -> dict:
        self.proc.stdin.write(" ".join(str(w) for w in words) + "\n")
        self.proc.stdin.flush()
        reply = self._read()
        if not reply.get("ok"):
            raise ChildError(f"command {words!r} failed: {reply}")
        return reply

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self, timeout: float = 10.0) -> Optional[int]:
        """Ask the child to quit, then wait; kill it if it does not."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout)
        self.proc.stdout.close()
        return self.proc.returncode


def serve_commands(handlers: dict, ready: dict) -> None:
    """Child side: print ``ready``, then answer commands until ``quit`` or
    end of input. ``handlers`` maps a command word to a function taking the
    remaining words and returning a dict."""
    print(json.dumps({"ok": True, **ready}), flush=True)
    for line in sys.stdin:
        words = line.split()
        if not words:
            continue
        if words[0] == "quit":
            break
        handler = handlers.get(words[0])
        if handler is None:
            reply = {"ok": False, "error": f"unknown command {words[0]!r}"}
        else:
            reply = {"ok": True, **handler(words[1:])}
        print(json.dumps(reply), flush=True)
