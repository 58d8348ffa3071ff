"""Spawning, probing, killing and reaping the ``repro serve`` subprocess."""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.service import ServiceClient
from repro.service.client import TRANSPORT_ERRORS

from benchkit.env import child_environment

_BANNER_URL = re.compile(r"on (http://[^\s]+)")
_START_TIMEOUT_S = 60.0


class ServerError(RuntimeError):
    """The server subprocess did not come up (a harness failure)."""


class Server:
    """One ``python -m repro serve`` child on an OS-assigned port."""

    def __init__(self, arguments: list[str], log_path: Path) -> None:
        self._log = log_path.open("ab")
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *arguments],
            env=child_environment(),
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            self.url = self._read_banner_url(log_path)
            self.healthy_after_s = self._wait_healthy()
        except BaseException:
            self.kill()
            raise

    def _read_banner_url(self, log_path: Path) -> str:
        stdout = self.process.stdout
        if stdout is None:
            raise ServerError("repro serve was spawned without a stdout pipe")
        deadline = time.perf_counter() + _START_TIMEOUT_S
        banner = b""
        while b"\n" not in banner:
            remaining = deadline - time.perf_counter()
            ready = remaining > 0 and select.select([stdout], [], [], remaining)[0]
            chunk = os.read(stdout.fileno(), 4096) if ready else b""
            if not chunk:
                raise ServerError(
                    f"repro serve printed no banner (exit code "
                    f"{self.process.poll()}); see {log_path}"
                )
            banner += chunk
        match = _BANNER_URL.search(banner.decode("utf-8", "replace"))
        if match is None:
            raise ServerError(f"no URL in serve banner {banner!r}")
        return match.group(1)

    def _wait_healthy(self) -> float:
        """Seconds from spawn to the first 200 from ``/healthz``."""
        client = ServiceClient(self.url, timeout=5.0)
        deadline = time.perf_counter() + _START_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                client.healthz()
            except TRANSPORT_ERRORS:
                time.sleep(0.01)
                continue
            return time.perf_counter() - self.spawned_at
        raise ServerError(f"{self.url}/healthz never answered 200")

    def peak_rss_mb(self) -> float:
        """The child's resident-set high-water mark, from ``/proc``."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        if match is None:
            raise ServerError("no VmHWM in /proc status of the server")
        return int(match.group(1)) / 1024.0

    def kill(self) -> None:
        """``kill -9`` and reap (also the unconditional cleanup path)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self._reap()

    def stop(self) -> None:
        """SIGTERM, wait for the graceful drain, escalate if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.process.send_signal(signal.SIGKILL)
        self._reap()

    def _reap(self) -> None:
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        if not self._log.closed:
            self._log.close()
