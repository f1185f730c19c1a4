"""Launching, measuring and stopping ``repro-hls serve`` subprocesses.

Every service runs in its own session so the whole tree (router, shards,
pool workers) can be found and, as a last resort, killed as a group.
Temporary files the service makes go to the benchmark's output
directory through ``TMPDIR``, so a run writes only inside its checkout.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import wire


def _children_map() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; the ppid follows its ')'.
        fields = stat[stat.rfind(b")") + 2:].split()
        children.setdefault(int(fields[1]), []).append(int(entry))
    return children


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid``."""
    children = _children_map()
    found: List[int] = []
    stack = [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of one process, in KiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of ``VmHWM`` over ``pid`` and all its descendants, in MB."""
    return sum(vm_hwm_kb(p) for p in [pid] + descendants(pid)) / 1024.0


class Service:
    """One ``python -m repro serve`` process tree."""

    def __init__(self, root: Path, out_dir: Path, name: str,
                 extra_args: Sequence[str] = ()) -> None:
        self.root = root
        self.name = name
        self.port_file = out_dir / f"{name}.port"
        self.log_path = out_dir / f"{name}.log"
        self.tmp_dir = out_dir / "tmp"
        self.args = list(extra_args)
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self) -> None:
        for stale in (self.port_file, Path(f"{self.port_file}.tmp")):
            stale.unlink(missing_ok=True)
        self.tmp_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(self.tmp_dir)
        command = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--port-file", str(self.port_file),
        ] + self.args
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                command,
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the port is announced and ``/healthz`` answers 200."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"{self.name} exited with {self.process.returncode}; "
                    f"see {self.log_path}"
                )
            if self.port is None:
                try:
                    self.port = int(self.port_file.read_text().strip())
                except (OSError, ValueError):
                    time.sleep(0.005)
                    continue
            try:
                status, _body = wire.get(self.port, "/healthz")
            except OSError:
                status = 0
            if status == 200:
                return
            time.sleep(0.005)
        raise RuntimeError(f"{self.name} not healthy after {timeout}s")

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.process.pid)

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL whatever is left."""
        if self.process is None:
            return
        tree = [self.process.pid] + descendants(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        deadline = time.monotonic() + timeout
        for pid in tree[1:]:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
        self.process = None


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            # A zombie has exited; its parent (gone too) no longer reaps it.
            return handle.read().split(b")")[-1].split()[0] != b"Z"
    except OSError:
        return False
