"""Start, probe, account for and stop one ``repro.serving`` server.

The server runs in its own session (process group), so a driver error
can kill the whole tree.  A normal stop is SIGINT to the server alone:
the frontend then drains in order, and the exit status says whether
that drain worked.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

_SHM = Path("/dev/shm")
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_STARTUP_TIMEOUT_S = 120.0
_STOP_TIMEOUT_S = 90.0


def shm_segments() -> set:
    """Names of the package's shared-memory segments now present."""
    return {p.name for p in _SHM.glob("repro_shm_*")} \
        if _SHM.is_dir() else set()


def _cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            kids += [int(x) for x in (task / "children").read_text().split()]
        except OSError:
            continue
    return kids


def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def _is_helper(pid: int) -> bool:
    """True for multiprocessing's resource tracker (not a shard)."""
    try:
        cmd = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return True
    return b"resource_tracker" in cmd


class Server:
    """One server process plus its shard workers.

    ``traced`` runs it through ``traced_server.py`` (spans written under
    ``spans_dir``); otherwise it is plain ``python -m repro.serving``.
    """

    def __init__(self, root: Path, run_dir: Path, workers: int,
                 label: str, traced: bool = False,
                 spans_dir: Optional[Path] = None) -> None:
        self.root = root
        self.run_dir = run_dir
        self.label = label
        self.manifest_path = run_dir / f"{label}.manifest.json"
        # The service's default flags, except --workers and --manifest.
        self.flags = ["--http", "0", "--workers", str(workers),
                      "--manifest", str(self.manifest_path)]
        self.traced = traced
        self.spans_dir = spans_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.err_path = run_dir / f"{label}.stderr"
        self.cache_dir = run_dir / f"{label}.cache"

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Spawn and wait until the port is known and /healthz answers."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["REPRO_CACHE_DIR"] = str(self.cache_dir)
        self.cache_dir.mkdir(parents=True)
        if self.traced:
            assert self.spans_dir is not None
            cmd = [sys.executable, str(Path(__file__).with_name(
                "traced_server.py")), "--spans", str(self.spans_dir), "--"]
        else:
            cmd = [sys.executable, "-m", "repro.serving"]
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                cmd + self.flags, cwd=self.run_dir, env=env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err, start_new_session=True,
            )
        deadline = time.monotonic() + _STARTUP_TIMEOUT_S
        while not self.port:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    f"server {self.label} did not start:\n"
                    + self.err_path.read_text(errors="replace")[-2000:])
            for line in self.err_path.read_text(errors="replace") \
                    .splitlines():
                if line.startswith("serving on http://"):
                    self.port = int(line.split()[2].rsplit(":", 1)[1])
            time.sleep(0.005)
        while True:
            try:
                if self.get("/healthz")["status"] == "ok":
                    return
            except (OSError, http.client.HTTPException):
                pass  # not listening yet
            if time.monotonic() > deadline:
                raise RuntimeError(f"server {self.label}: /healthz silent")
            time.sleep(0.005)

    def get(self, path: str) -> Any:
        """GET ``path`` and decode the JSON body."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> Optional[Dict[str, Any]]:
        """SIGINT, wait for the ordered drain, check the exit status;
        returns the ``--manifest`` the server wrote."""
        assert self.proc is not None
        self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(
                f"server {self.label} did not drain:\n"
                + self.err_path.read_text(errors="replace")[-2000:])
        if code != 0:
            raise RuntimeError(
                f"server {self.label} exited with status {code}:\n"
                + self.err_path.read_text(errors="replace")[-2000:])
        # Shard workers and helpers end with the server, or the run fails.
        deadline = time.monotonic() + 10.0
        while _group_members(self.proc.pid):
            if time.monotonic() > deadline:
                os.killpg(self.proc.pid, signal.SIGKILL)
                raise RuntimeError(
                    f"server {self.label} left processes behind")
            time.sleep(0.01)
        if not self.manifest_path.exists():
            return None
        return json.loads(self.manifest_path.read_text())

    def kill(self) -> None:
        """Kill the whole process group and reap the server."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            pass
        self.proc.wait()

    # -- accounting ------------------------------------------------------

    def workers(self) -> List[int]:
        """Pids of the shard worker processes (none with one worker)."""
        assert self.proc is not None
        return [p for p in _children(self.proc.pid) if not _is_helper(p)]

    def cpu(self) -> Dict[str, float]:
        """CPU seconds so far: router and the sum over workers."""
        assert self.proc is not None
        return {
            "router": _cpu_seconds(self.proc.pid),
            "workers": sum(_cpu_seconds(p) for p in self.workers()),
        }

    def peak_rss_mb(self) -> float:
        """VmHWM of the server process plus its workers, in MB."""
        assert self.proc is not None
        pids = [self.proc.pid] + self.workers()
        return sum(_hwm_kb(p) for p in pids) / 1024.0
