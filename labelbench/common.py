"""Shared plumbing for the label-serving benchmark.

Paths inside the checkout, order statistics, label digests, child
daemons (started, stopped and reaped), ``/proc`` reads for child CPU and
memory, a Prometheus text parser, and a small HTTP client
that counts connections so the reused-connection share can be reported.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
#: scratch space for stores, child logs and span dumps; inside the checkout
WORK = ROOT / ".labelbench"


def require_source() -> None:
    """Exit with code 2 unless the program's source tree is present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"labelbench: no program source at {SRC}/repro; run from the root "
            "of a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """The environment a child daemon runs with: source on the path."""
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": "1"}


# -- statistics ---------------------------------------------------------------

_HD_GRID = 20_000


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (``q`` in [0, 100]).

    A weighted mean of every order statistic, with weights from the
    Beta((n+1)p, (n+1)(1-p)) distribution.  A run mixes op classes of very
    different cost, so the plain sample median jumps from one class to the
    next as the host's speed drifts; this estimate moves smoothly.
    """
    ordered = np.sort(np.asarray(list(values), dtype=float))
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    p = q / 100.0
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    grid = (np.arange(_HD_GRID) + 0.5) / _HD_GRID  # cell midpoints: no pole at 0 or 1
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    mass = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(mass) / mass.sum()))
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, _HD_GRID + 1), cdf)
    return float(np.dot(np.diff(edges), ordered))


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def digest(data: bytes | str) -> str:
    """SHA-256 hex digest of label bytes."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# -- child daemons ------------------------------------------------------------

_URL = re.compile(rb"http://([0-9.]+):([0-9]+)")


class Child:
    """A daemon started from the program's own entry point.

    The daemon binds an ephemeral port and prints its URL; :meth:`start`
    waits for that line.  :meth:`stop` sends SIGINT (both daemons shut
    down cleanly on it), waits, and kills only as a last resort.
    """

    def __init__(self, argv: list[str], log_name: str):
        self.argv = argv
        self.log_path = WORK / "logs" / log_name
        self.proc: subprocess.Popen | None = None
        self.host = ""
        self.port = 0

    def start(self, timeout: float = 60.0) -> "Child":
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        log = open(self.log_path, "wb")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, *self.argv],
                cwd=ROOT, env=child_env(),
                stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL,
            )
        finally:
            log.close()
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=0.5):
                    if self.proc.poll() is not None:
                        break
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = _URL.search(line)
                if match:
                    self.host = match.group(1).decode()
                    self.port = int(match.group(2))
                    return self
        self.stop()
        raise RuntimeError(f"{self.argv[:3]} did not come up; see {self.log_path}")

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        proc = self.proc
        if proc is None or proc.returncode is not None:
            return
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=20)
        if proc.stdout is not None:
            proc.stdout.close()
        if self.log_path.is_file() and self.log_path.stat().st_size == 0:
            self.log_path.unlink()

    def cpu_seconds(self) -> float:
        """User + system CPU of the running child, from ``/proc``."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rpartition(")")[2].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def peak_rss_bytes(self) -> int:
        """Peak resident set size of the running child, from ``/proc``."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
        return 0


class LineProcess:
    """A benchmark script run as a helper process, one answer per request line.

    The script prints ``ready`` once it has started; :meth:`ask` sends one
    line and returns the answer line.  The process starts on the first
    request and ends when :meth:`close` closes its input.
    """

    def __init__(self, script: str, *args: str):
        self.argv = [sys.executable, str(BENCH / script), *args]
        self._proc: subprocess.Popen | None = None

    def ask(self, line: str) -> str:
        if self._proc is None:
            self._proc = subprocess.Popen(
                self.argv, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            if self._proc.stdout.readline().strip() != "ready":
                raise RuntimeError(f"{self.argv[1]} did not start")
        self._proc.stdin.write(line + "\n")
        self._proc.stdin.flush()
        answer = self._proc.stdout.readline().strip()
        if not answer:
            raise RuntimeError(f"{self.argv[1]} exited")
        return answer

    def close(self) -> None:
        if self._proc is not None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait(timeout=30)
            self._proc.stdout.close()
            self._proc = None


def self_peak_rss_bytes() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def self_cpu_seconds() -> float:
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# -- HTTP ---------------------------------------------------------------------


class HttpClient:
    """One keep-alive client connection, reopened when the server closes it.

    Counts connects and requests, so a run can report which share of its
    requests reused an open connection.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host, self.port, self.timeout = host, port, timeout
        self.conn: http.client.HTTPConnection | None = None
        self.connects = 0
        self.requests = 0
        self.reused = 0

    def request(self, method: str, path: str, body: object = None) -> tuple[int, bytes]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            self.connects += 1
        else:
            self.reused += 1
        self.requests += 1
        headers = {}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if response.will_close:
            self.close()
        return response.status, data

    def json(self, method: str, path: str, body: object = None) -> dict:
        status, data = self.request(method, path, body)
        if status // 100 != 2:
            raise RuntimeError(f"{method} {path} -> {status}: {data[:200]!r}")
        return json.loads(data)

    def stream(self, path: str) -> tuple[int, float | None, dict | None]:
        """One SSE request on a fresh connection (the server closes it).

        Returns ``(status, seconds to the first widget event, the label
        event's payload)``.
        """
        self.connects += 1
        self.requests += 1
        started = time.perf_counter()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        first_widget = None
        label = None
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            if response.status != 200:
                response.read()
                return response.status, None, None
            event, data = None, []
            while True:
                line = response.readline()
                if not line:
                    break
                line = line.rstrip(b"\r\n")
                if line.startswith(b"event: "):
                    event = line[7:].decode()
                elif line.startswith(b"data: "):
                    data.append(line[6:].decode("utf-8"))
                elif not line and event is not None:
                    if event == "widget" and first_widget is None:
                        first_widget = time.perf_counter() - started
                    elif event == "label":
                        label = json.loads("\n".join(data))
                    event, data = None, []
            return response.status, first_widget, label
        finally:
            conn.close()

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict[tuple[str, frozenset], float]:
    """``{(sample name, frozenset of label pairs): value}`` from text format."""
    samples: dict[tuple[str, frozenset], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        labels = frozenset(_LABEL.findall(match.group(3) or ""))
        try:
            samples[(match.group(1), labels)] = float(match.group(4))
        except ValueError:
            continue
    return samples


def family_sum(samples: dict, family: str, /, **labels: str) -> float:
    """Sum of every sample of ``name`` whose labels include ``labels``."""
    want = set(labels.items())
    return sum(
        value for (sample, tags), value in samples.items()
        if sample == family and want <= tags
    )
