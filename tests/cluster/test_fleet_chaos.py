"""The fleet-chaos drill: real processes, a real SIGKILL, identical bytes.

This is the PR's acceptance scenario end to end, with nothing faked:
a registry daemon and two worker daemons run as *subprocesses* (workers
self-register with ``--register``; there is no static worker list
anywhere), a coordinator runs a batch against whatever the registry
advertises, one worker is SIGKILLed mid-batch, and a replacement
registers before the run ends.  The batch must complete with results
byte-identical to a local run, and the coordinator's breaker metrics must
show the death being noticed (``repro_cluster_breaker_state`` /
``repro_cluster_breaker_transitions_total``).

Slow (real processes, real sleeps), so it is gated behind
``REPRO_FLEET_CHAOS=1`` — run locally with::

    REPRO_FLEET_CHAOS=1 python -m pytest tests/cluster/test_fleet_chaos.py -v

CI runs it as the ``fleet-chaos`` job.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.cluster.coordinator import RemoteTrialBackend
from repro.cluster.policy import FailurePolicy
from repro.cluster.registry import RegistryClient
from repro.telemetry import get_default_registry
from repro.telemetry.exporters import render_prometheus
from tests.cluster.faults import chaos_trial, dead_address

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_FLEET_CHAOS") != "1",
    reason="chaos drill runs real daemons; set REPRO_FLEET_CHAOS=1",
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

PAYLOAD = {"base": 7, "delay": 0.1}
TRIALS = 48
EXPECTED = [float(7 + t) * 0.5 for t in range(TRIALS)]


def _spawn(module: str, *args: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, "-m", module, *args],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _await_healthz(url: str, timeout: float = 20.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=1):
                return
        except OSError:
            time.sleep(0.1)
    raise AssertionError(f"{url} never came up")


def _free_port() -> int:
    return int(dead_address().rsplit(":", 1)[1])


class TestFleetChaos:
    def test_sigkill_mid_batch_with_replacement_is_byte_identical(self):
        procs: list[subprocess.Popen] = []
        backend = None
        try:
            registry_port = _free_port()
            registry_url = f"http://127.0.0.1:{registry_port}"
            procs.append(_spawn("repro.cluster.registry", "--port", str(registry_port)))
            _await_healthz(registry_url)

            worker_ports = [_free_port(), _free_port()]
            for port in worker_ports:
                procs.append(_spawn(
                    "repro.cluster.worker",
                    "--port", str(port),
                    "--register", registry_url,
                    "--heartbeat-ttl", "2",
                ))
                _await_healthz(f"http://127.0.0.1:{port}")

            client = RegistryClient(registry_url)
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline and len(client.addresses()) < 2:
                time.sleep(0.1)
            assert len(client.addresses()) == 2  # both self-registered

            backend = RemoteTrialBackend(
                [],  # NO static worker list: membership is the registry's
                registry_url=registry_url,
                membership_interval=0.1,
                timeout=30,
                # one long chunk per worker: the kill lands mid-chunk
                chunk_size=TRIALS // 2,
                policy=FailurePolicy(breaker_threshold=1, reprobe_interval=0.5),
            )

            results: list = []
            errors: list = []

            def run_batch():
                try:
                    results.extend(
                        backend.run(chaos_trial, PAYLOAD, TRIALS)
                    )
                except Exception as exc:  # surfaces in the main thread
                    errors.append(exc)

            batch = threading.Thread(target=run_batch)
            batch.start()
            time.sleep(1.0)  # let chunks reach both workers
            assert batch.is_alive(), "batch finished before the kill"

            victim = procs.pop(1)  # the first worker
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10)

            # the replacement registers while the batch is still running
            replacement_port = _free_port()
            procs.append(_spawn(
                "repro.cluster.worker",
                "--port", str(replacement_port),
                "--register", registry_url,
                "--heartbeat-ttl", "2",
            ))
            _await_healthz(f"http://127.0.0.1:{replacement_port}")

            batch.join(timeout=120)
            assert not batch.is_alive(), "batch never finished"
            assert not errors, f"batch raised: {errors}"
            assert results == EXPECTED  # byte-identical to a local run

            # a second batch proves the reshaped fleet (survivor +
            # replacement) serves remotely, with identical bytes again
            assert backend.run(chaos_trial, PAYLOAD, TRIALS) == EXPECTED
            stats = backend.stats()
            assert stats["remote_runs"] == 2
            replacement_address = f"127.0.0.1:{replacement_port}"
            by_address = {row["address"]: row for row in stats["workers"]}
            assert by_address[replacement_address]["chunks"] > 0
            assert stats["membership"]["workers_joined"] >= 3

            # the kill is visible in the breaker metric families
            victim_address = f"127.0.0.1:{worker_ports[0]}"
            rendered = render_prometheus(get_default_registry())
            assert "repro_cluster_breaker_state" in rendered
            transition_lines = [
                line for line in rendered.splitlines()
                if line.startswith("repro_cluster_breaker_transitions_total")
                and f'worker="{victim_address}"' in line
            ]
            assert any('state="open"' in line for line in transition_lines), (
                f"no open transition recorded for the victim; "
                f"saw: {transition_lines}"
            )
        finally:
            if backend is not None:
                backend.shutdown()
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()

    def test_sigterm_deregisters_gracefully(self):
        procs: list[subprocess.Popen] = []
        try:
            registry_port = _free_port()
            registry_url = f"http://127.0.0.1:{registry_port}"
            procs.append(_spawn("repro.cluster.registry", "--port", str(registry_port)))
            _await_healthz(registry_url)

            port = _free_port()
            worker = _spawn(
                "repro.cluster.worker",
                "--port", str(port),
                "--register", registry_url,
            )
            procs.append(worker)
            _await_healthz(f"http://127.0.0.1:{port}")

            client = RegistryClient(registry_url)
            assert client.addresses() == (f"127.0.0.1:{port}",)

            worker.terminate()  # SIGTERM: drain, deregister, exit
            worker.wait(timeout=15)
            # gone immediately — no TTL (15s default) wait needed, which
            # is the whole point of graceful deregistration
            assert client.addresses() == ()
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
