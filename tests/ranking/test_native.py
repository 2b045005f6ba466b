"""Tests for repro._native: build on first load, reuse, races, fallback."""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import _native
from repro.ranking import count_inversions_batch

SRC = Path(__file__).resolve().parents[2] / "src"

#: loads into argv[1]/lib once all argv[3] racers have touched a ready-file
RACER = textwrap.dedent(
    """
    import sys, time
    from pathlib import Path
    from repro import _native

    target, index, racers = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    (target / f"ready-{index}").touch()
    while len(list(target.glob("ready-*"))) < racers:
        time.sleep(0.001)
    kernel, movement, reason = _native.load([target / "lib"])
    assert kernel is not None and movement is not None, reason
    """
)


needs_compiler = pytest.mark.skipif(
    _native.kernel is None,
    reason=f"native kernels did not load: {_native.reason}",
)


@pytest.fixture()
def warnings_logged():
    """WARNING records of ``repro._native``, whatever the root config."""
    records: list[logging.LogRecord] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger(_native.__name__)
    logger.addHandler(handler)
    yield records
    logger.removeHandler(handler)


def libraries(directory: Path) -> list[Path]:
    return sorted(directory.glob("_inversions-*"))


def counts(kernel, batch) -> list[int]:
    batch = np.ascontiguousarray(batch, dtype=np.int64)
    trials, n = batch.shape
    out = np.empty(trials, dtype=np.int64)
    kernel(batch, trials, n, out, np.empty(n, np.int64), np.empty(n, np.int64))
    return out.tolist()


def movements(movement) -> tuple[list[int], list[int]]:
    """Discordant pairs and top-2 overlap of three trials over 3 rows."""
    keys = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    base_order = np.arange(3, dtype=np.int64)
    top = np.array([1, 1, 0], dtype=np.uint8)
    discordant = np.empty(3, dtype=np.int64)
    overlap = np.empty(3, dtype=np.int64)
    movement(keys, 3, 3, base_order, top, 2, discordant, overlap,
             np.empty(6, np.float64), np.empty(6, np.int64))
    return discordant.tolist(), overlap.tolist()


def assert_bound(kernel, movement) -> None:
    assert counts(kernel, [[2, 0, 1], [0, 1, 2], [1, 1, 0]]) == [2, 0, 2]
    # the tied trial ranks rows 2, 0, 1: ties go to the lower row
    assert movements(movement) == ([0, 3, 2], [2, 1, 1])


@needs_compiler
def test_first_load_compiles_into_the_directory(tmp_path, monkeypatch):
    compiled = []
    real_compile = _native._compile

    def counted_compile(*args):
        compiled.append(args)
        real_compile(*args)

    monkeypatch.setattr(_native, "_compile", counted_compile)
    kernel, movement, reason = _native.load([tmp_path])
    assert reason is None
    assert len(compiled) == 1
    (library,) = libraries(tmp_path)
    assert library == _native.library_path(tmp_path, _native._compile_command())
    assert_bound(kernel, movement)


@needs_compiler
def test_second_load_reuses_the_library(tmp_path, monkeypatch):
    _native.load([tmp_path])
    built = libraries(tmp_path)

    def no_compiler(*args):
        raise AssertionError("a cached library must not be rebuilt")

    monkeypatch.setattr(_native, "_compile", no_compiler)
    kernel, movement, reason = _native.load([tmp_path])
    assert reason is None
    assert_bound(kernel, movement)
    assert libraries(tmp_path) == built


def test_key_covers_the_compile_command(tmp_path):
    assert _native.library_path(tmp_path, ["cc", "-O2"]) != _native.library_path(
        tmp_path, ["cc", "-O3"]
    )


@needs_compiler
def test_unwritable_directory_falls_through_to_the_next(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where a directory should be")
    kernel, movement, reason = _native.load([blocker / "lib", tmp_path / "cache"])
    assert reason is None
    assert_bound(kernel, movement)
    assert len(libraries(tmp_path / "cache")) == 1


@needs_compiler
def test_concurrent_first_loads_leave_one_whole_library(tmp_path):
    racers = 2
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", RACER, str(tmp_path), str(index), str(racers)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for index in range(racers)
    ]
    for proc in procs:
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
    assert [path.suffix for path in libraries(tmp_path / "lib")] == [".so"]


def test_missing_compiler_falls_back_to_numpy(tmp_path, monkeypatch, warnings_logged):
    monkeypatch.setattr(
        _native, "_compile_command", lambda: ["no-such-cc-anywhere", "-O2", "-shared", "-fPIC"]
    )
    kernel, movement, reason = _native.load([tmp_path])
    assert kernel is None and movement is None
    assert "no-such-cc-anywhere" in reason
    assert len(warnings_logged) == 1
    assert reason in warnings_logged[0].getMessage()
    assert libraries(tmp_path) == []

    monkeypatch.setattr(_native, "kernel", kernel)
    assert count_inversions_batch([[2, 1, 0], [0, 2, 1]]).tolist() == [3, 1]


def test_missing_source_falls_back_to_numpy(tmp_path, monkeypatch, warnings_logged):
    monkeypatch.setattr(_native, "SOURCE", tmp_path / "absent.c")
    kernel, movement, reason = _native.load([tmp_path])
    assert kernel is None and movement is None and "absent.c" in reason
    assert len(warnings_logged) == 1


@needs_compiler
def test_library_without_the_movement_symbol_binds_neither(
    tmp_path, monkeypatch, warnings_logged
):
    source = _native.SOURCE.read_text()
    older = tmp_path / "inversions.c"
    older.write_text(source[: source.index("void rank_movement_batch")])
    monkeypatch.setattr(_native, "SOURCE", older)
    kernel, movement, reason = _native.load([tmp_path / "lib"])
    assert kernel is None and movement is None
    assert "rank_movement_batch" in reason
    assert len(warnings_logged) == 1
