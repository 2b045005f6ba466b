"""The compiled ranking kernels, built from their C source on first import.

``inversions.c`` is compiled with the host's C compiler into
``_inversions-<key>.so`` and loaded through :mod:`ctypes`: no Python
headers, no setuptools extension and no install step, so a plain
checkout run from ``src/`` gets the kernels too.  ``<key>`` hashes the C
source, the compile command and the platform, so a stale library is
never loaded.  The library lands in the package's ``build/``
directory, or in ``~/.cache/ranking-facts/`` when that is not
writable; each build goes to a per-process temp name and is renamed
into place, so processes that build at once all load a whole file.

:data:`kernel` is the bound ``count_inversions_batch`` and
:data:`movement` the bound ``rank_movement_batch`` (the fused sort,
discordant-pair and top-k overlap pass of the trial-major stability
kernels in :mod:`repro.stability.kernels`).  Binding is all or nothing:
when no compiler, no writable directory, a failed ``dlopen`` or a
missing symbol leaves either unbound, both are ``None`` and
:data:`reason` says why (logged once at WARNING).  Then
:func:`repro.ranking.compare.count_inversions_batch` runs its numpy
merge and the stability kernels their numpy argsort path; each agrees
with its C counterpart on every input.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("inversions.c")
#: where the library is built, in order; ``build/`` has no ``__init__``, so
#: package walkers (``pkgutil``) never mistake the ``.so`` for a module
DIRECTORIES = (Path(__file__).parent / "build", Path.home() / ".cache" / "ranking-facts")


def _compile_command() -> list[str]:
    """``sysconfig``'s ``CC`` when it is on ``PATH``, else ``cc``."""
    configured = shlex.split(sysconfig.get_config_var("CC") or "")
    compiler = configured if configured and shutil.which(configured[0]) else ["cc"]
    return [*compiler, "-O2", "-shared", "-fPIC"]


def library_path(directory: Path, command: list[str]) -> Path:
    """The library's file in ``directory``, keyed to source, command and platform."""
    key = hashlib.sha256(
        b"\0".join([SOURCE.read_bytes(), " ".join(command).encode(),
                    sysconfig.get_platform().encode()])
    ).hexdigest()[:16]
    return Path(directory) / f"_inversions-{key}.so"


def _compile(target: Path, command: list[str]) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    partial = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        done = subprocess.run([*command, "-o", str(partial), str(SOURCE)],
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise OSError(f"{command[0]} exited {done.returncode}: {done.stderr.strip()}")
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)


def _bind(library: ctypes.CDLL):
    """Both kernels of ``library`` with their argument types."""
    ints = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    floats = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    flags = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    count = ctypes.c_int64
    inversions = library.count_inversions_batch
    inversions.argtypes = [ints, count, count, ints, ints, ints]
    inversions.restype = None
    movement = library.rank_movement_batch
    movement.argtypes = [floats, count, count, ints, flags, count, ints, ints, floats, ints]
    movement.restype = None
    return inversions, movement


def load(directories=DIRECTORIES):
    """Return ``(kernel, movement, None)``, or ``(None, None, reason)``
    after one WARNING."""
    command = _compile_command()
    failures = []
    for directory in directories:
        try:
            path = library_path(directory, command)
            if not path.exists():
                _compile(path, command)
            inversions, movement = _bind(ctypes.CDLL(str(path)))
        except (OSError, AttributeError, subprocess.SubprocessError) as exc:
            failures.append(f"{directory}: {exc}")
            continue
        return inversions, movement, None
    reason = "; ".join(failures)
    log.warning("native ranking kernels unavailable, using numpy: %s", reason)
    return None, None, reason


kernel, movement, reason = load()
