"""Deterministic fault injection for the durability layer.

The durability claims in this repo (committed-prefix recovery, atomic
checkpoints, exactly-once client retries) are only claims until a fault
actually happens.  This module makes faults *schedulable*: a
:class:`FaultPlan` is configured with the exact faults to inject —
which write to tear at which byte, which bit to flip, which syscall
gets ``EIO``, which named point crashes — and is threaded through
``WriteAheadLog`` (frames, checkpoints), the image writer behind
``save_snapshot``, and the client transport.  Tests then assert that every injected fault ends in either
full recovery of the committed prefix or a typed error naming the
corruption site.

Design notes
------------

* :class:`SimulatedCrash` derives from ``BaseException`` (like
  ``KeyboardInterrupt``), **not** ``Exception``: a crash must blow
  through every ``except Exception`` cleanup handler — a real power cut
  does not run rollback paths, append ABORT records, or close files
  tidily, and a simulated one that did would test the wrong thing.
* All faults are one-shot and consumed in plan order; counters are
  plan-global, so one plan can coordinate faults across several files
  (e.g. "the 3rd write overall, which lands in the snapshot temp
  file").  Write counters are 1-based; an image is two writes (header
  and catalog, then its frame).
* :meth:`FaultPlan.reached` is the crash-point hook: instrumented code
  calls it at named points and the plan raises there if scheduled.  The
  checkpoint's points, in order: ``snapshot.before_temp_write``,
  ``snapshot.mid_temp_write``, ``snapshot.after_fsync``,
  ``snapshot.after_rename`` (the image writer's, shared with
  ``save_snapshot``), ``checkpoint.before_truncate``,
  ``wal.truncate.mid`` and ``wal.truncate.end``; the MVCC commit's are
  ``mvcc.commit.begin``, ``.apply`` and ``.mid``.  ``docs/ARCHITECTURE.md``
  lists what each leaves on disk.
"""

from __future__ import annotations

import errno
import os
from typing import Any, BinaryIO, Dict, List, Optional, Tuple

__all__ = [
    "SimulatedCrash",
    "FaultPlan",
    "FaultyFile",
    "NO_FAULTS",
    "durable_fsync",
    "fsync_directory",
]


class SimulatedCrash(BaseException):
    """An injected crash.  BaseException so cleanup handlers don't run."""

    def __init__(self, point: str, detail: str = "") -> None:
        self.point = point
        self.detail = detail
        super().__init__(f"simulated crash at {point}" + (f" ({detail})" if detail else ""))


class FaultPlan:
    """A schedule of faults to inject, plus a log of those that fired.

    Configuration methods (chainable)::

        plan = (FaultPlan()
                .tear_write(on_write=3, keep_bytes=5)   # prefix, then crash
                .flip_bit(on_write=2, byte=4, bit=7)    # silent corruption
                .short_write(on_write=1, drop_bytes=2)  # silent truncation
                .fail_io(on_call=4)                     # OSError(EIO)
                .crash_at("snapshot.after_fsync"))      # named crash point

    ``fired`` records every fault that actually triggered, so tests can
    assert the injection happened (a fault that never fires is a test
    bug, not a pass).
    """

    def __init__(self) -> None:
        self._write_faults: Dict[int, Tuple[Any, ...]] = {}
        self._io_faults: Dict[int, int] = {}
        self._crash_points: set = set()
        self._writes = 0
        self._calls = 0
        self.fired: List[str] = []

    # -- configuration -------------------------------------------------
    def tear_write(self, *, on_write: int, keep_bytes: int) -> "FaultPlan":
        """The ``on_write``-th write persists only its first
        ``keep_bytes`` bytes, then the process crashes (torn write)."""
        self._write_faults[on_write] = ("tear", keep_bytes)
        return self

    def short_write(self, *, on_write: int, drop_bytes: int) -> "FaultPlan":
        """The ``on_write``-th write silently drops its last
        ``drop_bytes`` bytes — a kernel short write whose return value
        the caller never checked.  No crash: execution continues."""
        self._write_faults[on_write] = ("short", drop_bytes)
        return self

    def flip_bit(self, *, on_write: int, byte: int, bit: int = 0) -> "FaultPlan":
        """The ``on_write``-th write lands with ``bit`` of ``byte``
        (offset into that write's buffer, modulo its length) inverted —
        media bit rot, compressed into the write for determinism."""
        self._write_faults[on_write] = ("flip", byte, bit)
        return self

    def fail_io(self, *, on_call: int, error: int = errno.EIO) -> "FaultPlan":
        """The ``on_call``-th syscall (write/flush/fsync, counted
        together) raises ``OSError(error)``."""
        self._io_faults[on_call] = error
        return self

    def crash_at(self, point: str) -> "FaultPlan":
        """Crash when instrumented code reaches the named point."""
        self._crash_points.add(point)
        return self

    # -- runtime hooks -------------------------------------------------
    def reached(self, point: str) -> None:
        if point in self._crash_points:
            self._crash_points.discard(point)
            self.fired.append(f"crash@{point}")
            raise SimulatedCrash(point)

    def wrap(self, handle: BinaryIO, name: str = "?") -> "FaultyFile":
        return FaultyFile(handle, self, name)

    # -- internals (called by FaultyFile) ------------------------------
    def _syscall(self, kind: str, name: str) -> None:
        self._calls += 1
        error = self._io_faults.pop(self._calls, None)
        if error is not None:
            self.fired.append(f"eio@{kind}:{name}")
            raise OSError(error, os.strerror(error), name)

    def _next_write_fault(self) -> Optional[Tuple[Any, ...]]:
        self._writes += 1
        return self._write_faults.pop(self._writes, None)


class FaultyFile:
    """A binary file handle that injects the plan's write faults.

    Proxies everything else (``tell``, ``seek``, ``fileno``, ...) to
    the underlying handle; ``fsync()`` is a first-class method so
    :func:`durable_fsync` can route the syscall through the fault
    counters.
    """

    def __init__(self, handle: BinaryIO, plan: FaultPlan, name: str = "?") -> None:
        self._file = handle
        self._plan = plan
        self._name = name

    def write(self, data: bytes) -> int:
        plan = self._plan
        plan._syscall("write", self._name)
        fault = plan._next_write_fault()
        if fault is None:
            return self._file.write(data)
        kind = fault[0]
        if kind == "tear":
            keep = min(fault[1], len(data))
            self._file.write(data[:keep])
            self._file.flush()
            plan.fired.append(f"tear@{self._name}+{keep}")
            raise SimulatedCrash(
                f"torn write on {self._name}", f"kept {keep}/{len(data)} bytes"
            )
        if kind == "short":
            kept = max(0, len(data) - fault[1])
            self._file.write(data[:kept])
            plan.fired.append(f"short@{self._name}-{fault[1]}")
            return len(data)  # the unchecked lie a short write tells
        # kind == "flip"
        _kind, byte, bit = fault
        corrupted = bytearray(data)
        if corrupted:
            corrupted[byte % len(corrupted)] ^= 1 << bit
        self._file.write(bytes(corrupted))
        plan.fired.append(f"flip@{self._name}[{byte}].{bit}")
        return len(data)

    def flush(self) -> None:
        self._plan._syscall("flush", self._name)
        self._file.flush()

    def fsync(self) -> None:
        self._plan._syscall("fsync", self._name)
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        self._file.close()

    def __getattr__(self, attribute: str) -> Any:
        return getattr(self._file, attribute)


class _NoFaults:
    """The no-op plan: zero-cost hooks for the production path."""

    fired: List[str] = []

    def reached(self, point: str) -> None:
        return None

    def wrap(self, handle: BinaryIO, name: str = "?") -> BinaryIO:
        return handle


#: shared no-op plan; ``faults or NO_FAULTS`` is the threading idiom
NO_FAULTS = _NoFaults()


def durable_fsync(handle: Any) -> None:
    """flush + fsync ``handle``, honouring fault-injection wrappers.

    Plain files take the ``os.fsync`` path; :class:`FaultyFile` exposes
    ``fsync()`` so the syscall passes through the plan's counters.
    """
    fsync = getattr(handle, "fsync", None)
    if fsync is not None:
        fsync()
    else:
        handle.flush()
        os.fsync(handle.fileno())


def fsync_directory(path: str) -> None:
    """fsync the directory containing ``path`` so a rename into it is
    durable (POSIX: the rename itself lives in the directory's data).

    Platforms whose directory handles reject ``os.fsync`` (Windows)
    are skipped — the rename is still atomic there, just not provably
    ordered, which matches what every portable database does.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-specific
        pass
    finally:
        os.close(fd)
