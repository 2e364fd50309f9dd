"""Fork-based fan-out of independent work shares (``repro.mc.explore``).

``fan_out(run, items, width)`` splits ``items`` into ``width`` static
interleaved shares (item ``i`` goes to share ``i % width``), runs
``run(share)`` on every share and returns one result per item, in
``items`` order.  The calling
process runs the first share itself; each other share runs in a child
made by ``os.fork``, so ``run`` -- typically a closure over a scenario's
``factory`` and ``check`` -- is inherited as is: nothing is pickled on
the way in and nothing is rebuilt by name.  A child pickles its
results (or the exception it raised) into a pipe and ends with
``os._exit``; the parent drains every pipe before it reaps, and reaps
every child in a ``finally``, killing the children first when it is
itself unwinding from an exception.  A child's exception is re-raised
in the parent.

``run(share)`` may stop early: it returns results for a prefix of its
share, and the items it skipped come back as ``None``.

Forking is used only where it is safe (:func:`fork_width`); everywhere
else, and for a single item, the one share runs in-process through the
same ``run``, so the results never depend on the number of processes.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
from typing import Any, Callable, List, Optional, Sequence

Run = Callable[[Sequence[Any]], List[Any]]


def fork_width() -> int:
    """How many processes :func:`fan_out` may use: one per CPU this
    process may run on, or 1 where a fork is unsafe -- no ``fork``
    start method, other threads running (a forked child inherits their
    locks in whatever state they are), or already inside a
    ``multiprocessing`` worker (no nesting under engine pools)."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if threading.active_count() != 1:
        return 1
    if multiprocessing.parent_process() is not None:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def fan_out(run: Run, items: Sequence[Any],
            width: int) -> List[Optional[Any]]:
    """``run`` over ``width`` interleaved shares of ``items`` (a
    :func:`fork_width`); one result, or ``None`` for an item its share
    skipped, per item."""
    width = min(width, len(items))
    if width < 2:
        return _aligned([run(items)], 1, len(items))
    shares = [items[k::width] for k in range(width)]
    children: List[List[Any]] = []  # [pid, read fd or None once drained]
    try:
        for share in shares[1:]:
            inherited = [fd for _, fd in children]
            children.append(list(_fork(run, share, inherited)))
        results = [run(shares[0])]
        for child in children:
            pid, fd = child
            child[1] = None  # _receive closes it
            results.append(_receive(pid, fd))
    except BaseException:
        for pid, _ in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        raise
    finally:
        for pid, fd in children:
            if fd is not None:
                os.close(fd)
            os.waitpid(pid, 0)
    return _aligned(results, width, len(items))


def _aligned(results: List[List[Any]], width: int, count: int):
    merged: List[Optional[Any]] = [None] * count
    for k, share_results in enumerate(results):
        for j, result in enumerate(share_results):
            merged[k + j * width] = result
    return merged


def _fork(run: Run, share: Sequence[Any], inherited: List[int]):
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The read end and earlier children's pipes are the parent's.
        _child(run, share, write_fd, [read_fd] + inherited)
    os.close(write_fd)
    return pid, read_fd


def _child(run: Run, share: Sequence[Any], fd: int,
           foreign: List[int]) -> None:
    """Run one share and send the outcome; never returns."""
    code = 1
    try:
        for other in foreign:
            os.close(other)
        try:
            message = ("ok", run(share))
        except BaseException as exc:  # noqa: BLE001 - re-raised by the parent
            message = ("raised", exc)
        try:
            data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            if message[0] == "raised":
                pickle.loads(data)  # an exception must also unpickle
        except Exception as exc:  # noqa: BLE001 - reported, not lost
            what = (
                f"{type(message[1]).__name__}: {message[1]}"
                if message[0] == "raised" else "its results"
            )
            data = pickle.dumps(("raised", RuntimeError(
                f"explorer worker {os.getpid()} could not send its "
                f"outcome ({what}): {exc!r}"
            )))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _receive(pid: int, fd: int) -> List[Any]:
    with os.fdopen(fd, "rb") as pipe:
        data = pipe.read()
    if not data:
        raise RuntimeError(f"explorer worker {pid} exited without a result")
    status, value = pickle.loads(data)
    if status == "raised":
        raise value
    return value
