"""Run shares of one job in forked processes, one share per process.

Used by ``clustering.kmeans`` (its restarts) and ``dataset._parse_plain``
(its lines).  A forked child has only the thread that forked, so a share
must call no BLAS routine, whose thread pool the child would lack (OpenBLAS
registers a ``pthread_atfork`` handler for it); neither caller's share
calls one.
"""

from __future__ import annotations

import os
import pickle
import threading

_FAILED = object()  # a child's result that did not arrive


def cpus() -> int:
    """How many processes may share a job: one per usable CPU when
    ``os.fork`` exists (Linux) and no other Python thread runs, which a
    forked child would not inherit; otherwise 1."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() != 1:
        return 1
    return len(os.sched_getaffinity(0))


def fork_map(fn, shares) -> list:
    """``[fn(s) for s in shares]``.  Shares 1.. run in forked children that
    pickle their result into a pipe; share 0, and any share whose fork or
    child failed, runs in this process.  Every child is reaped before this
    returns or raises.

    Each share is pinned to a CPU of its own (:func:`_cpu_order`), share 0
    in the calling thread, whose mask is restored before this returns or
    raises: unpinned, a child forked by a fresh process stays on its
    parent's CPU, and the shares take turns instead of running together."""
    order = _cpu_order(os.sched_getaffinity(0)) if len(shares) > 1 else []
    children = []  # [pid, read end of its pipe, share]; None once reaped/closed
    try:
        for i, share in enumerate(shares[1:], start=1):
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the share runs here
                os.close(rfd)
                os.close(wfd)
                children.append([None, None, share])
                continue
            if pid == 0:
                read_ends = [rfd] + [c[1] for c in children if c[1] is not None]
                _serve(fn, share, wfd, read_ends, order[i : i + 1])
            os.close(wfd)
            children.append([pid, rfd, share])
        if order:
            _run_on(order[:1])
        results = [fn(shares[0])]
        for child in children:
            result = _FAILED
            if child[0] is not None:
                # read to EOF before reaping: a payload can outgrow the pipe
                with open(child[1], "rb") as pipe:
                    child[1] = None  # closed by the with
                    payload = pipe.read()
                _, status = os.waitpid(child[0], 0)
                child[0] = None
                try:
                    result = pickle.loads(payload) if status == 0 else _FAILED
                except (pickle.UnpicklingError, EOFError):
                    pass  # a short pipe
            results.append(fn(child[2]) if result is _FAILED else result)
        return results
    finally:
        if order:
            _run_on(order)  # the caller's whole mask again
        for pid, rfd, _ in children:
            if rfd is not None:
                os.close(rfd)  # a child still writing gets EPIPE and exits
            if pid is not None:
                os.waitpid(pid, 0)


def _cpu_order(mask) -> list:
    """The CPUs of ``mask`` from the one the calling thread last ran on
    (field 39 of its Linux ``/proc`` stat line), else from the lowest.
    Share *i* goes to the *i*-th, so callers on different CPUs, such as
    concurrent ``relarm`` processes, pin their shares to different ones."""
    cpus = sorted(mask)
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            start = cpus.index(int(stat.read().rsplit(b")", 1)[1].split()[36]))
    except (OSError, ValueError, IndexError):  # unreadable, or not in mask
        start = 0
    return cpus[start:] + cpus[:start]


def _run_on(cpus) -> None:
    """Let the calling thread run only on ``cpus``.  A set it may not use
    (none of it in the thread's cpuset, or empty) leaves the thread where it
    is: placement sets only the speed of a share, never its result."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _serve(fn, share, wfd, read_ends, cpus) -> None:
    """The whole life of a forked child: pickle ``fn(share)`` into the pipe
    ``wfd`` and exit, with status 0 only if all of it was written.  It
    first closes every read end it inherited (``read_ends``), so that a
    parent that stops reading leaves no writer blocked, and moves to
    ``cpus``."""
    code = 1
    try:
        for fd in read_ends:
            os.close(fd)
        _run_on(cpus)
        payload = pickle.dumps(fn(share), pickle.HIGHEST_PROTOCOL)
        with open(wfd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)
