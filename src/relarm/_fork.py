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
    returns or raises."""
    children = []  # [pid, read end of its pipe, share]; None once reaped/closed
    try:
        for share in shares[1:]:
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
                _serve(fn, share, wfd, read_ends)
            os.close(wfd)
            children.append([pid, rfd, share])
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
        for pid, rfd, _ in children:
            if rfd is not None:
                os.close(rfd)  # a child still writing gets EPIPE and exits
            if pid is not None:
                os.waitpid(pid, 0)


def _serve(fn, share, wfd, read_ends) -> None:
    """The whole life of a forked child: pickle ``fn(share)`` into the pipe
    ``wfd`` and exit, with status 0 only if all of it was written.  It
    first closes every read end it inherited (``read_ends``), so that a
    parent that stops reading leaves no writer blocked."""
    code = 1
    try:
        for fd in read_ends:
            os.close(fd)
        payload = pickle.dumps(fn(share), pickle.HIGHEST_PROTOCOL)
        with open(wfd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)
