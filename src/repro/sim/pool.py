"""Deterministic indexed fan-out over a process pool.

:func:`map_indexed` is the one parallel primitive the repo uses: it runs
``worker(payload)`` for every payload and returns results *in payload
order* regardless of completion order.  Failure semantics:

* **worker death** (a process killed mid-task — ``os._exit``, OOM,
  signal) breaks the whole pool; the unfinished payloads are retried
  exactly once in a fresh pool, and a second death yields a
  :class:`PoolTaskError` placeholder so the caller still gets a full,
  ordered result list (partial-result reporting).
* **worker exception** (the task raised) is *not* retried — the task is
  deterministic, so it would raise again — and also yields a
  :class:`PoolTaskError`.
* **per-task timeout** is enforced inside the worker via ``SIGALRM``
  (the task is CPU-bound Python; only the worker can interrupt itself),
  surfacing as an ordinary timeout exception.

With ``jobs <= 1`` everything runs inline in the calling process — same
code path, no pool, no signals — which is what makes the serial and
parallel campaign paths trivially comparable.
"""

from __future__ import annotations

import math
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

#: set by the pool initializer in worker processes; lets payload-level
#: fault injection (and anything else that must never run in the parent)
#: detect where it is executing
_IN_WORKER = False


def in_worker() -> bool:
    return _IN_WORKER


def _init_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


@dataclass
class PoolTaskError:
    """Placeholder result for a payload that could not produce one."""

    index: int
    kind: str       # "worker_death" | "exception" | "timeout"
    message: str
    retried: bool = False


class _TaskTimeout(Exception):
    pass


def _alarm_handler(_signum, _frame):
    raise _TaskTimeout("per-task timeout expired")


def call_with_timeout(fn: Callable, payload, timeout_s: Optional[float]):
    """Run ``fn(payload)``, bounded by ``SIGALRM`` when in a worker.

    The parent process never arms the alarm (pytest and interactive
    sessions own their signal handlers); serial runs are unbounded.
    """
    if not _IN_WORKER or not timeout_s:
        return fn(payload)
    previous = signal.signal(signal.SIGALRM, _alarm_handler)
    signal.alarm(max(1, math.ceil(timeout_s)))
    try:
        return fn(payload)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def map_indexed(
    worker: Callable,
    payloads: Sequence,
    jobs: int = 1,
    retry_worker_death: bool = True,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> List[object]:
    """Ordered fan-out; every slot is a result or a :class:`PoolTaskError`.

    ``worker`` must be a module-level callable (picklable by reference)
    taking one payload.  Results come back in payload order.

    ``on_result(index, result)`` is invoked in the *parent* process as
    each payload's final result lands (progress reporting).  Worker-death
    placeholders that will be retried are not reported until the retry
    resolves, so every index is reported exactly once.  The callback is
    observational only — it must not mutate the result.
    """
    payloads = list(payloads)
    if jobs <= 1 or len(payloads) <= 1:
        results = []
        for index, payload in enumerate(payloads):
            result = _run_inline(worker, payload, index)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results

    results: List[object] = [None] * len(payloads)
    pending = _run_pool(
        worker, payloads, range(len(payloads)), jobs, results,
        on_result=on_result,
    )
    if pending and retry_worker_death:
        # one fresh pool, one retry per dead task
        still_dead = _run_pool(worker, payloads, pending, jobs, results)
        for index in still_dead:
            error = results[index]
            if isinstance(error, PoolTaskError):
                error.retried = True
        if on_result is not None:
            for index in pending:
                on_result(index, results[index])
    elif pending and on_result is not None:
        # retries disabled: the deaths are final, report them now
        for index in pending:
            on_result(index, results[index])
    return results


def _run_inline(worker: Callable, payload, index: int):
    try:
        return worker(payload)
    except Exception as exc:  # deterministic task: do not retry
        return PoolTaskError(index=index, kind="exception", message=repr(exc))


def _run_pool(
    worker: Callable,
    payloads: Sequence,
    indices,
    jobs: int,
    results: List[object],
    on_result: Optional[Callable[[int, object], None]] = None,
) -> List[int]:
    """Run the given payload indices; fill ``results``; return the indices
    whose worker died (candidates for retry).  ``on_result`` fires per
    finished index except dead ones (the caller reports those after the
    retry pass)."""
    dead: List[int] = []
    executor = ProcessPoolExecutor(
        max_workers=min(jobs, max(len(list(indices)), 1)),
        initializer=_init_worker,
    )
    try:
        futures = {
            index: executor.submit(worker, payloads[index]) for index in indices
        }
        for index, future in futures.items():
            died = False
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                results[index] = PoolTaskError(
                    index=index, kind="worker_death",
                    message="worker process died before returning a result",
                )
                dead.append(index)
                died = True
            except Exception as exc:
                results[index] = PoolTaskError(
                    index=index, kind="exception", message=repr(exc)
                )
            if on_result is not None and not died:
                on_result(index, results[index])
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
    return dead
