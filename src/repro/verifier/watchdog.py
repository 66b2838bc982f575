"""The signal-free watchdog that bounds one call's wall-clock time.

:func:`call_with_timeout` is the one timeout mechanism of the checker: the
CLI's ``check --timeout``, the batch executor and the verification server
all run a check through it.  It lives in a leaf module (it needs only
``ctypes``, ``threading`` and the budget rule) so that a one-shot ``check``
does not import the batch service to get it; :mod:`repro.service` re-exports
both names.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Any, Callable, Optional

from .options import is_budget

__all__ = ["JobTimeoutError", "call_with_timeout"]


class JobTimeoutError(BaseException):
    # BaseException, not Exception: the verifier and the executor recover
    # from errors with broad `except Exception` handlers, which must not
    # swallow the timeout and let a job run past its budget.
    pass


def call_with_timeout(fn: Callable[[], Any], timeout: Optional[float]):
    """Call ``fn()``, raising :class:`JobTimeoutError` past *timeout* seconds.

    A :class:`threading.Timer` delivers :class:`JobTimeoutError` into the
    calling thread with ``PyThreadState_SetAsyncExc``.  The exception
    surfaces at the next bytecode boundary, which is exactly the granularity
    the pure-Python checker needs, and any number of threads can carry
    independent budgets concurrently.  ``None`` or ``0`` runs *fn* without a
    budget; a value outside the budget rule (:func:`is_budget`) raises
    :class:`ValueError` instead of running *fn* unbudgeted.
    """
    if not is_budget(timeout):
        raise ValueError(
            f"timeout must be a finite, non-negative number of seconds, got {timeout!r}"
        )
    if not timeout:
        return fn()
    target = threading.get_ident()
    # The lock makes "deliver" and "finish" mutually exclusive: the timer
    # either delivers before the cleanup below (which then clears a still
    # pending delivery) or sees the call finished and does nothing.
    lock = threading.Lock()
    fired = []
    finished = []

    def interrupt() -> None:
        with lock:
            if finished:
                return
            fired.append(True)
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(target), ctypes.py_object(JobTimeoutError)
            )

    timer = threading.Timer(timeout, interrupt)
    timer.daemon = True
    outcome = []
    timer.start()
    try:
        try:
            try:
                outcome.append(fn())
            except JobTimeoutError:
                pass
        finally:
            timer.cancel()
            with lock:
                finished.append(True)
                if fired:
                    # The async exception may still be pending delivery (the
                    # timer fired after fn() returned); clearing it stops it
                    # surfacing at some arbitrary later bytecode of this thread.
                    ctypes.pythonapi.PyThreadState_SetAsyncExc(ctypes.c_ulong(target), None)
    except JobTimeoutError:
        # Delivered in the cleanup window above: the computed result (if
        # any) still wins, so a verdict finished in time is never discarded.
        pass
    if outcome:
        return outcome[0]
    raise JobTimeoutError()
