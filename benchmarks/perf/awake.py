"""Keep the sandbox's vCPUs awake while a socket ping-pong is measured.

An idle vCPU is descheduled by the hypervisor, and on a busy host it
takes its time coming back: a request/response exchange over loopback —
each side asleep while the other works — then measures the host's
scheduler, not the program. Alternating on one server in a noisy phase
of this box, a wire delivery window read 31-70 ms without this and
15-26 ms with it (10-17 ms on a quiet box either way), and saturation
throughput, which never lets a vCPU idle, did not care.

The cure is one busy loop per vCPU in the ``SCHED_IDLE`` class: it runs
only when nothing else wants the CPU and is preempted the moment
anything does, so it takes no time from the program, it only keeps the
vCPU from halting. Where the program wants every core for itself (the
encode pool measured slower beside them) the loops are paused, and
resumed only around the exchange being timed.

A loop must not outlive the driver — an orphan would spin for ever and
skew every later run on the box — so each asks the kernel to kill it
when its parent dies and, where that request is not available, looks for
a changed parent between bursts of spinning. Pausing is a shared flag
the loop reads between bursts, not SIGSTOP: a stopped process can do
neither.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
from contextlib import contextmanager

PR_SET_PDEATHSIG = 1  # <linux/prctl.h>


def _spin(parent: int, running) -> None:
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass  # not Linux: the parent check below is all there is
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)  # no idle class here: the lowest ordinary priority
    # The parent may have died before the request above took effect.
    while os.getppid() == parent:
        if running.wait(0.1):
            for _ in range(200_000):  # a few milliseconds
                pass


class Spinners:
    """One idle-class busy loop per vCPU; ``pause``/``resume`` take
    effect within one burst."""

    def __init__(self) -> None:
        context = multiprocessing.get_context("spawn")
        self._running = context.Event()
        self._running.set()
        self._processes = [
            context.Process(target=_spin, args=(os.getpid(), self._running), daemon=True)
            for _ in range(os.cpu_count() or 1)
        ]

    def start(self) -> None:
        for process in self._processes:
            process.start()

    def pause(self) -> None:
        self._running.clear()

    def resume(self) -> None:
        self._running.set()

    def stop(self) -> None:
        for process in self._processes:
            if process.pid is not None:
                process.kill()
                process.join()


@contextmanager
def keep_awake(paused: bool = False):
    """Spinners for the duration of the block; ``paused`` starts them
    stopped, for the block to resume around what it times."""
    spinners = Spinners()
    try:
        if paused:
            spinners.pause()
        spinners.start()
        yield spinners
    finally:
        spinners.stop()
