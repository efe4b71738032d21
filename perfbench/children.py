"""Stop and reap every process the current one still has as a child.

The program under test starts helpers the benchmark does not own: the
first shared-memory segment a process creates launches
``multiprocessing``'s resource tracker, which exits only once its pipe
is closed and is not waited for at interpreter exit.  Left alone it
outlives the benchmark.  :func:`stop_children` closes that pipe, then
SIGTERMs (SIGKILLs after ``timeout``) any other child still running and
waits for each.  ``run.py`` and ``worker.py`` call it on every way out.
"""

import os
import signal
import time


def child_pids():
    """Pids whose parent is this process, read from ``/proc``."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while we looked
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _reaped(pid):
    try:
        return os.waitpid(pid, os.WNOHANG)[0] == pid
    except ChildProcessError:  # already reaped elsewhere
        return True


def stop_children(timeout=10.0):
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it to exit
    pending = child_pids()
    for pid in pending:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while pending:
        pending = [pid for pid in pending if not _reaped(pid)]
        if pending and time.monotonic() >= deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            pending = []
        elif pending:
            time.sleep(0.02)
