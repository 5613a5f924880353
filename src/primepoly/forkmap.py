"""`fork_map`: one function over the contiguous chunks of a list, one chunk
per CPU, every chunk after the first in a forked child.  Its callers import
it where they fork, so a process that never forks never compiles it.
"""

from __future__ import annotations


def fork_map(func, items: list):
    """Yield func(chunk) for each chunk in order, `items` cut into one contiguous
    chunk per CPU this process may run on; `func` must be deterministic.
    Chunk 0 runs here, each other chunk in a forked child that pickles back its
    result, any picklable value of any size: each pipe is read to its end.
    A chunk that sends nothing (its `func` raised, its child died, or there is
    no fork) runs here, so a failure is the one a serial loop meets first.  A
    caller may stop early by leaving its loop: every child is killed and reaped
    once this generator returns, raises or is closed.  Library calls fork here:
    `statement41 --random` and the long windows of `primes.find_multiplier`."""
    import os
    import pickle
    import signal

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    n = min(cpus, len(items))
    chunks = [items[len(items) * i // n:len(items) * (i + 1) // n] for i in range(n)]
    children = {}  # chunk index -> (pid, read end of its pipe)
    try:
        for i in range(1, n):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except (AttributeError, OSError):
                os.close(read)
                os.close(write)
                continue
            if pid == 0:
                try:
                    with open(write, "wb") as pipe:
                        pipe.write(pickle.dumps(func(chunks[i])))
                finally:
                    os._exit(0)
            os.close(write)
            children[i] = pid, open(read, "rb")
        for i, chunk in enumerate(chunks):
            data = children[i][1].read() if i in children else b""
            yield pickle.loads(data) if data else func(chunk)
    finally:
        for pid, pipe in children.values():  # a child that has sent its result is exiting anyway
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
