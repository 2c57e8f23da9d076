"""Parallel pair fills: a deployment's per-pair latency draws, split across
forked helpers.

Each per-pair draw is a pinned sha256 → Mersenne Twister seed → draw chain of
~10 µs, and a paper-scale construction makes tens of thousands of them
(millions at N = 10,000).  :meth:`PhysicalNetwork.fill_pairs
<repro.net.topology.PhysicalNetwork.fill_pairs>` hands each round of rows
large enough to split here.  A round is cut into contiguous shares of about
equal size: the first for the calling process and one for each forked
helper.  Every process reads its share through ``transport_latency``, which
draws what is undrawn.  A helper sends its reads back through a pipe as one
``array('d')`` in row order and leaves through ``os._exit``: it imports
nothing and runs no exit hook.  The caller keeps the helpers' reads in share
order after its own, so the tables end as reading every row in order would
leave them.  Every helper is waited for, and killed first if the round
unwinds (an exception, or a run's SIGALRM timeout).
"""

from __future__ import annotations

import os
import signal
from array import array
from bisect import bisect_left
from functools import partial
from itertools import accumulate, repeat
from typing import TYPE_CHECKING, Collection

from ..errors import TopologyError

if TYPE_CHECKING:
    from .topology import PhysicalNetwork

__all__ = ["fill_round"]

# Signals that could unwind a round between a fork and its bookkeeping: held
# back across the fork, so that every helper is known before one can land.
_FORK_SIGNALS = frozenset(
    getattr(signal, name) for name in ("SIGALRM", "SIGINT", "SIGTERM") if hasattr(signal, name)
)

Share = list[tuple[int, Collection[int]]]


def fill_round(network: PhysicalNetwork, batch: Share, size: int, helpers: int) -> None:
    """Draw *batch*'s undrawn pairs: this process the first share of its
    rows, each of *helpers* forked helpers one of the rest."""

    ends = list(accumulate(len(row) for _u, row in batch))
    cuts = [bisect_left(ends, size * part / (helpers + 1)) + 1 for part in range(1, helpers + 1)]
    shares = [batch[start:stop] for start, stop in zip([0, *cuts], [*cuts, len(batch)])]
    forked: dict[int, int] = {}  # pid -> the read end of its pipe
    try:
        for share in shares[1:]:
            held = signal.pthread_sigmask(signal.SIG_BLOCK, _FORK_SIGNALS)
            try:
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(read)
                    os.close(write)
                    raise
                if pid == 0:
                    _helper(network, share, write, held, (read, *forked.values()))
                os.close(write)
                forked[pid] = read
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
        _read(network, shares[0])
        for (pid, read), share in zip(list(forked.items()), shares[1:]):
            reply = b"".join(iter(partial(os.read, read, 1 << 16), b""))
            status = os.waitpid(pid, 0)[1]
            del forked[pid]
            os.close(read)
            if status or len(reply) != 8 * sum(len(row) for _u, row in share):
                raise TopologyError(f"fill helper {pid} failed (wait status {status})")
            _keep(network, share, array("d", reply))
    finally:
        for pid, read in forked.items():  # only when unwinding
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)


def _read(network: PhysicalNetwork, share: Share) -> array:
    """``transport_latency(u, v)`` of every pair of *share*, in row order."""

    values = array("d")
    latency = network.transport_latency
    for u, row in share:
        values.extend(map(latency, repeat(u), row))
    return values


def _keep(network: PhysicalNetwork, share: Share, values: array) -> None:
    """Keep a helper's reads of *share* where its ``transport_latency`` drew
    them: every pair but a node with itself and a physical link, whose label
    is not a draw.  A pair this process drew already reads the same draw."""

    latencies, slot = network.latencies, network._pair_slot
    flat = iter(values)
    for u, row in share:
        for v, value in zip(row, flat):  # row first: zip takes no value past it
            if v != u and ((u, v) if u < v else (v, u)) not in latencies:
                store, at = slot(u, v)
                store[at] = value


def _helper(
    network: PhysicalNetwork, share: Share, write: int, held: set, readers: tuple[int, ...]
) -> None:
    """A forked helper: read *share*, write the values to *write* and leave
    through ``os._exit`` whatever happens, so that none of the parent's
    cleanup runs here (no ``atexit`` hook, no buffered output).

    It first closes the read ends it inherited, its own included: a helper
    holding one would keep a writer whose reader is gone blocked forever,
    where it now fails with a broken pipe and exits."""

    code = 1
    try:
        for fd in readers:
            os.close(fd)
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
        view = memoryview(_read(network, share)).cast("B")
        while view:
            view = view[os.write(write, view):]
        code = 0
    finally:
        os._exit(code)
