"""Relaxed Douglas-Rachford iteration, on a problem or on its dual, an ADMM
engine matched to it, and contraction-trace capture, for one run or for a
batch of independent rows."""

from __future__ import annotations

import math
import mmap
import operator
import os
import struct
import sys
import threading
import weakref
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .functions import CompositeProblem, GFunction, dual_function
from .hilbert import Vec
from .rates import _check_finite_product, _check_positive, _positive_rows

__all__ = [
    "SplitParams",
    "IterateTrace",
    "DivergenceError",
    "RowRuns",
    "MODES",
    "run_dr",
    "run_admm",
    "run_rows",
    "fit_rate",
    "fit_rates",
    "RATIO_FLOOR",
]

#: distances below this count as "at the fixed point"; contraction ratios past
#: that point are recorded as NaN
RATIO_FLOOR = 1e-14

#: a run is declared divergent once its distance to the fixed point exceeds
#: this multiple of the starting distance
DIVERGENCE_FACTOR = 10.0

#: a rate fit needs at least this many valid step ratios
MIN_FIT_RATIOS = 5

#: engines of :func:`run_rows`: relaxed DR on the problem (:func:`run_dr`)
#: or on its dual, and :func:`run_admm`
MODES = ("primal-dr", "dual-dr", "admm")

#: most ``rows x dim`` state elements one block of :func:`run_rows` holds; a
#: block always holds at least one row
BLOCK_ELEMENTS = 1 << 18

#: rows longer than this are normed chunk by chunk (see :func:`_norms`)
NORM_CHUNK = 8192

#: a step walks rows longer than this in blocks of this many columns (see
#: :class:`_ColumnBlocks`), so that the arrays of one block stay in cache
COLUMN_BLOCK = 4 * NORM_CHUNK

#: most steps one walk over long rows takes (see :func:`_iterate`): each
#: column block takes them all while it is in cache, so the rows stream in
#: from memory once a pass. A pass may run past a row's stop, and nothing
#: past the stop is kept, so only the number of walks depends on it
PASS_STEPS = 32

#: most processes that step one batch of long rows (see :class:`_ColumnBlocks`):
#: the cores this process may run on
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

#: fewest ``rows x columns`` state elements per process of a step. The
#: workers of an engine are forked at its first step and killed and reaped
#: after its last, about 1.5 ms and 1.7 ms for a 100 MB process on a 2-core
#: host, and the fork leaves the caller's heap copy-on-write: 6-10 ms an
#: engine in all. So engines at this size pay for them only over many
#: steps: 25-row sweeps of 4 rows an engine at dim 65,536, or one at
#: 262,144, took 0.60-0.77x one process's time over 80 steps, and
#: 1.03-1.16x over 10
RUN_ELEMENTS = 4 * COLUMN_BLOCK

#: numpy's floating-point error kinds, in the order of their bits (see
#: :func:`_raised`), and a worker's command: steps, input and the kinds to raise
_KINDS = ("divide", "over", "under", "invalid")
_COMMAND = struct.Struct("=qBB")

# the bytes of the live shared mappings (see _shared), which tracemalloc
# does not see
_mapped = 0


class DivergenceError(RuntimeError):
    """Iterates moved away from the fixed point instead of contracting.

    Carries the partial trace gathered before the guard tripped.
    """

    def __init__(self, message: str, trace: "IterateTrace | None" = None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SplitParams:
    """Relaxation ``alpha`` and proximal step size ``gamma``.

    Relaxations above 1 are accepted silently: the iteration stays
    contractive up to the instance's limit
    :func:`splitrate.rates.alpha_upper_bound`, which cannot be checked here.
    """

    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        _check_positive(gamma=self.gamma, alpha=self.alpha)


@dataclass
class IterateTrace:
    """Iterate history with distances to the fixed point and per-step ratios.

    The fixed point is the origin for every engine, held as a read-only
    view of a single zero, with no row of its own. ``step_ratios[k]`` is
    ``distances[k+1] / distances[k]``, or NaN once ``distances[k]`` drops
    below :data:`RATIO_FLOOR`. For the ADMM engine the iterates are the
    scaled dual sequence and :attr:`final_x` is the last primal iterate; it
    is None for the other engines.

    The engines keep no iterate while they run, not even the first: their
    ``iterates``, the first one included, and ADMM's ``final_x`` are
    rebuilt, bit for bit, when first read (see :class:`_Replay`), so a run
    holds O(dim) memory, not O(steps x dim), and a finished trace holds no
    row. ``len(iterates)`` and :attr:`n_steps` recompute nothing.

    Iterates that are not finite cannot be read, since a :class:`Vec`
    holds finite entries: from a finite start whose squared norm overflows,
    the starting distance is inf, so the divergence guard never trips and
    the run may step to an infinity or a NaN. Reading ``iterates`` then
    raises ValueError, as does reading ADMM's ``final_x`` where that x is
    not finite; the distances and flags are recorded all the same.
    """

    iterates: Sequence[Vec]
    fixed_point: Vec
    distances: np.ndarray
    step_ratios: np.ndarray
    converged: bool

    @property
    def n_steps(self) -> int:
        return len(self.iterates) - 1

    @property
    def final_x(self) -> Vec | None:
        return getattr(self.iterates, "final_x", None)


@dataclass
class RowRuns:
    """Per-row outcome of :func:`run_rows`.

    ``distances`` has one row per run and one column per iterate, NaN past
    each row's last step, in Fortran order (each iterate's column is
    contiguous); ``steps`` counts the steps each row took,
    ``converged`` marks the rows stopped by ``tol`` or at a start that is a
    fixed point, and ``diverged`` the rows stopped by the divergence guard.
    """

    distances: np.ndarray
    steps: np.ndarray
    converged: np.ndarray
    diverged: np.ndarray

    @property
    def step_ratios(self) -> np.ndarray:
        """Per-row contraction ratios, as :attr:`IterateTrace.step_ratios`."""
        before, after = self.distances[:, :-1], self.distances[:, 1:]
        return np.divide(after, before, out=np.full(before.shape, np.nan), where=before >= RATIO_FLOOR)


def _chunk_dots(block: np.ndarray, start: int, dots: np.ndarray, tails: np.ndarray | None) -> None:
    """Write the dots of the consecutive ``NORM_CHUNK``-element chunks of a
    block of columns of some rows, which starts at column ``start``, a chunk
    boundary, into their columns of ``dots``, the ``(rows, dim //
    NORM_CHUNK)`` chunk dots of the whole rows; with ``tails``, the block
    ends the rows, and the dots of its shorter tail go there. The chunks
    are views of the block: no copy is made."""
    rows, width = block.shape
    n, first = width // NORM_CHUNK, start // NORM_CHUNK
    chunks = block[:, : n * NORM_CHUNK].reshape(rows, n, NORM_CHUNK)
    np.vecdot(chunks, chunks, out=dots[:, first : first + n])
    if tails is not None:
        tail = block[:, n * NORM_CHUNK :]
        np.vecdot(tail, tail, out=tails)


def _norms(z: np.ndarray, record: Callable = lambda z: z) -> np.ndarray:
    """Euclidean norm of each row of ``record(z)``, for a ``(rows, dim)``
    array ``z`` and a ``record`` that maps any block of its columns to an
    array of that block's shape, column for column: the one routine that
    norms rows, so the one order in which a row's dots are summed.

    Rows of up to :data:`NORM_CHUNK` elements give bit for bit
    ``sqrt(np.dot(row, row))``. A longer row is the sum, in a fixed order, of
    the dots of its consecutive ``NORM_CHUNK``-element chunks and of its
    shorter tail (see :func:`_chunk_dots`): BLAS may split one dot that long
    over threads, and its last bit would then depend on the thread count.
    Such rows are recorded and dotted ``COLUMN_BLOCK`` columns at a time, so
    that no row-sized record is made (ADMM's ``rho * u``).
    One-column rows are normed with no dot: a one-element dot is one
    rounded product, on any BLAS, so ``sqrt(z*z)`` gives the same bits with
    no BLAS call per row.
    """
    rows, dim = z.shape
    if dim == 1:
        return np.sqrt(np.square(record(z)[:, 0]))
    if dim <= NORM_CHUNK:
        z = record(z)
        return np.sqrt(np.vecdot(z, z))
    dots, tails = np.empty((rows, dim // NORM_CHUNK)), np.empty(rows)
    for c in range(0, dim, COLUMN_BLOCK):
        _chunk_dots(record(z[:, c : c + COLUMN_BLOCK]), c, dots, tails if c + COLUMN_BLOCK >= dim else None)
    return np.sqrt(dots.sum(axis=1) + tails)


def _raised() -> int:
    """The floating-point error kinds that numpy's settings here do not
    ignore, as bits in the order of ``_KINDS``: the errors a walk that may
    step a row past its stop raises (see :func:`_iterate`), and a worker
    raises for its caller (see :class:`_ColumnBlocks`)."""
    return sum(1 << i for i, kind in enumerate(_KINDS) if np.geterr()[kind] != "ignore")


def _raising(kinds: int) -> dict:
    """``np.errstate`` settings that raise the errors of ``kinds``, bits as
    :func:`_raised` gives them, and ignore the others."""
    return {kind: "raise" if kinds >> i & 1 else "ignore" for i, kind in enumerate(_KINDS)}


def _forkable() -> bool:
    """Whether this process may fork workers: only on Linux (the
    multiprocessing docs call ``fork`` unsafe on macOS), and only while no
    other Python thread runs (a child has none of them). Threads that
    Python does not run, as OpenBLAS's pool, are not counted: OpenBLAS
    stops its pool before a fork and starts it again on its next call, and
    Python 3.12's warning of such threads at a fork is cleared, not raised,
    under ``-W error`` too. Counting them would keep every process with a
    BLAS pool on one core. The battery (see
    :func:`splitrate.acceptance.run_all`) and the long-row steps fork by
    this one rule."""
    return sys.platform == "linux" and threading.active_count() == 1


def _shared(shape: tuple) -> np.ndarray:
    """An uninitialised float array of ``shape`` in an anonymous shared
    mapping, so that a forked worker's writes into it are the caller's. The
    mapping is unmapped when the last array on it goes, and its bytes are
    counted in ``_mapped`` until then."""
    global _mapped
    mapping = mmap.mmap(-1, 8 * math.prod(shape))
    # every view of flat keeps flat, whose base is not an array, alive
    flat = np.frombuffer(mapping)
    _mapped += len(mapping)
    weakref.finalize(flat, _release, len(mapping))
    return flat.reshape(shape)


def _release(size: int) -> None:
    """Count a mapping of ``size`` bytes that no array uses any more as gone."""
    global _mapped
    _mapped -= size


def _spawn(serve: Callable, commands: int | None = None) -> tuple | None:
    """Fork a worker that runs ``serve(commands, replies)``, ``replies``
    the write end of a new pipe and ``commands``, if None, the read end of
    another: ``(pid, command pipe or None, reply pipe as a file)``, or None
    if no process could be made. An exception from the fork closes the new
    pipes and, but for an OSError, is raised. The worker leaves through
    ``os._exit``, so no ``atexit`` hook runs and no stdio buffer it
    inherited is flushed twice: status 0 once ``serve`` returns, else 1.
    The battery (see :func:`splitrate.acceptance.run_all`) and the long-row
    steps fork by this and reap by :func:`_reap`."""
    fds = []  # reply, replies, then commands, command if made here
    try:
        fds += os.pipe()
        if commands is None:
            fds += os.pipe()
        pid = os.fork()
    except BaseException as error:
        for fd in fds:
            os.close(fd)
        if not isinstance(error, OSError):
            raise
        return None
    reply, replies, *own = fds
    commands, command = own or (commands, None)
    if pid == 0:
        code = 1
        try:
            # so that the pipes end when the caller's ends close
            os.close(reply)
            if own:
                os.close(command)
            serve(commands, replies)
            code = 0
        finally:
            os._exit(code)
    os.close(replies)
    if own:
        os.close(commands)
    return pid, command, open(reply, "rb")


def _reap(workers: dict) -> None:
    """Kill and reap forked workers, ``{key: worker}`` as :func:`_spawn`
    gives them. Closing a worker's command pipe need not end it: a worker
    forked after it, for this engine or another, may hold the pipe open."""
    while workers:
        pid, command, reply = workers.popitem()[1]
        if command is not None:
            os.close(command)
        reply.close()
        os.kill(pid, 9)  # SIGKILL; the signal module need not be loaded
        os.waitpid(pid, 0)


def _staggered(rows: int, count: int) -> list:
    """``count`` (at most 7) uninitialised ``(rows, COLUMN_BLOCK)`` float
    arrays in one buffer, the i-th starting ``(i + 1) * 512`` bytes into a
    page, so that the low 12 bits of their addresses differ from one
    another's and from those of the state's blocks, which start on a page.
    Where a step stores into one array a few elements ahead of where it
    loads from another at nearly the same offset within a page, the loads
    wait on the stores (4K aliasing): with the spare block and the
    temporaries 16 bytes into a page, where a fresh ``malloc`` block starts,
    a DR step at dim 1e6 took 1.6x as long as at offsets 1-3 KiB apart on a
    2-core Xeon host."""
    size = rows * COLUMN_BLOCK * 8
    # each array in a page-aligned span a page longer than it, which leaves
    # room for its start to move up to 3.5 KiB in
    span = -(-size // 4096) * 4096 + 4096
    raw = np.empty(count * span + 4096, dtype=np.uint8)
    first = -raw.ctypes.data % 4096
    starts = [first + i * span + (i + 1) * 512 for i in range(count)]
    return [raw[at : at + size].view(float).reshape(rows, COLUMN_BLOCK) for at in starts]


class _ColumnBlocks:
    """Runs the update of one or more engine steps on whole rows, or over
    column blocks for long rows, and norms what each step made; both
    engines share it.

    ``bind(update, form)`` gives the step ``step(z, steps=1)``, which
    calls ``update(z, *columns, out, *temps)`` once per step, where ``z``
    is the engine's state or what the step before made of it, ``columns``
    are the update's parameters, as ``form`` gives them, whose last axis
    runs over the coordinates, ``out`` receives the next state and
    ``temps`` hold the update's temporaries. ``form(cols, *blocks)`` gives
    the parameters of the columns ``cols``: short rows call it once, on the
    whole rows with no blocks, so that it allocates them; long rows call it
    once per column block per walk, with the block's parameter buffers and
    then its temporaries, which it may use as scratch, so that a walk reads
    the rows the parameters come from, holds no parameter row and allocates
    nothing. ``update`` returns ``(next_state, recorded, step)``, and the
    step returns the state after the last step with the row norms of each
    step's ``recorded`` and ``step``, bit for bit what :func:`_norms` gives
    for the whole rows: ``(rows,)`` arrays for one step, ``(steps, rows)``
    for more. Every step steps every row, a row of
    NaN and a row past its stop alike: :func:`_iterate` keeps nothing of a
    step past a row's stop.

    Rows of at most ``COLUMN_BLOCK`` elements take one step per call and
    are updated whole by ``update(z, *columns)``, which leaves ``out`` and
    every temporary None, so that numpy allocates them, as for any small
    array (see :meth:`shaped` for their parameters). Longer rows are
    walked by :meth:`run` in blocks of ``COLUMN_BLOCK`` columns, so that
    the arrays of a block stay in cache, and a block forms its parameters,
    then takes all its steps, before the walk moves on: the map is
    diagonal, so no block's step needs another block. The steps of a block
    take turns between its columns of ``out`` and a spare block, so that
    the last step writes ``out``. The spare block, the temporaries and the
    parameter blocks are one block wide each (see :func:`_staggered`). The
    columns are split into runs of whole ``NORM_CHUNK`` chunks, as even as
    the chunks allow, at most ``WORKERS`` runs and at most one per
    ``RUN_ELEMENTS`` elements of the rows, and each run is walked in blocks
    from its first column: the caller walks the first run and a forked
    worker process each other run, at once (see :meth:`_fork`), with the
    same code and its own copies of those blocks, so every column takes the
    same numpy operations in the same order. Each block writes only its own
    columns of ``out``, so the results do not depend on how many runs there
    are. ``out`` is one of a pair of per-engine buffers of the state's
    shape, which take turns: a call writes the one it does not read, so an
    engine may make its first state in ``pair[0]``. The blocks start on
    chunk boundaries, so each block writes the dots of its own chunks into
    its own columns of ``sums``, each step's chunk dots and, last, the rows'
    tail dots, which the last block writes, by :func:`_chunk_dots`, as
    :func:`_norms` does; they are summed as it sums them. With workers, the pair and ``sums`` live
    in shared mappings (see :func:`_shared`), so a worker's writes are the
    caller's. :meth:`formed` gives the parameters to their other readers.
    :meth:`stop` stops and reaps the workers.
    """

    def __init__(self, shape: tuple, temps: int, params: int):
        self.shape = shape
        rows, self.dim = shape
        # short rows have no buffers: numpy allocates their states
        self.pair = (None, None)
        # {run: (pid, command pipe, reply pipe)} once forked (see _fork)
        self.workers = None
        if self.dim > COLUMN_BLOCK:
            # runs of whole chunks, as even as chunks allow
            chunks = -(-self.dim // NORM_CHUNK)
            runs = max(1, min(WORKERS, chunks, rows * self.dim // RUN_ELEMENTS)) if _forkable() else 1
            edges = [NORM_CHUNK * (chunks * i // runs) for i in range(runs)] + [self.dim]
            self.runs = list(zip(edges, edges[1:]))
            self.pair = tuple(_shared((2, *shape))) if runs > 1 else (np.empty(shape), np.empty(shape))
            # the dots of recorded and step, for each step of the longest
            # walk _iterate asks for
            sums = (2, PASS_STEPS, rows, self.dim // NORM_CHUNK + 1)
            self.sums = _shared(sums) if runs > 1 else np.empty(sums)
            # the spare block, the temporaries and the parameter blocks of
            # the runs the caller walks; a worker writes its own copies of them
            self.temps = temps
            self.blocks = _staggered(rows, 1 + temps + params)

    def shaped(self, *operands) -> tuple:
        """The operands of an update, each a scalar or an array that
        broadcasts to the state. numpy runs an operation of a ``(rows, dim)``
        array and a ``(rows, 1)`` column or a ``(dim,)`` row as one loop per
        row: for several rows of at most 64 elements, not walked in column
        blocks (:meth:`run` slices no copy), each such operand is copied to
        the state's shape. Sweeps measured on a 2-core host gain
        5-15% up to dim 64, in every mode, and nothing from dim 128 on,
        where the copies add to the memory each step reads. Scalars and
        longer rows are kept as they are; a single row's ``(1, 1)`` columns
        become scalars, which numpy pairs with an array with no broadcast
        set up per call (3-5% of a one-row DR step at dim 1e6)."""
        if self.shape[0] == 1:
            return tuple(a.item() if np.shape(a) == (1, 1) else a for a in operands)
        if self.dim > min(64, COLUMN_BLOCK):
            return operands
        same = lambda a: np.ndim(a) == 0 or np.shape(a) == self.shape
        return tuple(a if same(a) else np.full(self.shape, a, dtype=float) for a in operands)

    def bind(self, update: Callable, form: Callable) -> Callable:
        """The step of ``update`` over the parameters of ``form``, bound once
        per engine: :meth:`run` for long rows; short rows form their
        parameters here and call ``update`` with no layer between, since a
        default sweep takes 80 steps of 400 rows of 8, where Python calls
        cost a few percent of a step."""
        if self.dim > COLUMN_BLOCK:
            return lambda z, steps=1: self.run(update, z, form, steps)
        columns = self.columns = self.shaped(*form(slice(None)))

        def step(z, steps=1):
            z, recorded, diff = update(z, *columns)
            return z, _norms(recorded), _norms(diff)

        return step

    def formed(self, form: Callable, cols: slice) -> tuple:
        """``(columns, scratch)`` for a reader of the parameters besides the
        steps: the parameters of ``form`` over the columns ``cols``, one
        block's at most, and a block of their width to write into. Long rows
        form them, as a walk does, into the caller's parameter blocks and
        give its spare block, which the next call or walk overwrites; short
        rows, whose ``cols`` span them whole, give the parameters formed
        when the step was bound, and None, so that numpy allocates."""
        if self.dim <= COLUMN_BLOCK:
            return self.columns, None
        spare, _, columns = self._block(form, cols)
        return columns, spare

    def _block(self, form: Callable, cols: slice) -> tuple:
        """``(spare, temps, columns)`` for the columns ``cols``, one block's
        at most: this process's spare block and temporaries, cut to their
        width, and their parameters formed into its parameter blocks."""
        spare, *blocks = [b[:, : cols.stop - cols.start] for b in self.blocks]
        temps = blocks[: self.temps]
        return spare, temps, form(cols, *blocks[self.temps :], *temps)

    def run(self, update: Callable, z: np.ndarray, form: Callable, steps: int = 1) -> tuple:
        out = self.pair[z is self.pair[0]]
        if self.workers is None:
            self._fork(update, form, z)
        # a worker steps only an input it inherited: every input is that of
        # the walk that forked it (a walk after stop() forks again) or one of
        # the pair, since each walk writes the one it does not read. It
        # raises each error the caller would not ignore, so that it is
        # raised again here
        seen = next(i for i, a in enumerate(self.inherited) if a is z)
        command = _COMMAND.pack(steps, seen, _raised())
        asked = [run for run in list(self.workers) if self._send(run, command)]
        done = set()
        try:
            self._walk(update, z, out, form, steps, *self.runs[0])
        finally:
            # every worker ends its walk before the buffers are read or written again
            done.update(run for run in asked if self._reply(run))
        # the runs of the workers that failed or died, and of runs with no worker
        for run, (lo, hi) in enumerate(self.runs[1:], 1):
            if run not in done:
                self._walk(update, z, out, form, steps, lo, hi)
        sums = self.sums[:, :steps]
        norms = np.sqrt(sums[..., :-1].sum(axis=3) + sums[..., -1])
        return out, *(norms if steps > 1 else norms[:, 0])

    def _walk(self, update, z, out, form, steps, lo, hi) -> None:
        """Form the parameters of each block of the columns ``lo`` to ``hi``
        of ``z`` in turn and take ``steps`` steps on it, writing ``out`` and
        the blocks' chunk and tail dots into ``sums``."""
        dots, tails = self.sums[..., :-1], self.sums[..., -1]
        for start in range(lo, hi, COLUMN_BLOCK):
            cols = slice(start, min(start + COLUMN_BLOCK, hi))
            spare, block_temps, fixed = self._block(form, cols)
            block = z[:, cols]
            for s in range(steps):
                target = out[:, cols] if (steps - s) % 2 else spare
                block, *made = update(block, *fixed, target, *block_temps)
                for i, array in enumerate(made):
                    _chunk_dots(array, start, dots[i, s], tails[i, s] if cols.stop == self.dim else None)

    def _fork(self, update: Callable, form: Callable, first: np.ndarray) -> None:
        """Fork a worker for each run but the first, if there are runs
        besides it and this process may still fork (see :func:`_forkable`);
        a run left with no worker is the caller's. A worker sees only what
        it inherits: the update, ``form`` and the rows it reads, ``first``,
        the input of the walk that forks it, which no step writes, and the
        state buffers and ``sums``, whose writes are shared. The workers are reaped when the
        engine stops, or else when it is collected."""
        self.workers, self.inherited = {}, (first, *self.pair)
        if len(self.runs) == 1 or not _forkable():
            return
        weakref.finalize(self, _reap, self.workers)
        for run, (lo, hi) in enumerate(self.runs[1:], 1):
            worker = _spawn(partial(self._serve, update, form, lo, hi))
            if worker is None:
                return  # no more processes: the caller walks the runs left
            self.workers[run] = worker

    def _serve(self, update, form, lo, hi, commands: int, replies: int) -> None:
        """A forked worker (see :func:`_spawn`): walk the columns ``lo`` to
        ``hi`` on each command, ``(steps, input, kinds to raise)``, which
        writes their chunk dots, and the tail dots if they end the rows,
        into ``sums``, and reply ``0``, or ``1`` if the walk raised. It is
        killed when the engine stops (see :func:`_reap`), and returns once
        its command pipe ends, as when the caller dies."""
        while len(command := os.read(commands, _COMMAND.size)) == _COMMAND.size:
            steps, index, kinds = _COMMAND.unpack(command)
            z = self.inherited[index]
            reply = b"\0"
            try:
                with np.errstate(**_raising(kinds)):
                    self._walk(update, z, self.pair[z is self.pair[0]], form, steps, lo, hi)
            except Exception:
                reply = b"\1"
            os.write(replies, reply)

    def _send(self, run: int, command: bytes) -> bool:
        """Send a command to the worker of ``run``; reap it if it is gone."""
        try:
            os.write(self.workers[run][1], command)
        except OSError:
            _reap({run: self.workers.pop(run)})
            return False
        return True

    def _reply(self, run: int) -> bool:
        """Whether the worker of ``run`` kept its walk, which left its dots
        in ``sums``: a reply of ``0``. A worker that is gone is reaped."""
        status = self.workers[run][2].read(1)
        if not status:
            _reap({run: self.workers.pop(run)})
        return status == b"\0"

    def stop(self) -> None:
        """Kill and reap the workers, if any; a later walk forks them again."""
        if self.workers:
            _reap(self.workers)
        self.workers = None


def _unchanged(before: np.ndarray, after: np.ndarray, moved: Callable | None = None) -> np.ndarray:
    """Which rows of the state ``after`` are exactly the rows of the state
    ``before``, compared ``COLUMN_BLOCK`` columns at a time, so that no
    row-sized boolean array is made; ``moved(cols)``, if given, tests each
    block of columns further: a row with a nonzero entry in what it gives
    moved. The tests stop once no row can be unchanged."""
    same = np.ones(before.shape[0], dtype=bool)
    for lo in range(0, before.shape[1], COLUMN_BLOCK):
        if not np.count_nonzero(same):
            break
        cols = slice(lo, min(lo + COLUMN_BLOCK, before.shape[1]))
        same &= np.all(before[:, cols] == after[:, cols], axis=1)
        if moved is not None and np.count_nonzero(same):
            same &= ~np.any(moved(cols), axis=1)
    return same


class _Engine(NamedTuple):
    """An engine for :func:`_iterate`, as :func:`_engine` builds it, with its
    parameters bound: ``step(state, steps=1)`` steps a state, ``record(state)``
    gives its recorded rows, ``state`` is the first state, ``still(state,
    next_state)`` tells which rows a step left exactly where they were,
    ``stop()`` stops and reaps the workers of its steps, if any, and ADMM's
    ``x(u)`` is its x-update of the rows ``u``."""

    step: Callable
    record: Callable
    state: np.ndarray
    still: Callable
    stop: Callable
    x: Callable | None = None


def _foreseen(distances: list, norms: tuple, live: np.ndarray, limit: np.ndarray, tol: float) -> float:
    """How many more steps, at least one, until the earliest stop that the
    ``live`` rows' last ratios foresee, or inf if they foresee none: a row
    whose distance grew at its last step stops when, growing on at that
    ratio, it passes its ``limit``, and a row whose step norm shrank stops
    when, shrinking on at that ratio, it drops to ``tol``. ``distances``
    lists the run's ``(rows,)`` distances so far and ``norms`` holds the
    step norms of its last two steps, the first None after one step, when
    a step norm's ratio is taken to be its distance's. It sets how long a
    pass is (see :func:`_iterate`), and so how many walks a run takes but
    no bit of its results; the last bits of ``log`` may depend on the CPU."""
    d, s = distances[-1][live], norms[-1][live]
    with np.errstate(all="ignore"):
        grows = d / distances[-2][live]
        shrinks = grows if norms[0] is None else s / norms[0][live]
        ahead = np.log(limit[live] / d) / np.log(grows), np.log(tol / s) / np.log(shrinks)
    # fmin passes over the NaN of a ratio of zeros or of infinities
    ahead = np.fmin.reduce(np.concatenate([ahead[0][grows > 1.0], ahead[1][shrinks < 1.0]]), initial=np.inf)
    return max(1.0, np.ceil(ahead))


def _iterate(engine: _Engine, first: np.ndarray, max_iter: int, tol: float):
    """Run an engine (see :func:`_engine`) on its batch of rows: the loop of
    every engine.

    The engine's ``state`` is a ``(rows, dim)`` float array, and ``first``
    holds the norms of its recorded rows, the ``(rows,)`` starting
    distances, so that no recorded row need be kept while the rows step.
    ``step(state, steps=1)`` takes ``steps`` steps and returns
    ``(next_state, distances, step_norms)``: for each step, each row's
    distance from its recorded vector to the origin and its step norm, as
    ``(rows,)`` arrays for one step and ``(steps, rows)`` for more. A row
    stops when its first step leaves it exactly where it was (it started
    at a fixed point; the engine's ``still(state, next_state)`` tells which
    rows did), when its distance to the origin exceeds
    ``DIVERGENCE_FACTOR`` times its starting distance (diverged), or when
    its step norm drops to ``tol``.

    Rows longer than ``COLUMN_BLOCK`` are stepped in passes, one walk over
    the rows each (see :class:`_ColumnBlocks`). The first step, which the
    fixed-point test needs alone, runs alone; each later pass takes the
    fewest of ``PASS_STEPS`` steps, the steps left in the budget and the
    steps to the earliest stop that the running rows' last ratios foresee
    (see :func:`_foreseen`). A pass in which rows stop is kept, cut at each
    row's first stop: the row's later distances are NaN, and its step count,
    flags and state are what a run of one step a walk leaves. A pass runs
    with every floating-point error that the caller would see raised, since
    a step past some row's stop may have made one; a pass that raised is
    thrown away and its steps run again one at a time from its input, which
    it did not write, under the caller's error handling. So no step past a
    row's stop is recorded, warns or raises, and no bit of the results
    depends on how long the passes are. Shorter rows take one step at a
    time.

    A stopped row stays in the batch until the run ends, as a row of NaN
    in the state. Each step map carries that NaN into the row's distance
    and step norm, so it meets no stop test again; NaN arithmetic raises no
    floating-point error. So a stopped row converged unless it diverged,
    and the converged rows are found once, at the end.

    Returns ``(distances, steps, converged, diverged)``, the arrays of
    :class:`RowRuns`.
    """
    rows, dim = engine.state.shape
    # each step's (rows,) distances, made one (steps + 1, rows) array at the
    # end: max_iter has no upper bound, so no record is made at its length
    distances = [first]
    # the step norms of the last two steps, which foresee stops
    norms = None, None
    # the guard needs a positive starting distance
    limit = np.where(first > 0.0, DIVERGENCE_FACTOR * first, np.inf)
    steps = np.full(rows, max_iter)
    # the rows stopped so far, and those of them the guard stopped
    stopped = np.zeros(rows, dtype=bool)
    diverged = np.zeros(rows, dtype=bool)
    live = rows  # how many rows still run
    step, state = engine.step, engine.state
    # steps before `alone` run one at a time; k steps have run
    alone = 1 if dim > COLUMN_BLOCK else max_iter
    k = 0
    while k < max_iter:
        n = 1 if k < alone else int(min(PASS_STEPS, max_iter - k, _foreseen(distances, norms, ~stopped, limit, tol)))
        if n == 1:
            before = state
            state, dist, norm = step(before)
            grew = dist > limit
            done = grew | (norm <= tol)
            if k == 0:
                # a row that the first step leaves exactly where it was
                # started at a fixed point: it stops there, after no step
                fixed = engine.still(before, state)
                dist[fixed] = np.nan
                grew &= ~fixed
                done |= fixed
            distances.append(dist)
            norms = norms[1], norm
        else:
            try:
                with np.errstate(**_raising(_raised())):
                    passed, dists, pass_norms = step(state, n)
            except FloatingPointError:
                alone = k + n
                continue
            state = passed
            # a stopped row's NaN meets neither test
            hits = (dists > limit) | (pass_norms <= tol)
            # each row's first stop in the pass, after which nothing is kept
            at, done = hits.argmax(axis=0), hits.any(axis=0)
            grew = done & (dists[at, np.arange(rows)] > limit)
            dists[np.arange(n)[:, None] > np.where(done, at, n)] = np.nan
            distances.extend(dists)
            norms = pass_norms[-2], pass_norms[-1]
        # count_nonzero, not any(): this test runs every step, and for the
        # few rows of a small batch any() costs about twice as much
        count = np.count_nonzero(done)
        if count:
            steps[done] = k + 1 if n == 1 else k + 1 + at[done]
            if k == 0:
                steps[fixed] = 0
            stopped |= done
            diverged |= grew
            live -= count
            if not live:
                break
            state[done] = np.nan
        k += n
    # np.array then a transposed view: one copy, where np.stack(axis=1)
    # writes its rows one strided column at a time
    return np.array(distances[: steps.max(initial=0) + 1]).T, steps, stopped & ~diverged, diverged


def _stepped(engine: _Engine, steps: int):
    """The states of an engine (see :func:`_engine`) after each of its first
    ``steps`` steps, one ``(rows, dim)`` array per step, with no stop test:
    bit for bit those of the runs of its rows, whose ``record`` is their
    iterates, since a step is deterministic and never writes into the state
    it reads. A later step may write into a yielded array (long rows take
    turns in a pair of buffers), so copy one to keep it. The engine's
    workers are stopped once the steps end or the generator is closed."""
    state = engine.state
    try:
        for _ in range(steps):
            state = engine.step(state)[0]
            yield state
    finally:
        engine.stop()


class _Replay(Sequence):
    """The iterates of a one-row run, recomputed when first read.

    ``build()`` returns the run's engine (see :func:`_engine`) afresh. The
    first iterate is rebuilt too, as the engine's record of its first state
    (for ADMM the same ``rho * u0`` products as the run normed, so the same
    bits), and the records of the states :func:`_stepped` gives are those
    of the ``steps`` steps the run took. The length needs no replay.
    """

    def __init__(self, build: Callable[[], _Engine], steps: int):
        self._build, self._steps = build, steps

    def __len__(self) -> int:
        return self._steps + 1

    def __getitem__(self, index):
        return self._vecs[index]

    @cached_property
    def _vecs(self) -> list[Vec]:
        engine = self._build()
        # the run checked that the recorded start is finite
        first = Vec._adopt(engine.record(engine.state)[0])
        return [first, *(Vec(engine.record(state)[0]) for state in _stepped(engine, self._steps))]

    @cached_property
    def final_x(self) -> Vec | None:
        """ADMM's x-update of the state that the run's last step read, or the
        origin if no step ran, replayed with no state kept but the next
        step's and no iterate recorded; None for the other engines."""
        engine = self._build()
        if engine.x is None:
            return None
        state = engine.state
        for state in _stepped(engine, self._steps - 1):
            pass
        x = engine.x(state)[0] if self._steps else np.zeros(state.shape[1])
        # checked by its least and greatest entries: no row-sized temporary
        return Vec._adopt(x) if np.isfinite([x.min(), x.max()]).all() else Vec(x)


def _run_one(problem: CompositeProblem, mode: str, alpha, gamma, v: Vec, max_iter: int, tol: float) -> IterateTrace:
    """One run of ``mode`` from ``v`` (ADMM's ``u0``), as an
    :class:`IterateTrace`: a one-row batch of :func:`_run_blocks`, whose
    engine :class:`_Replay` builds again when the trace is read."""
    builder = _engine(problem, mode, gamma, alpha=alpha)
    build = lambda alphas, gammas, rows, at=None: builder(alphas, gammas, rows, mode == "admm", at)
    alphas, gammas, rows = np.array([alpha], dtype=float), np.array([gamma], dtype=float), v.coeffs[None]
    runs = _run_blocks(build, problem.dim, alphas, gammas, lambda part: rows, max_iter, tol)
    trace = IterateTrace(
        _Replay(lambda: build(alphas[:, None], gammas[:, None], rows), int(runs.steps[0])),
        Vec._adopt(np.broadcast_to(0.0, problem.dim)),
        runs.distances[0],
        runs.step_ratios[0],
        bool(runs.converged[0]),
    )
    if runs.diverged[0]:
        raise DivergenceError(
            f"diverged after {trace.n_steps} steps: distance grew past {DIVERGENCE_FACTOR:g}x "
            f"its starting value (alpha={alpha:g}, {'rho' if mode == 'admm' else 'gamma'}={gamma:g})",
            trace,
        )
    return trace


def _reflection(weights: np.ndarray, g: GFunction, gamma, refl=None, gw=None) -> np.ndarray:
    """Per-coordinate factor of ``R_g(R_f(z))`` at step size ``gamma`` (a
    scalar, or one per row as a column), into ``refl`` with ``gw`` as
    scratch if given (a column block's, see :class:`_ColumnBlocks`).

    Both reflected proximal maps are diagonal: ``R_f`` scales coordinate i by
    ``(1 - gamma*w_i) / (1 + gamma*w_i)`` and ``R_g`` is the identity or a
    negation.
    """
    gw = np.multiply(gamma, weights, out=gw)
    refl = np.subtract(1.0, gw, out=refl)
    gw += 1.0
    refl /= gw
    if g is GFunction.ZERO_INDICATOR:
        # the same bits as np.negative, whose float64 loop in numpy 2.4.6 on
        # an AVX-512 CPU gives wrong values for elements 64 bytes apart, as
        # in a one-column block of a buffer eight columns wide
        refl *= -1.0
    return refl


def _relaxed_engine(alpha, weights: np.ndarray, g: GFunction, gamma, z: np.ndarray) -> _Engine:
    """Engine (see :func:`_engine`) of relaxed DR from the rows ``z``: one
    step is ``(1 - alpha) z + alpha * refl * z``, with ``refl`` the factor of
    :func:`_reflection` at ``gamma`` from the curvatures ``weights``, and
    records ``z``."""
    blocks = _ColumnBlocks(z.shape, temps=1, params=1)
    keep, alpha = blocks.shaped(1.0 - alpha, alpha)

    def update(z, refl, z_next=None, t=None):
        z_next = np.multiply(z, keep, out=z_next)
        t = np.multiply(refl, z, out=t)
        t *= alpha
        z_next += t
        return z_next, z_next, np.subtract(z_next, z, out=t)

    # refl of the columns cols, formed into its block with the temporary as scratch
    form = lambda cols, *out: (_reflection(weights[..., cols], g, gamma, *out),)
    return _Engine(blocks.bind(update, form), lambda state: state, z, _unchanged, blocks.stop)


def _admm_scaling(f_weights: np.ndarray, nu: np.ndarray, rho, scale=None, denom=None) -> tuple:
    """The x-update's scale ``rho * nu`` and denominator ``f_weights + rho *
    nu**2`` (see :func:`_admm_engine`) at penalty ``rho`` (a scalar, or one
    per row as a column), into ``scale`` and ``denom`` if given (a column
    block's, see :class:`_ColumnBlocks`)."""
    denom = np.multiply(rho, np.multiply(nu, nu, out=denom), out=denom)
    denom += f_weights
    return np.multiply(rho, nu, out=scale), denom


def _admm_x(u: np.ndarray, scale, denom, x=None) -> np.ndarray:
    """The x-update of :func:`run_admm` from ``u`` with ``w`` at the origin,
    ``(w - u) * scale / denom`` (see :func:`_admm_engine`), into ``x`` if
    given."""
    x = np.subtract(0.0, u, out=x)
    x *= scale
    x /= denom
    return x


def _admm_engine(f_weights: np.ndarray, nu: np.ndarray, alpha, rho, rows: np.ndarray, rows_are_u=True) -> _Engine:
    """Engine (see :func:`_engine`) of the scaled ADMM updates (see
    :func:`run_admm`) from ``u = rows``, or from ``u = rows * (1 / rho)``
    if not ``rows_are_u``, with ``x`` at the origin; ``alpha`` and ``rho``
    are scalars or columns. Long rows' ``u`` is written into the first of their
    state buffers (see :class:`_ColumnBlocks`), not into an array of its
    own. ``w`` is the prox of the origin indicator, the origin at every
    step, so it is no state: ``w - u``
    is ``0.0 - u``, ``u + v - w`` is ``u + v``, and ``(1 - 2 alpha) w``,
    which adds a signed zero to ``v``, is left out. That changes no bit of
    ``u``: ``v`` is ``+0.0`` wherever ``u`` is zero, and elsewhere a zero
    added to ``v`` cannot change ``u + v``. No step reads ``x`` either, so
    the state is ``u``, and a step takes ``u - relax * (nu * (u * scale /
    denom))``, with ``-x`` in a temporary: bit for bit ``u + relax * (nu *
    x)`` with ``x`` from :func:`_admm_x`, since rounding commutes with
    negation and IEEE defines ``a + (-b)`` as ``a - b`` (the parameters are
    positive; a zero ``u`` or a product that underflows gives ``+0.0``
    both ways); that is one pass over the rows fewer than forming ``0.0 -
    u`` first. ``scale`` and ``denom`` come from :func:`_admm_scaling`, for
    the steps, the first step's x-test and ``x`` alike (see
    :meth:`_ColumnBlocks.formed`)."""
    blocks = _ColumnBlocks(rows.shape, temps=2, params=2)
    if rows_are_u:
        u = rows
    else:
        # a u that overflows is rejected by _run_blocks' check
        with np.errstate(over="ignore", invalid="ignore"):
            u = np.multiply(rows, 1.0 / rho, out=blocks.pair[0])
    relax, rho_step = blocks.shaped(2.0 * alpha, rho)
    rho_rows = np.ravel(rho)

    def update(u, scale, denom, nu, u_new=None, t=None, diff=None):
        # t holds -x, then -v = relax * (nu * -x), then the recorded rho * u
        t = np.multiply(u, scale, out=t)
        t /= denom
        t *= nu
        t *= relax
        u_new = np.subtract(u, t, out=u_new)
        return u_new, np.multiply(rho_step, u_new, out=t), np.subtract(u_new, u, out=diff)

    # scale and denom of the columns cols, formed into their blocks, and the gains
    form = lambda cols, *out: (*_admm_scaling(f_weights[..., cols], nu[..., cols], rho, *out[:2]), nu[..., cols])
    walk = blocks.bind(update, form)

    def step(state, steps=1):
        next_state, dist, step_norm = walk(state, steps)
        step_norm *= rho_rows
        return next_state, dist, step_norm

    def x_block(u, cols, x=None):
        # the x-update of the columns cols of u, into x or the scratch block
        (scale, denom, _), scratch = blocks.formed(form, cols)
        return _admm_x(u[:, cols], scale, denom, scratch if x is None else x)

    def still(before: np.ndarray, after: np.ndarray) -> np.ndarray:
        # a row stays where it was only if the first step leaves u unchanged
        # and x at the origin, where it started: u can stay put under a
        # nonzero x when relax * nu * x is lost in the rounding of u
        return _unchanged(before, after, lambda cols: x_block(before, cols))

    def x(u):
        x = np.empty(u.shape)
        for lo in range(0, u.shape[1], COLUMN_BLOCK):
            cols = slice(lo, min(lo + COLUMN_BLOCK, u.shape[1]))
            x_block(u, cols, x[:, cols])
        return x

    return _Engine(step, lambda state: rho * state, u, still, blocks.stop, x)


def _engine(
    problem: CompositeProblem, mode: str, gamma: float, least: float | None = None, alpha: float = 1.0
) -> Callable:
    """The engine ``mode`` runs on ``problem``, at step sizes from ``least``
    (``gamma`` if None) up to ``gamma``, as a builder: ``build(alpha,
    gamma, rows, rows_are_u=False, at=None)`` returns the :class:`_Engine`
    for :func:`_iterate` from the start rows ``rows``, with ``alpha`` and
    ``gamma`` bound into its maps; the norms of its ``record`` of the first
    state are the starting distances of :func:`_iterate`. With ``at``, the
    rows are ``(rows, 1)`` columns, each row's coordinate ``at[r]`` of a
    unit start (see :func:`_run_blocks`), and the engine takes the
    curvatures and gains of those coordinates alone.

    The one place that checks the mode and the problem it needs, once for
    every engine it builds; the dual curvatures, which do not depend on the
    step size, are formed here once too. ``alpha`` and ``gamma`` (``rho``
    for ADMM) of a build are scalars or ``(rows, 1)`` columns, with
    ``gamma`` no larger than the ``gamma`` checked here. Relaxed DR runs on
    ``problem`` itself ("primal-dr", identity coupling only) or on its dual
    ("dual-dr") and records ``rows``. ADMM starts from ``u = rows * (1 /
    gamma)``, or from ``u = rows`` with ``rows_are_u``, and records ``gamma
    * u``. Dual DR and ADMM need ``g`` the indicator of the origin and an
    explicit diagonal coupling. A step size whose product with a curvature
    or gain overflows raises ValueError: rounding is monotone, so the
    product of ``gamma`` and the largest curvature or gain, in Python
    floats, is the largest one. So does an ADMM step size whose inverse
    overflows, which ``least`` has if any has, and an ADMM relaxation
    ``alpha`` (the largest) whose double, the over-relaxation, overflows.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    # per-coordinate curvatures or gains, or those of the coordinates `at` as a column
    own = lambda w, at: w if at is None else w[at, None]
    if mode == "primal-dr":
        if problem.a is not None:
            raise ValueError("primal DR requires the identity coupling (problem.a must be None)")
        quad, g = problem.f, problem.g
    elif problem.g is not GFunction.ZERO_INDICATOR or problem.a is None:
        raise ValueError(f"{mode} needs g = indicator of the origin and an explicit diagonal coupling")
    elif mode == "dual-dr":
        # the conjugate of the origin indicator vanishes: the dual's g is zero
        quad, g = dual_function(problem), GFunction.ZERO
    else:
        f_weights, nu = problem.f.weights, problem.a.weights
        # the engine's own products may overflow where gamma * beta_hat does not
        top = float(nu.max())
        _check_finite_product(gamma, top, "nu")
        _check_finite_product(gamma, top * top, "nu**2")
        least = float(gamma if least is None else least)
        if not math.isfinite(1.0 / least):
            raise ValueError(
                f"1 / gamma must be finite (ADMM's u is start / gamma), got an overflow at gamma={least!r}"
            )
        if not math.isfinite(2.0 * alpha):
            raise ValueError(f"2 * alpha must be finite (ADMM's over-relaxation), got an overflow at alpha={alpha!r}")

        return lambda alpha, gamma, rows, rows_are_u=False, at=None: _admm_engine(
            own(f_weights, at), own(nu, at), alpha, gamma, rows, rows_are_u
        )
    _check_finite_product(gamma, quad.beta, "beta")
    weights = quad.weights
    return lambda alpha, gamma, rows, rows_are_u=False, at=None: _relaxed_engine(
        alpha, own(weights, at), g, gamma, rows
    )


def run_dr(
    problem: CompositeProblem,
    params: SplitParams,
    z0: Vec,
    max_iter: int = 200,
    tol: float = 1e-13,
) -> IterateTrace:
    """Iterate the relaxed splitting step ``z <- (1 - alpha) z + alpha
    R_g(R_f(z))`` from ``z0`` and record the contraction trace. Needs the
    identity coupling (``problem.a is None``). A problem with an explicit
    coupling runs on the dual side: the dual of ``min f(x) + g(A x)`` with
    ``g`` the origin indicator is ``CompositeProblem(dual_function(problem),
    GFunction.ZERO)``, since the conjugate of the indicator vanishes.

    ``R_f = 2 prox_{gamma f} - id`` scales coordinate i by ``(1 -
    gamma*w_i) / (1 + gamma*w_i)`` and ``R_g`` is the identity or a
    negation, so one step at ``alpha = 1/2`` is ``prox_{gamma f}`` itself
    when ``g`` is zero.

    Stops when the step norm ``|z_{k+1} - z_k|`` drops to ``tol`` or after
    ``max_iter`` steps. If the very first step leaves ``z0`` exactly
    unchanged the trace has length 1 (already at a fixed point). Distances
    are measured from the origin, which is exact for every problem this
    package can represent: the smooth part is minimized at 0 and both
    supported nonsmooth terms vanish there.

    Raises
    ------
    DivergenceError
        When the distance to the fixed point exceeds 10x its starting value,
        which is how an infeasible relaxation fails.
    """
    return _run_one(problem, "primal-dr", params.alpha, params.gamma, z0, max_iter, tol)


def run_admm(
    problem: CompositeProblem,
    rho: float,
    alpha: float,
    u0: Vec | None = None,
    max_iter: int = 200,
    tol: float = 1e-13,
) -> IterateTrace:
    """Scaled-form alternating updates for ``min f(x) + g(w)  s.t.  A x = w``.

    Per iteration, with penalty ``rho`` and over-relaxation ``2 * alpha``::

        x  <- argmin_x f(x) + rho/2 |A x - w + u|^2        (closed form,
                                                            coordinate-wise)
        v  <- 2*alpha * A x + (1 - 2*alpha) * w
        w  <- prox of g at (v + u), i.e. 0 for the origin indicator
        u  <- u + v - w

    ``alpha`` means the same relaxation as in :func:`run_dr` on the dual
    problem: with the updates over-relaxed by ``2 * alpha`` the scaled dual
    sequence ``mu_k = rho * u_k`` contracts with exactly the factor of the
    dual splitting iterate run at step size ``gamma = rho`` and the same alpha
    (``alpha = 1/2`` recovers the classic unrelaxed method). The trace records
    ``mu_k``; ``final_x`` rebuilds the final primal iterate. The step norm
    compared with ``tol`` is ``rho * |u_{k+1} - u_k|``.

    ``x`` and ``w`` start at the origin, and ``u`` at ``u0`` (the origin
    when None); the trace starts at ``rho * u0``.
    """
    _check_positive(rho=rho, alpha=alpha)
    u0 = Vec._adopt(np.zeros(problem.dim)) if u0 is None else u0
    return _run_one(problem, "admm", alpha, rho, u0, max_iter, tol)


def run_rows(
    problem: CompositeProblem,
    mode: str,
    alphas,
    gammas,
    starts: Callable[[slice], np.ndarray] | tuple,
    max_iter: int = 200,
    tol: float = 1e-13,
) -> RowRuns:
    """Many independent runs of one engine as rows of one array program.

    Row i runs ``mode`` at relaxation ``alphas[i]`` and step size
    ``gammas[i]``: :func:`run_dr` on ``problem`` ("primal-dr") or on its
    dual ``CompositeProblem(dual_function(problem), GFunction.ZERO)``
    ("dual-dr"), or :func:`run_admm` with ``rho = gammas[i]`` and ``u0 =
    start / gammas[i]`` ("admm"); those are one-row batches of the same
    block loop. Its distances, step count and ``converged`` and ``diverged``
    flags are bit for bit those of that single run; a diverged row is one
    whose single run raises :class:`DivergenceError`. No iterate is kept.

    ``starts(rows)`` returns the start rows for the row slice ``rows`` as a
    ``(rows, dim)`` array. Rows run in blocks of at most
    ``BLOCK_ELEMENTS // dim`` rows (at least one), and ``starts`` is called
    once per block, in order, so starts can be drawn as they are needed.
    Unit starts may come as a pair ``(at, values)`` instead, with no row
    made (see :func:`_run_blocks`): row i starts at ``values[i]`` along the
    coordinate ``at[i]``, an integer in ``[0, dim)``, or ValueError is
    raised before any block runs. A block raises ValueError before any step
    if a recorded start row (ADMM's ``gammas[i] * u0``) holds a NaN or an
    infinity.
    """
    alphas, gammas = _positive_rows(alphas=alphas, gammas=gammas)
    if alphas.ndim != 1 or alphas.shape != gammas.shape:
        raise ValueError("alphas and gammas must be 1-d and of equal length")
    # a bad mode or problem, a step size whose products overflow (the
    # largest's do if any do), an ADMM step size whose inverse overflows (the
    # least's) or an ADMM relaxation whose double overflows (the largest's)
    # fails here, before any block runs, even for no rows
    top, least = float(gammas.max(initial=1.0)), float(gammas.min(initial=1.0))
    build = _engine(problem, mode, top, least, float(alphas.max(initial=1.0)))
    if not callable(starts):
        at, values = np.asarray(starts[0]), np.array(starts[1], dtype=float)
        # an empty list is a float array
        ok = at.shape == values.shape == alphas.shape and (at.dtype.kind in "iu" or not at.size)
        if not (ok and np.all((0 <= at) & (at < problem.dim))):
            raise ValueError(f"unit starts need one integer coordinate in [0, {problem.dim}) and one value per row")
        starts = at, values
    return _run_blocks(build, problem.dim, alphas, gammas, starts, max_iter, tol)


def _start_norms(engine: _Engine, lo: int) -> np.ndarray:
    """The starting distances of a block of rows whose first row is row
    ``lo`` of its batch: the norms of the engine's record of its first
    state, by :func:`_norms`, which makes no row-sized record of long rows.
    Raises ValueError if a recorded row holds a NaN or an infinity: only a
    row whose norm is not finite is read again, a column block at a time,
    so a finite row whose squares overflow runs.
    """
    state, record = engine.state, engine.record
    norms = _norms(state, record)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        finite = np.ones(bad.size, dtype=bool)
        for c in range(0, state.shape[1], COLUMN_BLOCK):
            finite &= np.isfinite(record(state[:, c : c + COLUMN_BLOCK])[bad]).all(axis=1)
        if not finite.all():
            row = lo + bad[np.argmin(finite)]
            raise ValueError(f"recorded start rows must be finite (no NaN or Inf): row {row} is not")
    return norms


def _run_blocks(build: Callable, dim: int, alphas, gammas, starts, max_iter: int, tol: float) -> RowRuns:
    """The block loop of every run, as :func:`run_rows` describes it: each block
    of rows is built by ``build(alphas, gammas, rows, at=at)`` (see
    :func:`_engine`) and run through :func:`_iterate`.

    Unit starts, a checked pair ``(at, values)`` (see :func:`run_rows`),
    run as ``(rows, 1)`` rows, each its row's own coordinate ``at[i]``
    holding ``values[i]``, with the bits of their full-width runs. Every
    step map is diagonal with finite parameters, so the other coordinates
    would stay signed zeros for the whole run: their squares add exact
    zeros to every dot, whatever the order of the sum and with or without
    FMA, and :func:`_unchanged` and ADMM's x-test would read them as
    unchanged. Blocks are sized by the width stepped: 1 for unit starts,
    else ``dim``, the width of what ``starts`` returns. ``max_iter`` is
    checked here, before any block is built: an integer (a float raises
    TypeError) that is not negative (ValueError)."""
    max_iter = operator.index(max_iter)
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    rows = alphas.size
    unit = not callable(starts)
    block = max(1, BLOCK_ELEMENTS // (1 if unit else dim))
    steps = np.zeros(rows, dtype=int)
    converged = np.zeros(rows, dtype=bool)
    diverged = np.zeros(rows, dtype=bool)
    blocks = []
    for lo in range(0, rows, block):
        part = slice(lo, min(lo + block, rows))
        if unit:
            at, z = starts[0][part], starts[1][part, None]
        else:
            at, z = None, np.asarray(starts(part), dtype=float)
            if z.shape != (part.stop - part.start, dim):
                raise ValueError(f"start rows have shape {z.shape}, expected {(part.stop - part.start, dim)}")
        engine = build(alphas[part, None], gammas[part, None], z, at=at)
        # an ADMM engine steps its own u = z / gamma: the start rows go
        # before the first step
        del z
        try:
            first = _start_norms(engine, lo)
            dist, steps[part], converged[part], diverged[part] = _iterate(engine, first, max_iter, tol)
        finally:
            engine.stop()
        blocks.append(dist)
    if len(blocks) == 1:
        # a lone block's rows already end in NaN past their last steps
        return RowRuns(blocks[0], steps, converged, diverged)
    distances = np.full((rows, max((d.shape[1] for d in blocks), default=1)), np.nan, order="F")
    for lo, dist in zip(range(0, rows, block), blocks):
        distances[lo : lo + len(dist), : dist.shape[1]] = dist
    return RowRuns(distances, steps, converged, diverged)


def fit_rates(step_ratios: np.ndarray) -> np.ndarray:
    """Row form of :func:`fit_rate`: one fit per row of a ``(rows, steps)``
    ratio array whose non-finite entries are not valid ratios, NaN for a row
    with fewer than 5 valid ones.

    A fit is bit for bit what :func:`fit_rate` gives for that row alone:
    the fitted rows' tails are gathered once, ordered by their length, and
    the rows of each length are averaged as one ``(rows, length)`` block, a
    sum then a division, as ``np.mean`` does.
    """
    step_ratios = np.asarray(step_ratios, dtype=float)
    if step_ratios.ndim != 2:
        raise ValueError(f"step ratios must be a (rows, steps) array, got shape {step_ratios.shape}")
    fits = np.full(step_ratios.shape[0], np.nan)
    # the flat positions of the valid ratios, row after row, and how many of
    # them there are up to the end of each row
    valid = np.flatnonzero(np.isfinite(step_ratios))
    row_ends = np.searchsorted(valid, step_ratios.shape[1] * np.arange(1, fits.size + 1))
    counts = np.diff(row_ends, prepend=0)
    # the fitted rows, in order of their tail lengths
    rows = np.flatnonzero(counts >= MIN_FIT_RATIOS)
    lengths = (counts[rows] + 1) // 2
    order = np.argsort(lengths, kind="stable")
    rows, lengths = rows[order], lengths[order]
    if not rows.size:
        return fits
    # a row's tail is its last ceil(n/2) valid ratios, in order; gathered
    # row after row, the tails of one length form one block
    ends = np.cumsum(lengths)
    offsets = ends - lengths
    firsts = row_ends[rows] - lengths
    tails = step_ratios.ravel()[valid[np.repeat(firsts - offsets, lengths) + np.arange(ends[-1])]]
    # the first row of each length, and the end
    edges = [*np.flatnonzero(np.diff(lengths, prepend=0)).tolist(), rows.size]
    means = np.empty(rows.size)
    with np.errstate(divide="ignore"):
        logs = np.log(tails)
        for lo, hi in zip(edges, edges[1:]):
            np.add.reduce(logs[offsets[lo] : ends[hi - 1]].reshape(hi - lo, -1), axis=1, out=means[lo:hi])
        means /= lengths
        fit = np.exp(means)
    fits[rows] = np.where(np.logical_or.reduceat(tails == 0.0, offsets), 0.0, fit)
    return fits


def fit_rate(trace: IterateTrace) -> float:
    """Asymptotic contraction factor: geometric mean of the last
    ``ceil(n/2)`` valid step ratios. Needs at least 5 valid ratios."""
    valid = np.count_nonzero(np.isfinite(trace.step_ratios))
    if valid < MIN_FIT_RATIOS:
        raise ValueError(f"trace too short: {valid} valid step ratios, need at least {MIN_FIT_RATIOS}")
    return float(fit_rates(trace.step_ratios[None])[0])
