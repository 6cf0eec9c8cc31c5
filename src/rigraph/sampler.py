"""Seeded realization of the random intersection graph.

Reproducibility contract
------------------------
Every trial is generated from a PCG64 stream whose 256-bit state is derived
from ``(master_seed, trial_index)`` alone, by splitmix64 expansion:

    base  = (master_seed + (trial_index + 1) * GAMMA) mod 2^64
    seed  = mix64(base)                       # the trial seed
    w_k   = mix64((seed + k * GAMMA) mod 2^64),  k = 1..4
    state = w1 << 64 | w2,   inc = (w3 << 64 | w4) | 1

where ``mix64`` is the standard splitmix64 finalizer (an avalanche function:
every output bit depends on every input bit).  Trial t is therefore
independent of whether trials 0..t-1 were ever generated, which is what
makes parallel trial execution deterministic.

A trial's generator is seated by writing those four words straight into
the four uint64 words that hold ``PCG64``'s state and increment, through
numpy's ctypes interface (``bg.ctypes.state_address``).  Where numpy keeps
each word (a native 128-bit integer or an emulated {high, low} pair, of
either byte order) is not assumed: at import, one probe seats a known state
through the documented ``bg.state`` dict setter, reads the stored words
back and records their order, and it raises ``StateLayoutError`` if they
are no permutation of the words it set.  Only state and increment are
written; the generator's buffered ``has_uint32``/``uinteger`` pair is left
as found, and the double draws below never read it.  The dict setter stays
the reference: a generator it seats from the same words draws the same
stream.

A trial consumes randomness in a fixed order: one block of n uniforms for
group assignment (inverse CDF over the cumulative a), then one block of
sum_x K_{g_x} uniforms for the object sets, vertex by vertex.  Each vertex's
K-subset comes from Floyd's selection-tracking algorithm driven by its block:
draw s (0-based) maps u to t = min(floor(u * (j+1)), j) with j = P - K + s,
inserting j on collision.  Memory per set is O(K); the pool is never
materialized.

``sample_batch`` realizes trials [start, stop) as one ``GraphBatch``, whose
docstring gives the layout: each trial's stream fills one row of n*(1+K_m)
floats (a double takes exactly one 64-bit output, so the row starts with
the two blocks above; the rest is unused).  Each ring size is then sampled
once over the vertices of every trial, draw-major: row s of a (K, count)
block holds draw s of every set, so each set is a column.  Floyd inserts j
only on a collision, so a set whose raw draws are distinct is those draws:
the raw draws are sorted down the columns (an odd-even transposition
network of row-wise min/max for short rings), and exact Floyd reruns only
the columns that hold a repeat.  ``sample_graph`` is the batch of one trial.
Bit-compatibility is promised only within this implementation.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidParamsError, StateLayoutError
from .model_core import ModelParams, _as_int, _at_least

_M64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array: full avalanche, and the
    wraparound multiply is the finalizer's mod-2^64 arithmetic."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _trial_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """Trial seeds of trials [start, stop) as a uint64 array."""
    first = (master_seed + (start + 1) * GAMMA) & _M64
    return _mix64(np.uint64(first) + np.arange(stop - start, dtype=np.uint64) * np.uint64(GAMMA))


def trial_state_words(master_seed: int, start: int, stop: int) -> np.ndarray:
    """PCG64 state words for trials [start, stop) as a (stop-start, 4) array.

    Row t-start holds the four splitmix64 expansion words w1..w4 of trial t.
    """
    seeds = _trial_seeds(master_seed, start, stop)
    return _mix64(seeds[:, None] + np.arange(1, 5, dtype=np.uint64) * np.uint64(GAMMA))


def _state_dict(w1: int, w2: int, w3: int, w4: int) -> dict:
    """The ``PCG64.state`` value for one row of ``trial_state_words``."""
    return {
        "bit_generator": "PCG64",
        "state": {"state": (w1 << 64) | w2, "inc": ((w3 << 64) | w4) | 1},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _stored_words(bg: np.random.PCG64) -> ctypes.Array:
    """The four uint64 words that hold ``bg``'s state and increment, as a
    ctypes array over the generator's own memory: ``state_address`` points
    at numpy's ``pcg64_state``, whose first field points at them.  The
    array does not keep ``bg`` alive, so it must not outlive it."""
    words = ctypes.c_void_p.from_address(bg.ctypes.state_address).value
    return (ctypes.c_uint64 * 4).from_address(words)


# four distinct words; the last is odd, so the increment is stored as given
_PROBE_WORDS = (0x0123456789ABCDEF, 0x1032547698BADCFE, 0x2301674589EFCDAB, 0x3210765498FEDCBB)


def _learn_word_order() -> tuple[int, ...]:
    """Where numpy stores the words of a PCG64 state: stored word i holds
    word ``order[i]`` of (state >> 64, state & M64, inc >> 64, inc & M64).
    Learnt by seating ``_PROBE_WORDS`` through the dict setter and reading
    them back; words that are no permutation of those set raise
    ``StateLayoutError``."""
    bg = np.random.PCG64(0)
    bg.state = _state_dict(*_PROBE_WORDS)
    stored = list(_stored_words(bg))
    if sorted(stored) != sorted(_PROBE_WORDS):
        raise StateLayoutError(
            f"PCG64 state words read back as {[hex(w) for w in stored]}, "
            f"no permutation of the words set, {[hex(w) for w in _PROBE_WORDS]}"
        )
    return tuple(map(_PROBE_WORDS.index, stored))


_WORD_ORDER = _learn_word_order()


def _seating_rows(words: np.ndarray) -> list[list[int]]:
    """Rows of ``trial_state_words`` as the values of the four stored
    words, in storage order, the increment's low word made odd."""
    stored = words[:, _WORD_ORDER]
    stored[:, _WORD_ORDER.index(3)] |= np.uint64(1)
    return stored.tolist()


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one trial: (64-bit master seed, trial index >= 0)."""

    master_seed: int
    trial_index: int = 0

    def __post_init__(self) -> None:
        master_seed = _as_int("master_seed", self.master_seed)
        if not 0 <= master_seed <= _M64:
            raise InvalidParamsError(f"master_seed must be a 64-bit unsigned integer, got {master_seed!r}")
        object.__setattr__(self, "master_seed", master_seed)
        object.__setattr__(self, "trial_index", _at_least("trial_index", self.trial_index, 0))

    def trial_seed(self) -> int:
        return int(_trial_seeds(self.master_seed, self.trial_index, self.trial_index + 1)[0])


def _int64s(what: str, values: list) -> np.ndarray:
    """``values`` as an int64 array, each an integer (``_as_int``) in the
    int64 range; a list of plain ints skips the item-by-item conversion."""
    if not set(map(type, values)) <= {int}:
        values = [x if type(x) is int else _as_int(what, x) for x in values]
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise InvalidParamsError(f"{what} must lie in the int64 range") from None


@dataclass(frozen=True, eq=False)  # array fields: compared and hashed by identity
class GraphBatch:
    """``trials`` realized graphs on n vertices each, stored back to back.

    Vertex x of trial r (both 0-based) is vertex r*n + x of the batch:
    ``groups[r*n + x]`` is its 1-based group, and its object set is the
    sorted, duplicate-free ids ``objects[offsets[r*n+x]:offsets[r*n+x+1]]``,
    each in 0..P-1.  So ``groups`` has trials*n entries and ``offsets`` one
    more.  Edges are implicit (two vertices of one trial are adjacent iff
    their sets intersect) and never materialized.

    Construction checks the layout, whoever builds the batch: ``trials``
    and ``P`` are integers >= 1 (numpy integers are stored as Python ints),
    the three arrays are 1-D numpy arrays of a signed integer dtype,
    ``offsets`` has one entry per vertex plus one, never falls and runs
    from 0 to ``len(objects)``, the vertices split evenly into the trials,
    and, in O(incidences), every id lies in [0, P), which the analysis's
    keys need.  A breach raises ``InvalidParamsError``.  What only the
    params fix (labels in 1..m, set sizes K_i, ids rising within each set)
    is not checked here; ``sample_batch`` builds it so.
    """

    groups: np.ndarray  # int64, 1-based group per vertex
    objects: np.ndarray  # int64 object ids, the sets one after another
    offsets: np.ndarray  # int64 set boundaries into objects
    trials: int
    P: int

    def __post_init__(self) -> None:
        trials, P = _at_least("trials", self.trials, 1), _at_least("P", self.P, 1)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "P", P)
        for name in ("groups", "objects", "offsets"):
            x = getattr(self, name)
            if not isinstance(x, np.ndarray) or x.ndim != 1 or x.dtype.kind != "i":
                got = f"a {x.ndim}-D {x.dtype} array" if isinstance(x, np.ndarray) else type(x).__name__
                raise InvalidParamsError(f"{name} must be a 1-D numpy array of signed integers, got {got}")
        objects, offsets, vertices = self.objects, self.offsets, len(self.groups)
        if len(offsets) != vertices + 1:
            raise InvalidParamsError(f"need one object set per group label, got {len(offsets) - 1} and {vertices}")
        if offsets[0] != 0 or offsets[-1] != len(objects):
            raise InvalidParamsError(f"offsets must run from 0 to {len(objects)}, got {offsets[0]} to {offsets[-1]}")
        if (falls := offsets[1:] < offsets[:-1]).any():
            raise InvalidParamsError(f"offsets must never fall, got a negative set size at vertex {np.argmax(falls)}")
        if vertices % trials:
            raise InvalidParamsError(f"{vertices} vertices do not split into {trials} trials")
        if len(objects) and (objects.min() < 0 or objects.max() >= P):
            raise InvalidParamsError(f"object ids must lie in [0, {P}), got {objects.min()} to {objects.max()}")

    @classmethod
    def from_sets(cls, groups, object_sets, P: int, trials: int = 1) -> GraphBatch:
        """The batch of per-vertex groups and sorted object sets, listed
        vertex by vertex in batch order; the constructor checks the
        layout.  Every group label and object id must be an integer
        (``_as_int``: numpy integers pass, bools, floats and strings are
        refused) in the int64 range, so none is truncated on the way in."""
        try:
            sizes = [0, *map(len, object_sets)]
            ids, labels = list(chain.from_iterable(object_sets)), list(groups)
        except TypeError:  # ``groups``, ``object_sets`` or a set is not a sequence
            raise InvalidParamsError("groups must be a sequence of integers and object_sets "
                                     "a sequence of sequences of integers") from None
        offsets = np.cumsum(sizes, dtype=np.int64)
        return cls(_int64s("every group label", labels), _int64s("every object id", ids), offsets, trials, P)

    @property
    def n(self) -> int:
        return len(self.groups) // self.trials


# column sorts of up to this many draws run through an odd-even
# transposition network of row-wise min/max; longer columns are cheaper to
# hand to np.sort (at 4,000 columns on a 2-vCPU Xeon the network took 0.6-0.85
# of np.sort's time at K = 10, and about as long at K = 12)
_NETWORK_MAX_K = 10


def _sorted_rows(sel: np.ndarray) -> list[np.ndarray]:
    """The columns of a (K, count) array sorted, as its K rows: smallest
    first.  The rows may be views of ``sel`` or of a spare row, in any
    order of storage."""
    K = len(sel)
    if K > _NETWORK_MAX_K:
        sel.sort(axis=0)
        return list(sel)
    rows = list(sel)
    spare = np.empty_like(rows[0])
    for r in range(K):  # odd-even transposition: K rounds sort K items
        for i in range(r % 2, K - 1, 2):
            lo, hi = rows[i], rows[i + 1]
            np.minimum(lo, hi, out=spare)
            np.maximum(lo, hi, out=hi)
            rows[i], spare = spare, lo
    return rows


def _raw_draws(P: int, K: int, U: np.ndarray) -> np.ndarray:
    """Draw s of every column of a (K, count) block of uniforms:
    t = min(floor(u * (j+1)), j) with j = P - K + s."""
    j = np.arange(P - K, P, dtype=np.int64)[:, None]
    sel = np.empty(U.shape, dtype=np.int64)
    np.multiply(U, j + 1, out=sel, casting="unsafe")  # truncation is floor here
    np.minimum(sel, j, out=sel)  # guard against u*(j+1) rounding up to j+1
    return sel


def _floyd_batch(P: int, K: int, U: np.ndarray) -> np.ndarray:
    """Column-wise Floyd K-subsets of {0..P-1} from a (K, count) block of
    uniforms, row s holding draw s of every set.

    Draw s maps u to t = min(floor(u * (j+1)), j) with j = P - K + s, and
    j is taken instead when t already is.  Column c of the result is set c
    in draw order.  This is the exact path: the collision test costs
    O(K^2) per column.
    """
    sel = _raw_draws(P, K, U)
    for s in range(1, K):
        sel[s, (sel[:s] == sel[s]).any(axis=0)] = P - K + s
    return sel


def _ring_sets(P: int, K: int, U: np.ndarray) -> list[np.ndarray]:
    """The sorted Floyd K-subsets of a (K, count) block of uniforms, as K
    rows (row s holds the s-th smallest id of every set).

    Floyd takes j instead of a draw only on a collision, so a column whose
    raw draws are distinct already is its set: sorting the raw draws
    settles every such column, and ``_floyd_batch`` recomputes the rest,
    which are the columns whose sorted draws repeat a neighbour.  From
    K^2 > P on, a third or more of the columns collide and the reruns cost
    more than the sort saves, so Floyd runs on every column first.
    """
    if K * K > P:
        return _sorted_rows(_floyd_batch(P, K, U))
    rows = _sorted_rows(_raw_draws(P, K, U))
    if K > 1:
        repeat = rows[1] == rows[0]
        for s in range(2, K):
            repeat |= rows[s] == rows[s - 1]
        redo = np.flatnonzero(repeat)
        if len(redo):
            for row, fixed in zip(rows, np.sort(_floyd_batch(P, K, U[:, redo]), axis=0)):
                row[redo] = fixed
    return rows


def _check_pool(P: int) -> None:
    if P > 1 << 53:  # Floyd maps a 53-bit uniform to an id, so it skips ids of larger pools
        raise InvalidParamsError(f"simulation needs P <= 2^53, got P={P}")


def sample_batch(
    params: ModelParams, master_seed: int, start: int, stop: int, scratch: np.random.PCG64 | None = None
) -> GraphBatch:
    """Realize trials [start, stop) of ``master_seed``, trial t from the
    stream of ``SeedSpec(master_seed, t)``; ``scratch``, if given, is the
    ``PCG64`` reseated for each trial.

    Each trial's generator is seated by writing its state and increment
    into the generator's four stored words, in the order the import-time
    probe learnt from the ``bg.state`` dict setter, which stays the
    reference.  The ``has_uint32``/``uinteger`` pair of ``scratch`` is left
    as found: the double draws never read it, so a pending 32-bit half
    changes no batch.
    """
    _check_pool(params.P)
    seed = SeedSpec(master_seed, start)
    trials = _as_int("stop", stop) - seed.trial_index
    if trials < 1:
        raise InvalidParamsError(f"need start < stop, got start={start!r}, stop={stop!r}")
    words = trial_state_words(seed.master_seed, seed.trial_index, seed.trial_index + trials)
    n, P = params.n, params.P
    width = n * (1 + params.K[-1])
    U = np.empty((trials, width))
    bg = scratch if scratch is not None else np.random.PCG64(0)
    if not isinstance(bg, np.random.PCG64):
        raise InvalidParamsError(f"scratch must be a numpy PCG64, got {type(bg).__name__}")
    gen = np.random.Generator(bg)
    stored = _stored_words(bg)  # a view into bg, dropped with this call
    for row, w in zip(U, _seating_rows(words)):
        stored[:] = w
        gen.random(out=row)

    # group of u: 1 + #{l < m-1 : u >= cum_l}, the inverse CDF with the
    # last group taking the float dust at the top
    cum = np.cumsum(np.asarray(params.a, dtype=np.float64)).tolist()
    head = U[:, :n]
    groups = np.ones((trials, n), dtype=np.int64)
    for c in cum[:-1]:
        groups += head >= c
    groups = groups.ravel()
    sizes = np.asarray(params.K, dtype=np.int64)[groups - 1]
    offsets = np.zeros(trials * n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    # a vertex's floats sit in its trial's row, after the n group floats, at
    # the vertex's offset within the trial
    local = offsets[:-1].reshape(trials, n)
    row_start = np.arange(n, trials * width + n, width, dtype=np.int64) - local[:, 0]
    starts = (local + row_start[:, None]).ravel()
    floats = U.ravel()
    objects = np.empty(int(offsets[-1]), dtype=np.int64)
    for Kg in sorted(set(params.K)):
        idx = np.flatnonzero(sizes == Kg)
        first, at = starts[idx], offsets[idx]
        # draw-major: row s holds draw s of every set of this size
        draws = np.empty((Kg, len(idx)))
        for s, row in enumerate(draws):
            np.take(floats[s:], first, out=row, mode="clip")
        for s, row in enumerate(_ring_sets(P, Kg, draws)):
            objects[s:][at] = row
    return GraphBatch(groups, objects, offsets, trials, P)


def sample_graph(params: ModelParams, seed: SeedSpec, *, scratch: np.random.PCG64 | None = None) -> GraphBatch:
    """Realize one graph, trial ``seed.trial_index`` of ``seed.master_seed``,
    as a one-trial batch."""
    return sample_batch(params, seed.master_seed, seed.trial_index, seed.trial_index + 1, scratch)
