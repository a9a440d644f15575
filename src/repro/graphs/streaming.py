"""Streaming edge-block generators for million-node graph families.

The classic generators in :mod:`repro.graphs.generators` build
``networkx`` graphs — fine up to ~10^5 vertices, prohibitive beyond
(every vertex and edge is a Python object).  The functions here instead
yield **edge blocks**: ``(k, 2)`` int64 numpy arrays of directed
candidate edges.  They are consumed by
:func:`repro.congest.runtime.compile.compile_edge_stream`, which
deduplicates, symmetrizes, and narrows them into a CSR topology without
ever materializing the full edge list in Python objects.

Determinism contract
--------------------
Every family draws from counter-based ``numpy.random.Philox`` streams
keyed by ``(derive_stream_key(seed, [family, params…]), quantum)``
where ``quantum`` indexes a **fixed internal chunk** of ``2**16``
candidate edges (:data:`QUANTUM`).  The public ``block_edges`` argument
only re-chunks the already-determined stream, so::

    concat(stream_powerlaw_edges(n, m, seed=s, block_edges=b1))
    == concat(stream_powerlaw_edges(n, m, seed=s, block_edges=b2))

for any block sizes ``b1``/``b2`` — the property the scale tests pin.
Keys route through the shared Philox key-derivation in
:mod:`repro.congest.runtime.rng`, so graph streams, vertex RNG planes,
and fault schedules all live in one keyed-stream discipline.

Blocks are *candidates*: they may contain self-loops and duplicates
(power-law and R-MAT sample with replacement); the compile pass drops
both.  Only ``stream_random_regular_edges`` holds O(n·degree) numpy
scratch (one stub permutation); the other families are O(block).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

#: Fixed internal quantum (candidate edges per Philox counter step).
#: Part of the determinism contract — changing it changes every stream.
QUANTUM = 1 << 16

# Family tags folded into the stream key (ints: ``derive_stream_key``
# hashes strings via ``hash()``, which PYTHONHASHSEED would randomize).
_POWERLAW_TAG = 1
_RMAT_TAG = 2
_REGULAR_TAG = 3


def _stream_key(seed: int, scope: list) -> int:
    # Lazy import: repro.congest.runtime imports repro.graphs (cache
    # module), so the reverse edge must resolve at call time.
    from repro.congest.runtime.rng import derive_stream_key

    return derive_stream_key(seed, scope)


def _quantum_generator(key: int, quantum: int) -> np.random.Generator:
    """One Philox stream per (family key, quantum index)."""
    return np.random.Generator(np.random.Philox(key=[key, quantum]))


def _reblock(
    quanta: Iterator[np.ndarray], block_edges: int
) -> Iterator[np.ndarray]:
    """Re-chunk a fixed-quantum stream into ``block_edges``-row blocks.

    Pure slicing/concatenation of already-drawn arrays — block size can
    never influence the drawn values.
    """
    if block_edges <= 0:
        raise ValueError("block_edges must be positive")
    pending: list[np.ndarray] = []
    held = 0
    for quantum in quanta:
        pending.append(quantum)
        held += len(quantum)
        while held >= block_edges:
            buffer = pending[0] if len(pending) == 1 else np.concatenate(pending)
            yield buffer[:block_edges]
            rest = buffer[block_edges:]
            pending = [rest] if len(rest) else []
            held = len(rest)
    if held:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


def _quantum_sizes(total: int) -> Iterator[tuple[int, int]]:
    """Yield ``(quantum_index, count)`` covering ``total`` candidates."""
    full, tail = divmod(total, QUANTUM)
    for qi in range(full):
        yield qi, QUANTUM
    if tail:
        yield full, tail


class _GuideTable(NamedTuple):
    """A power-law stream's lookup tables (see :func:`_guide_table`)."""

    guide: np.ndarray  # K + 1 CDF indices: searchsorted(cdf, k / K, "right")
    rows: np.ndarray   # (K, 4) float64: cell start, its first three entries
    wide: bool         # some cell holds more entries than a row stores


def _guide_table(cdf: np.ndarray) -> _GuideTable:
    """Chen–Asau guide table of a sorted CDF ending at 1.0, with its
    cell rows.

    ``guide`` has ``K + 1`` entries for ``K = 2**ceil(log2 len(cdf))``,
    entry ``k`` being ``searchsorted(cdf, k / K, "right")``.  ``K`` is a
    power of two, so ``cdf[i] * K`` is exact and ``cdf[i] <= k / K``
    exactly when ``ceil(cdf[i] * K) <= k``: the table is one
    ``bincount`` of those ceilings and a cumsum.  Row ``k`` of ``rows``
    holds cell ``k``'s first CDF index ``guide[k]`` (as a float) and
    the cell's first three CDF entries, padded with ``+inf``.  ``wide``
    says whether any cell holds more than three entries — decided here,
    once per stream, so lookups on narrow tables skip the fix-up."""
    cells = 1 << max(len(cdf) - 1, 0).bit_length()
    ceilings = np.ceil(cdf * cells).astype(np.intp)
    guide = np.cumsum(np.bincount(ceilings, minlength=cells + 1))
    first, widths = guide[:-1], np.diff(guide)
    rows = np.empty((cells, 4))  # 32 bytes: one gather per lookup
    rows[:, 0] = first
    padded = np.concatenate([cdf, np.full(3, np.inf)])
    for j in range(3):
        entries = rows[:, 1 + j]
        np.take(padded[j:], first, out=entries)
        entries[widths <= j] = np.inf
    return _GuideTable(guide, rows, bool(widths.max() > 3))


def _bisect(
    cdf: np.ndarray, lo: np.ndarray, hi: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """``searchsorted(cdf, u, "right")`` for answers known to lie in
    ``[lo, hi]``: each step halves every unsettled interval with one
    gather from ``cdf``, then drops the settled ones, so an interval of
    ``w`` entries settles in ``ceil(log2(w + 1))`` steps."""
    found = lo.copy()
    active = np.flatnonzero(lo < hi)
    lo, hi, u = lo[active], hi[active], uniforms[active]
    while len(active):
        mid = (lo + hi) >> 1
        right = cdf[mid] <= u
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
        found[active] = lo
        open_ = np.flatnonzero(lo < hi)
        active, lo, hi, u = active[open_], lo[open_], hi[open_], u[open_]
    return found


def _guide_lookup(
    cdf: np.ndarray, table: _GuideTable, uniforms: np.ndarray
) -> np.ndarray:
    """``searchsorted(cdf, uniforms, "right")`` for uniforms in
    ``[0, 1)`` through the tables of :func:`_guide_table`.

    ``u`` lies in cell ``k = floor(u * K)`` (exact: ``K`` is a power of
    two).  Every CDF entry before ``guide[k]`` is ``<= k / K <= u`` and
    every entry from ``guide[k + 1]`` on is ``> (k + 1) / K > u``, so
    the answer is ``guide[k]`` plus the number of the cell's entries
    ``<= u``: one row gather and three compares.  A uniform that passes
    all three stored entries of a cell holding more finishes with a
    bisection over the rest of the cell (:func:`_bisect`).  Each cell
    has probability ``1 / K``, so wide cells see few uniforms.

    >>> cdf = np.cumsum(np.arange(1, 301) ** -1.5)
    >>> cdf /= cdf[-1]
    >>> table = _guide_table(cdf)
    >>> table.wide  # the light tail crowds into the last cells
    True
    >>> u = np.random.default_rng(5).random(10_000)
    >>> u[:5] = 0.0, 0.25, 0.5, cdf[0], cdf[150]  # grid points, CDF ties
    >>> bool(np.array_equal(_guide_lookup(cdf, table, u),
    ...                     np.searchsorted(cdf, u, side="right")))
    True
    """
    guide, rows, wide = table
    cell = (uniforms * (len(guide) - 1)).astype(np.intp)
    row = rows.take(cell, axis=0)
    found = row[:, 0] + (row[:, 1] <= uniforms)
    found += row[:, 2] <= uniforms
    passed = row[:, 3] <= uniforms
    found += passed
    found = found.astype(np.intp)
    if wide:
        rest = np.flatnonzero(passed)
        found[rest] = _bisect(
            cdf, found[rest], guide[cell[rest] + 1], uniforms[rest]
        )
    return found


def stream_powerlaw_edges(
    n: int,
    m: int,
    *,
    gamma: float = 2.5,
    seed: int = 0,
    block_edges: int = 1 << 17,
) -> Iterator[np.ndarray]:
    """Chung–Lu power-law graph stream: ``m`` candidate edges on ``n``
    vertices with expected degree of vertex ``i`` proportional to
    ``(i + 1) ** (-1 / (gamma - 1))`` (degree exponent ``gamma``).

    Endpoints are drawn independently from the weight distribution by
    inverse CDF: uniform ``u`` maps to ``searchsorted(cdf, u, "right")``,
    so the symmetrized simple graph is the standard Chung–Lu model:
    heavy-tailed degrees, possibly disconnected.  Yields ``(k, 2)``
    int64 blocks.

    The lookup runs through a Chen–Asau guide table and its cell rows
    (:func:`_guide_table`, :func:`_guide_lookup`) rather than a binary
    search over the whole CDF, whose ~log2(n) dependent probes per
    endpoint each miss the cache once the CDF outgrows it.  The table
    splits ``[0, 1)`` into ``K = 2**ceil(log2 n)`` equal cells; one
    32-byte row per cell holds the cell's first CDF index and first
    three entries, so most endpoints cost one row gather and three
    compares, and only uniforms past the stored entries of a wider cell
    finish with a bisection.  The result is exactly ``searchsorted``'s,
    so the tables change speed, never the stream.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if m < 0:
        raise ValueError("m must be non-negative")
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1 (degree exponent)")
    key = _stream_key(seed, [_POWERLAW_TAG, n, m, hash(float(gamma))])
    weights = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (gamma - 1.0))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    table = _guide_table(cdf)

    def quanta() -> Iterator[np.ndarray]:
        for qi, count in _quantum_sizes(m):
            generator = _quantum_generator(key, qi)
            endpoints = _guide_lookup(cdf, table, generator.random(2 * count))
            yield np.stack([endpoints[:count], endpoints[count:]], axis=1)

    return _reblock(quanta(), block_edges)


def stream_rmat_edges(
    scale: int,
    m: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    block_edges: int = 1 << 17,
) -> Iterator[np.ndarray]:
    """R-MAT graph stream on ``n = 2**scale`` vertices: each candidate
    edge picks one adjacency-matrix quadrant per bit level with
    probabilities ``(a, b, c, d = 1 - a - b - c)`` — one uniform per
    level decides both endpoint bits jointly (the classic Kronecker
    recursion, no noise smoothing).  Yields ``(k, 2)`` int64 blocks.
    """
    if scale < 0:
        raise ValueError("scale must be non-negative")
    if m < 0:
        raise ValueError("m must be non-negative")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0.0:
        raise ValueError("quadrant probabilities must be non-negative")
    key = _stream_key(
        seed, [_RMAT_TAG, scale, m, hash(float(a)), hash(float(b)), hash(float(c))]
    )

    def quanta() -> Iterator[np.ndarray]:
        for qi, count in _quantum_sizes(m):
            generator = _quantum_generator(key, qi)
            u = np.zeros(count, dtype=np.int64)
            v = np.zeros(count, dtype=np.int64)
            for _level in range(scale):
                r = generator.random(count)
                # quadrant: [0,a) → (0,0), [a,a+b) → (0,1),
                #           [a+b,a+b+c) → (1,0), rest → (1,1)
                u_bit = r >= a + b
                v_bit = ((r >= a) & (r < a + b)) | (r >= a + b + c)
                u = (u << 1) | u_bit
                v = (v << 1) | v_bit
            yield np.stack([u, v], axis=1)

    return _reblock(quanta(), block_edges)


def stream_random_regular_edges(
    n: int,
    degree: int,
    *,
    seed: int = 0,
    block_edges: int = 1 << 17,
) -> Iterator[np.ndarray]:
    """Pairing-model random regular graph stream: a Philox permutation
    of the ``n * degree`` stubs, paired consecutively.  Yields ``(k, 2)``
    int64 blocks.

    The symmetrized simple graph is *near*-regular: the pairing model
    produces O(degree^2) expected self-loops/duplicate pairs which the
    compile pass drops (the classic configuration-model construction;
    exact regularity would need rejection, which doesn't stream).  This
    is the one family holding O(n · degree) numpy scratch — a single
    int64 permutation, ~32 MB at n = 10^6, degree = 4 — but still zero
    per-edge Python objects.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if degree < 0 or degree >= n:
        raise ValueError("degree must be in [0, n)")
    if (n * degree) % 2:
        raise ValueError("n * degree must be even")
    key = _stream_key(seed, [_REGULAR_TAG, n, degree])

    def quanta() -> Iterator[np.ndarray]:
        generator = _quantum_generator(key, 0)
        stubs = generator.permutation(n * degree) // degree
        yield stubs.reshape(-1, 2)

    return _reblock(quanta(), block_edges)


def materialize_edges(blocks: Iterator[np.ndarray]) -> np.ndarray:
    """Concatenate an edge-block stream into one ``(total, 2)`` int64
    array — test/inspection helper; defeats the point at 10^6 nodes."""
    parts = [np.asarray(block, dtype=np.int64).reshape(-1, 2) for block in blocks]
    if not parts:
        return np.empty((0, 2), dtype=np.int64)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
