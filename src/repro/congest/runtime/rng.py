"""Randomness plans: exact per-vertex streams vs counter-based Philox.

Randomized algorithms (Luby MIS, trial coloring, …) historically drew
from one ``random.Random`` per vertex.  Those streams are the
*byte-identity reference*: every execution plane replays the identical
call sequence, so outputs match bit-for-bit across planes.  They are
also the grid plane's measured speedup floor — a whole grid column of
draws costs one Python call per vertex per round (and ~2.5 KB of
Mersenne-Twister state per vertex resident in memory).

:class:`RngPlan` makes the drawing discipline an explicit, opt-in
runtime knob, mirroring :class:`~repro.congest.runtime.faults.FaultPlan`:

* ``mode="exact"`` (the default) keeps the per-vertex ``random.Random``
  streams — byte-identical to every run this repository has ever
  produced, on every plane.
* ``mode="vectorized"`` draws whole columns from counter-based
  ``numpy.random.Philox`` streams.  Deterministic and reproducible, but
  *not* stream-identical to exact mode — differential testing shifts
  from byte-identity to distributional assertions (see
  ``tests/ensemble.py``).

Key schedule
------------
Vectorized draws are a pure function of ``(seed, vertex, round)``:

* ``seed`` is the plan seed folded (splitmix64) with the per-vertex
  input seeds, so distinct sweep trials draw distinct streams without
  any per-trial ``reseed`` bookkeeping, and a trial's stream does not
  depend on which plane executes it;
* ``round`` (plus a ``slot`` for algorithms drawing more than one
  column per round) keys the Philox counter block, exactly as
  ``faults.py`` keys fault fates by ``[seed, round]``;
* ``vertex`` is the dense row index into the drawn column — one
  ``Philox`` call fills the entire column, and a grid block's slice
  equals the single-run column because the fold sees the same inputs.

Consequently vectorized runs are byte-identical *to each other* across
``columnar``, ``columnar-reference``, and ``grid`` execution (enforced
by ``tests/test_rng.py``), while exact mode stays the reference for
everything else.

>>> RngPlan().vectorized
False
>>> RngPlan.coerce("vectorized").mode
'vectorized'
>>> RngPlan.coerce(None) == RngPlan()
True
>>> RngPlan(mode="philox")
Traceback (most recent call last):
    ...
ValueError: unknown rng mode 'philox': expected one of ('exact', 'vectorized')
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

__all__ = [
    "RNG_MODES",
    "ExactRng",
    "GridRng",
    "RngPlan",
    "VectorizedRng",
    "derive_stream_key",
    "grid_rng_state",
    "rng_state_for",
    "supports_vectorized",
]

RNG_MODES = ("exact", "vectorized")

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class RngPlan:
    """Which randomness discipline a run draws from.

    ``seed`` only matters in vectorized mode (exact streams are seeded
    by the per-vertex inputs, as always); it is folded with the inputs
    so two sweeps over the same trials with different plan seeds draw
    different vectorized streams.

    >>> RngPlan("vectorized", seed=3).reseed(9).seed
    9
    >>> RngPlan(seed=-1)
    Traceback (most recent call last):
        ...
    ValueError: rng seed must be a non-negative integer, got -1
    """

    mode: str = "exact"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in RNG_MODES:
            raise ValueError(
                f"unknown rng mode {self.mode!r}: expected one of {RNG_MODES}"
            )
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(
                f"rng seed must be a non-negative integer, got {self.seed!r}"
            )

    @property
    def vectorized(self) -> bool:
        return self.mode == "vectorized"

    def reseed(self, seed: int) -> "RngPlan":
        """A copy with a different seed (exact mode ignores it)."""
        return dataclasses.replace(self, seed=seed)

    @classmethod
    def coerce(cls, value: Any) -> "RngPlan":
        """Normalize ``None`` / a mode string / an ``RngPlan``.

        >>> RngPlan.coerce("exact") == RngPlan()
        True
        >>> RngPlan.coerce(1.5)
        Traceback (most recent call last):
            ...
        TypeError: rng must be None, a mode string, or an RngPlan, got float
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(mode=value)
        raise TypeError(
            "rng must be None, a mode string, or an RngPlan, "
            f"got {type(value).__name__}"
        )


def supports_vectorized(algorithm: Any) -> bool:
    """Whether an algorithm declares the ``vectorized`` rng mode.

    Algorithms advertise capability through a ``rng_modes`` class
    attribute (default ``("exact",)``), the same declarative pattern as
    ``plane_kind`` / ``grid_safe`` — never ``isinstance`` checks.
    """
    return "vectorized" in getattr(algorithm, "rng_modes", ("exact",))


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    z = values + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def derive_stream_key(seed: int, inputs_list: Sequence[Any]) -> int:
    """Fold a plan seed with the per-vertex input seeds into one key.

    Pure function of ``(seed, inputs)`` — independent of the executing
    plane, and identical for a single run and the same trial's block
    inside a grid, which is what makes vectorized draws reproduce
    across ``columnar`` / ``columnar-reference`` / ``grid``.  Non-int
    inputs hash through ``hash()``; ``None`` contributes 0.

    >>> derive_stream_key(0, [1, 2, 3]) == derive_stream_key(0, [1, 2, 3])
    True
    >>> derive_stream_key(0, [1, 2, 3]) == derive_stream_key(1, [1, 2, 3])
    False
    >>> derive_stream_key(0, [1, 2, 3]) == derive_stream_key(0, [3, 2, 1])
    False
    """
    count = len(inputs_list)
    values = np.fromiter(
        (
            0 if v is None
            else (v if isinstance(v, int) else hash(v)) & _MASK64
            for v in inputs_list
        ),
        dtype=np.uint64, count=count,
    )
    with np.errstate(over="ignore"):
        # Position-mix each input so permuted seed vectors fold
        # differently, then reduce and finalize with the plan seed.
        mixed = _splitmix64(
            values ^ (np.arange(count, dtype=np.uint64) * _GOLDEN)
        )
        total = mixed.sum(dtype=np.uint64)
        folded = _splitmix64(
            np.array([np.uint64(seed & _MASK64) ^ total], dtype=np.uint64)
        )
    return int(folded[0])


class ExactRng:
    """The byte-identity reference: one ``random.Random`` per vertex.

    Streams are built lazily on first draw, so algorithms that never
    draw (flooding, BFS) pay nothing.  ``randrange_rows`` replays the
    identical per-vertex call sequence the algorithms used to inline,
    so exact-mode outputs stay bit-for-bit what they have always been.
    """

    vectorized = False
    __slots__ = ("_inputs", "_streams")

    def __init__(self, inputs_list: Sequence[Any]) -> None:
        self._inputs = inputs_list
        self._streams: list[random.Random] | None = None

    @property
    def streams(self) -> list[random.Random]:
        """Per-vertex ``random.Random`` streams (for exact-only draw
        shapes such as ``choice`` over a per-vertex candidate list)."""
        if self._streams is None:
            self._streams = [random.Random(seed) for seed in self._inputs]
        return self._streams

    def randrange_rows(self, round_number: int, rows, bound: int,
                       slot: int = 0) -> np.ndarray:
        """``randrange(bound)`` on each row's stream, in row order."""
        streams = self.streams
        rows = np.asarray(rows, dtype=np.int64)
        out = np.empty(rows.size, dtype=np.int64)
        for j, i in enumerate(rows.tolist()):
            out[j] = streams[i].randrange(bound)
        return out


class VectorizedRng:
    """Counter-based Philox streams keyed by ``(seed, vertex, round)``.

    Each draw fills the *entire* column (all ``n`` vertices) with one
    Philox call and slices the requested rows, so a draw's value depends
    only on the key schedule — never on which other vertices drew, the
    emission order, or the executing plane.
    """

    vectorized = True
    __slots__ = ("plan", "n", "key")

    def __init__(self, plan: RngPlan, inputs_list: Sequence[Any]) -> None:
        self.plan = plan
        self.n = len(inputs_list)
        self.key = derive_stream_key(plan.seed, inputs_list)

    def _generator(self, round_number: int, slot: int) -> np.random.Generator:
        # Philox's array key form is exactly two 64-bit words: the folded
        # stream key, and (round, slot) packed into the second word —
        # rounds are bounded far below 2**48, slots far below 2**16.
        return np.random.Generator(
            np.random.Philox(
                key=[self.key, (int(round_number) << 16) | int(slot)]
            )
        )

    def randrange_rows(self, round_number: int, rows, bound: int,
                       slot: int = 0) -> np.ndarray:
        column = self._generator(round_number, slot).integers(
            0, bound, size=self.n, dtype=np.int64
        )
        return column[np.asarray(rows, dtype=np.int64)]

    def uniform_rows(self, round_number: int, rows,
                     slot: int = 0) -> np.ndarray:
        """Uniform [0, 1) draws for the given rows (one column fill)."""
        column = self._generator(round_number, slot).random(self.n)
        return column[np.asarray(rows, dtype=np.int64)]


class GridRng:
    """Vectorized draws over a block-diagonal grid of trials.

    Each trial block owns its own :class:`VectorizedRng` (its own folded
    key), and a grid column is the concatenation of the per-block
    columns — so row ``offset + i`` of a grid draw equals row ``i`` of
    the same trial run alone, the grid plane's usual determinism
    contract extended to vectorized randomness.
    """

    vectorized = True
    __slots__ = ("blocks", "n")

    def __init__(self, blocks: Sequence[VectorizedRng]) -> None:
        self.blocks = list(blocks)
        self.n = sum(block.n for block in self.blocks)

    def _column(self, round_number: int, slot: int, kind: str,
                bound: int | None = None) -> np.ndarray:
        parts = []
        for block in self.blocks:
            gen = block._generator(round_number, slot)
            if kind == "integers":
                parts.append(
                    gen.integers(0, bound, size=block.n, dtype=np.int64)
                )
            else:
                parts.append(gen.random(block.n))
        return np.concatenate(parts) if parts else np.empty(0)

    def randrange_rows(self, round_number: int, rows, bound: int,
                       slot: int = 0) -> np.ndarray:
        column = self._column(round_number, slot, "integers", bound)
        return column[np.asarray(rows, dtype=np.int64)]

    def uniform_rows(self, round_number: int, rows,
                     slot: int = 0) -> np.ndarray:
        column = self._column(round_number, slot, "uniform")
        return column[np.asarray(rows, dtype=np.int64)]


def rng_state_for(plan: Any, inputs_list: Sequence[Any]):
    """The draw state for one topology: exact streams or Philox columns."""
    plan = RngPlan.coerce(plan)
    if plan.vectorized:
        return VectorizedRng(plan, inputs_list)
    return ExactRng(inputs_list)


def grid_rng_state(plans: Sequence[Any], inputs_list: Sequence[Any],
                   block_sizes: Sequence[int]):
    """The draw state for a grid chunk (one plan per trial block).

    All-exact plans share a single :class:`ExactRng` over the
    concatenated inputs — byte-identical to the streams the grid
    executor has always built.  All-vectorized plans compose per-block
    :class:`VectorizedRng` states.  Mixing modes inside one grid chunk
    is rejected: split the sweep instead.

    >>> state = grid_rng_state([None, None], [1, 2, 3, 4], [2, 2])
    >>> state.vectorized
    False
    >>> grid_rng_state([None, "vectorized"], [1, 2, 3, 4], [2, 2])
    Traceback (most recent call last):
        ...
    ValueError: grid execution requires one rng mode across all trials in a chunk: got ['exact', 'vectorized']
    """
    coerced = [RngPlan.coerce(plan) for plan in plans]
    modes = sorted({plan.mode for plan in coerced})
    if len(modes) > 1:
        raise ValueError(
            "grid execution requires one rng mode across all trials in "
            f"a chunk: got {modes}"
        )
    if not coerced or not coerced[0].vectorized:
        return ExactRng(inputs_list)
    blocks = []
    start = 0
    for plan, size in zip(coerced, block_sizes):
        blocks.append(VectorizedRng(plan, inputs_list[start:start + size]))
        start += size
    return GridRng(blocks)
