"""Messages and bit-size accounting for the CONGEST model.

The CONGEST model allows ``O(log n)`` bits per message.  To make bandwidth
enforcement meaningful the simulator requires every message to carry an
explicit bit size.  The helpers here provide a conservative, deterministic
encoding-size estimate for the payload shapes used by the algorithms in this
repository (ints, vertex identifiers, short tuples of those).

Two payload representations share one sizing rule:

* :class:`Message` — an arbitrary Python payload, sized lazily by
  :func:`bits_for_payload` (the object plane);
* :class:`ColumnarSpec` — a declared tuple of fixed-width integer fields,
  optionally interleaved with variable-width :class:`VarColumn` fields
  (ragged integer sequences over a shared payload pool), sized in bulk
  by :meth:`ColumnarSpec.bits_of` over numpy columns (the columnar
  plane, :mod:`repro.congest.columnar`).

The two agree bit-for-bit: a columnar message with field values
``(v1, …, vk)`` costs exactly what ``Message((v1, …, vk))`` (or
``Message(v1)`` for a single field) costs, which is what lets the
columnar executor's array-reduction accounting be differentially tested
against the per-message reference.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np


def bits_for_int(value: int) -> int:
    """Number of bits to encode ``value`` as a signed integer.

    ``0`` costs one bit; negative values cost one sign bit extra.

    >>> bits_for_int(0)
    1
    >>> bits_for_int(7)
    3
    >>> bits_for_int(-7)
    4
    """
    if value == 0:
        return 1
    magnitude = abs(value)
    return magnitude.bit_length() + (1 if value < 0 else 0)


def bandwidth_bits_for(n: int, bandwidth_factor: int) -> int:
    """The CONGEST per-edge per-round budget for an ``n``-vertex network:
    ``bandwidth_factor * ceil(log2 n)`` bits (the constant in the model's
    ``O(log n)``).  One definition shared by :class:`~repro.congest.network.Network`
    and the trial-batched grid executor, whose blocks each carry their
    own ``n`` and therefore their own budget.

    >>> bandwidth_bits_for(1024, 32)
    320
    """
    log_n = max(1, math.ceil(math.log2(max(2, n))))
    return bandwidth_factor * log_n


def bits_for_payload(payload: Any) -> int:
    """Conservative bit-size estimate of an arbitrary payload.

    Supports the payload shapes the algorithms actually send: ``None``,
    bools, ints, floats, strings, and (nested) tuples/lists/dicts of those.
    Container overhead is charged at 2 bits per element (length/framing).

    The hot shapes — ints and short tuples of ints, one sizing per
    broadcast — take exact-type fast paths; everything else falls through
    to the general ``isinstance`` chain.  The two paths agree on every
    value (``bool`` is charged like the int it is: 1 bit).
    """
    kind = type(payload)
    if kind is int:
        if payload == 0:
            return 1
        magnitude = payload if payload > 0 else -payload
        return magnitude.bit_length() + (1 if payload < 0 else 0)
    if kind is tuple:
        total = 0
        for item in payload:
            total += bits_for_payload(item) + 2
        return total
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return bits_for_int(payload)
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return 8 * len(payload.encode("utf-8"))
    if isinstance(payload, bytes):
        return 8 * len(payload)
    if isinstance(payload, (tuple, list, set, frozenset)):
        return sum(bits_for_payload(item) + 2 for item in payload)
    if isinstance(payload, dict):
        return sum(
            bits_for_payload(key) + bits_for_payload(value) + 2
            for key, value in payload.items()
        )
    raise TypeError(f"cannot size payload of type {type(payload).__name__}")


#: 2**0 .. 2**62: the bit length of a non-negative int64 ``v`` is the
#: number of these powers that are ``<= v``.
_POWERS_OF_TWO = np.int64(1) << np.arange(63, dtype=np.int64)

#: Every int64 of magnitude below 2**53 converts to float64 exactly.
_EXACT_FLOAT_BITS = 53


def _magnitude_bits(values: "np.ndarray") -> "np.ndarray":
    """Exact ``abs(v).bit_length()`` per element of an int64 array.

    ``np.frexp``'s exponent of ``float(v)`` is that bit length whenever
    the conversion is exact, i.e. for ``|v| < 2**53``; it exceeds 53
    exactly when ``|v| >= 2**53``, where rounding may carry into the
    next power of two.  Those few values are sized by a binary search
    over :data:`_POWERS_OF_TWO` instead (int64 min, whose ``np.abs``
    wraps, is exactly ``-2**63``: 64 bits).
    """
    bits = np.empty(values.shape, dtype=np.int64)
    np.frexp(values, out=(np.empty(values.shape), bits))
    wide = bits > _EXACT_FLOAT_BITS
    if wide.any():
        magnitude = np.abs(values[wide])
        exact = np.searchsorted(_POWERS_OF_TWO, magnitude, side="right")
        exact[magnitude < 0] = 64
        bits[wide] = exact
    return bits


def bit_length_array(values: "np.ndarray") -> "np.ndarray":
    """Exact per-element ``int.bit_length`` of a non-negative int64 array.

    Below 2**53 each value converts to float64 exactly, so the binary
    exponent ``np.frexp`` returns is its bit length (unlike ``np.log2``,
    which misrounds near powers of two); values from 2**53 up take a
    binary search over the int64 powers of two.  ``0`` maps to ``0``,
    like ``(0).bit_length()``.

    >>> bit_length_array(np.array([0, 1, 7, 8, 2**53 + 1, 2**63 - 1])).tolist()
    [0, 1, 3, 4, 54, 63]
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValueError("bit_length_array takes non-negative values")
    return _magnitude_bits(values)


def bits_for_int_array(values: "np.ndarray") -> "np.ndarray":
    """Vectorized :func:`bits_for_int`: signed encoding size per element.

    Agrees elementwise with the scalar helper over the full int64 range:
    ``0`` costs one bit, and negatives cost one sign bit extra.

    >>> bits_for_int_array(np.array(
    ...     [0, 1, -1, 2**53 + 1, -(2**53 + 1), 2**63 - 1, -(2**63)])).tolist()
    [1, 1, 2, 54, 55, 63, 65]
    """
    values = np.asarray(values, dtype=np.int64)
    bits = _magnitude_bits(values)
    np.maximum(bits, 1, out=bits)
    bits += values < 0
    return bits


class VarColumn:
    """Schema element declaring a **variable-width** columnar field.

    A fixed column carries one integer per message; a ``VarColumn``
    carries a ragged *sequence* of signed 64-bit integers per message
    (token lists, id sets, schedule descriptions).  The columnar
    executor stores every message's sequence as one segment of a shared
    payload pool indexed by offset/length arrays — the CSR-of-ragged
    representation — so delivery and metric accounting stay pure array
    operations (:mod:`repro.congest.columnar`).

    Semantically, a var field contributes the *tuple* of its values to
    the message's object-plane payload, and is sized exactly as
    :func:`bits_for_payload` sizes that tuple (2 framing bits per
    element plus each element's signed encoding).

    >>> spec = ColumnarSpec(VarColumn("tokens"))
    >>> spec.var_names
    ('tokens',)
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = str(name)

    def __repr__(self) -> str:
        return f"VarColumn({self.name!r})"


class ColumnarSpec:
    """A typed message schema for the columnar delivery plane.

    ``fields`` is a tuple of ``(name, dtype)`` pairs — fixed-width numpy
    integer (or bool) fields, the CONGEST payloads the repository's
    algorithms exchange (ids, colors, levels, coin flips) — optionally
    interleaved with :class:`VarColumn` elements declaring ragged
    integer-sequence fields (walk-token lists, schedule descriptions).

    A columnar message is *semantically* a :class:`Message` whose payload
    lists the declared fields in order, each var field contributing the
    tuple of its values: field values ``(v1, …, vk)`` mean
    ``Message((v1, …, vk))``, a single fixed field means ``Message(v1)``,
    and a single var field with values ``(x1, …, xm)`` means
    ``Message((x1, …, xm))``.  :meth:`bits_of` charges exactly what
    :func:`bits_for_payload` charges that payload, so columnar metric
    reductions stay byte-identical to the per-message object plane.

    >>> spec = ColumnarSpec(("kind", np.uint8), ("value", np.uint32))
    >>> spec.names
    ('kind', 'value')
    >>> mixed = ColumnarSpec(("kind", np.uint8), VarColumn("tokens"))
    >>> mixed.layout
    (('fixed', 'kind'), ('var', 'tokens'))
    """

    __slots__ = ("fields", "names", "dtypes", "bounds", "layout", "var_names")

    def __init__(self, *fields: tuple) -> None:
        if not fields:
            raise ValueError("ColumnarSpec needs at least one field")
        names = []
        dtypes = []
        bounds = []
        var_names = []
        layout = []
        for entry in fields:
            if isinstance(entry, VarColumn):
                if entry.name in names or entry.name in var_names:
                    raise ValueError(
                        f"duplicate columnar field {entry.name!r}"
                    )
                var_names.append(entry.name)
                layout.append(("var", entry.name))
                continue
            try:
                name, dtype = entry
            except (TypeError, ValueError):
                raise ValueError(
                    f"ColumnarSpec fields are (name, dtype) pairs or "
                    f"VarColumn elements, got {entry!r}"
                ) from None
            dtype = np.dtype(dtype)
            if dtype.kind == "b":
                low, high = 0, 1
            elif dtype.kind in "iu":
                info = np.iinfo(dtype)
                low, high = int(info.min), int(info.max)
            else:
                raise TypeError(
                    f"columnar field {name!r}: dtype {dtype} is not a "
                    f"fixed-width integer or bool"
                )
            if name in names or name in var_names:
                raise ValueError(f"duplicate columnar field {name!r}")
            names.append(str(name))
            dtypes.append(dtype)
            bounds.append((low, high))
            layout.append(("fixed", str(name)))
        self.fields = tuple((n, d) for n, d in zip(names, dtypes))
        self.names = tuple(names)
        self.dtypes = tuple(dtypes)
        self.bounds = tuple(bounds)
        self.var_names = tuple(var_names)
        self.layout = tuple(layout)

    def check_range(self, name: str, values: "np.ndarray") -> None:
        """Reject values that overflow the declared dtype *before* any
        silent cast could truncate them."""
        position = self.names.index(name)
        low, high = self.bounds[position]
        if values.size == 0:
            return
        lo = int(values.min())
        hi = int(values.max())
        if lo < low or hi > high:
            bad = lo if lo < low else hi
            raise ValueError(
                f"columnar field {name!r}: value {bad} overflows "
                f"{self.dtypes[position]} (range [{low}, {high}])"
            )

    def payload_of(self, row: tuple, var_values: "dict | None" = None) -> Any:
        """The object-plane payload equivalent to one columnar message.

        ``row`` holds the fixed-field values in declared fixed order;
        ``var_values`` maps each var field to its value sequence.  Var
        fields contribute one tuple element each; a single-field spec
        unwraps the sole element (fixed → bare value, var → the tuple).

        >>> ColumnarSpec(("v", np.int64)).payload_of((7,))
        7
        >>> ColumnarSpec(VarColumn("t")).payload_of((), {"t": (1, 2)})
        (1, 2)
        >>> ColumnarSpec(("v", np.int64), VarColumn("t")).payload_of(
        ...     (7,), {"t": (1, 2)})
        (7, (1, 2))
        """
        elements = []
        fixed = iter(row)
        for kind, name in self.layout:
            if kind == "fixed":
                elements.append(next(fixed))
            else:
                elements.append(tuple(var_values[name]))
        if len(elements) == 1:
            return elements[0]
        return tuple(elements)

    def bits_of(
        self,
        columns: "dict[str, np.ndarray]",
        var_data: "dict | None" = None,
    ) -> "np.ndarray":
        """Per-message bit sizes as one array reduction.

        Matches :func:`bits_for_payload` on the equivalent payload: a
        bare signed int for single-fixed-field specs, a tuple (2 framing
        bits per element) otherwise.  ``var_data`` maps each var field
        to ``(pool, indptr)`` — the shared int64 payload pool and the
        per-message offset index; each var field is charged as the
        nested tuple of its segment (2 framing bits per element plus
        each element's signed size, plus the tuple's own framing when
        the spec has more than one field).  A message whose whole
        payload sizes to zero (a single empty var segment) is charged
        the :class:`Message` minimum of one bit.
        """
        single = len(self.layout) == 1
        if self.var_names and var_data is None:
            raise ValueError(
                "bits_of needs var_data for a spec with variable-width "
                "fields"
            )
        total = None
        for kind, name in self.layout:
            if kind == "fixed":
                bits = bits_for_int_array(columns[name])
                if not single:
                    bits = bits + 2
            else:
                pool, indptr = var_data[name]
                if len(pool):
                    element_bits = bits_for_int_array(pool) + 2
                    csum = np.empty(len(pool) + 1, dtype=np.int64)
                    csum[0] = 0
                    np.cumsum(element_bits, out=csum[1:])
                    bits = csum[indptr[1:]] - csum[indptr[:-1]]
                else:
                    bits = np.zeros(len(indptr) - 1, dtype=np.int64)
                if not single:
                    bits = bits + 2
            total = bits if total is None else total + bits
        if single and self.var_names:
            # Message charges an all-empty payload its 1-bit minimum.
            total = np.maximum(total, 1)
        return total

    def __repr__(self) -> str:
        dtype_of = dict(self.fields)
        inner = ", ".join(
            f"{name}:{dtype_of[name]}" if kind == "fixed" else f"{name}:var"
            for kind, name in self.layout
        )
        return f"ColumnarSpec({inner})"


class Broadcast:
    """Outbox sentinel: one shared message for every neighbour (or a subset).

    ``on_round`` may return ``Broadcast(message)`` instead of a dict; the
    executor delivers ``message`` to every neighbour of the sender.  With
    ``to`` it delivers only to that subset of neighbours (e.g. the
    still-active ones).  Semantically a broadcast is *exactly* the dict
    ``{u: message for u in receivers}`` — same inbox contents, same
    per-edge metrics, same validation errors — but the engine validates
    the payload and counts its bits once per broadcast (``deg × bits`` in
    one multiply) instead of once per edge, which is what makes the
    broadcast-heavy classic algorithms fast.

    ``to`` may be any iterable of neighbour ids.  Sets are taken as-is;
    other iterables are materialized to a duplicate-free tuple so a
    broadcast counts each receiver once, like the dict form it replaces.

    Use :meth:`~repro.congest.network.NodeContext.broadcast` as the
    ergonomic constructor inside ``on_round``.
    """

    __slots__ = ("message", "to")

    def __init__(self, message: Any, to: Any = None) -> None:
        self.message = message
        if to is None or isinstance(to, (set, frozenset)):
            self.to = to
        else:
            self.to = tuple(dict.fromkeys(to))

    def expand(self, neighbors: Any) -> dict:
        """The equivalent explicit outbox dict (the reference executor's
        view of a broadcast)."""
        receivers = self.to if self.to is not None else neighbors
        return {u: self.message for u in receivers}

    def __repr__(self) -> str:
        target = "all neighbors" if self.to is None else f"{len(self.to)} receivers"
        return f"Broadcast({self.message!r}, to={target})"


class Message:
    """A single message sent over one edge in one round.

    Immutable (like the frozen dataclass it replaced) but with the bit
    size computed *lazily on first access* and cached, so constructing a
    message — e.g. one per neighbour in a broadcast — does not serialize
    the payload until bandwidth validation or metrics actually need the
    size, and never more than once per message.

    One consequence of the laziness: an unsizeable payload no longer
    raises ``TypeError`` at construction; it raises on the first
    ``bit_size`` access instead — in practice when the executor validates
    the send (and ``==``/``hash`` also force the size, since equality
    compares ``(payload, bit_size)`` like the dataclass did).

    Parameters
    ----------
    payload:
        Arbitrary (picklable) content.  Algorithms in this repository send
        ints, vertex ids, and short tuples.
    bit_size:
        Explicit size used for CONGEST accounting.  When omitted it is
        derived from the payload via :func:`bits_for_payload` on first
        access.
    """

    __slots__ = ("payload", "_bit_size")

    def __init__(self, payload: Any, bit_size: int = -1) -> None:
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "_bit_size", 1 if bit_size == 0 else bit_size)

    @property
    def bit_size(self) -> int:
        size = self._bit_size
        if size < 0:
            size = bits_for_payload(self.payload) or 1
            object.__setattr__(self, "_bit_size", size)
        return size

    # -- immutability / value semantics (dataclass parity) ------------------
    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"Message is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Message is immutable; cannot delete {name!r}")

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (self.payload, self.bit_size) == (other.payload, other.bit_size)

    def __hash__(self) -> int:
        return hash((self.payload, self.bit_size))

    def __repr__(self) -> str:
        return f"Message(payload={self.payload!r}, bit_size={self.bit_size})"

    def __reduce__(self):
        return (Message, (self.payload, self._bit_size))
