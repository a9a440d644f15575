"""k-wise independent hash families over a prime field (Section 2.2).

The paper implements the coin flips of the lazy random walks with a k-wise
independent family: a random degree-(k−1) polynomial over GF(p) evaluated
at the (step, walk, sender-id) triple, reduced to the walk's decision range
{1, …, 2d}.  Any k evaluations of a random degree-(k−1) polynomial are
mutually independent and uniform over GF(p) — the textbook construction
the paper cites [AS15].

The family is *explicit*: a member is identified by an integer ``seed``
that encodes the k coefficients in base p, so a seed costs k·log2(p) =
O(k log n) bits — matching the paper's "O(k log n) mutually independent
coin flips" accounting.  Derandomization (Lemma 2.5) enumerates seeds in
increasing order and keeps the first one that routes well.

Leader-local search: the step stream
------------------------------------
The leader's seed search hashes the same walks once per step, for τ
steps.  A walk's packed key is linear in the step, ``key(s) = s·2^40 +
base`` with ``base = (walk·2^20 | sender) + 1``, so modulo p it is
``x(s) = base + c·s`` with ``c = 2^40 mod p`` (``2^9`` for
``VECTOR_PRIME = 2^31 − 1``).  The walk's decision before the range
reduction, ``f(s) = Σ a_i x(s)^i``, is then a polynomial of degree
k − 1 in s over GF(p).  Its k-th forward difference is zero, and every
identity involved is exact in the field, so a table of f(1) and its
first k − 1 forward differences advances one step with k − 1 modular
additions and no multiplication:
:meth:`KWiseHash.step_decisions` seeds that table with k Horner
evaluations and yields ``f(s) mod range_size`` for s = 1, …, τ.  The
values equal :meth:`KWiseHash.hash_triples_vectorized` and
:meth:`KWiseHash.hash_triple` exactly (the tests compare them on
random families), so a schedule found through the stream is the one
the per-step hash would have found, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


_DEFAULT_PRIME = (1 << 61) - 1  # Mersenne prime: fast reduction, huge field.
VECTOR_PRIME = (1 << 31) - 1  # Mersenne prime small enough for uint64 Horner.
# hash_triple packs (step << 40) | (walk << 20) | sender: walk and sender
# ids get 20 bits each; steps stay below 2^23 so keys fit in int64.
FIELD_LIMIT = 1 << 20
STEP_LIMIT = 1 << 23


def check_key_fields(max_walk: int, max_sender: int, max_step: int) -> None:
    """Raise unless ids up to these maxima pack into distinct keys.

    Walk or sender ids ≥ 2^20 would spill into the neighbouring field of
    :meth:`KWiseHash.hash_triple`'s key, so two triples could share a
    key and the family would silently lose its k-wise independence.

    >>> check_key_fields(FIELD_LIMIT, 0, 1)
    Traceback (most recent call last):
    ...
    ValueError: walk ids must be < 2^20 to fit the hash family's 20-bit key packing; got 1048576
    """
    for name, value, limit, bits in (
        ("walk ids", max_walk, FIELD_LIMIT, "20-bit"),
        ("sender ids", max_sender, FIELD_LIMIT, "20-bit"),
        ("steps", max_step, STEP_LIMIT, "23-bit"),
    ):
        if not 0 <= value < limit:
            raise ValueError(
                f"{name} must be < 2^{limit.bit_length() - 1} to fit the "
                f"hash family's {bits} key packing; got {value}"
            )


def _packed_keys(step: int, walks, senders):
    """:meth:`KWiseHash.hash_triple`'s keys over uint64 id arrays."""
    return (
        (np.uint64(step) << np.uint64(40))
        | (walks << np.uint64(20))
        | senders
    ) + np.uint64(1)


def _splitmix64(value: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective mixing function."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller–Rabin for 64-bit inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime ≥ n (for custom field sizes in tests)."""
    candidate = max(2, n)
    while not _is_probable_prime(candidate):
        candidate += 1
    return candidate


@dataclass(frozen=True)
class KWiseHash:
    """One member of a k-wise independent family: h_seed : Z → {0, …, R−1}.

    Parameters
    ----------
    k:
        Independence parameter (polynomial degree k − 1).
    range_size:
        Output range R.
    seed:
        Index into the family; coefficient i is digit i of ``seed`` in
        base p.  Seed 0 is the zero polynomial (still a family member).
    prime:
        Field size; must exceed every hashed key and ``range_size``.
    """

    k: int
    range_size: int
    seed: int = 0
    prime: int = _DEFAULT_PRIME

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 1 <= self.range_size < self.prime:
            raise ValueError("range_size must be in [1, prime)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        object.__setattr__(self, "_coefficients", self._expand_coefficients())

    def _expand_coefficients(self) -> tuple[int, ...]:
        """Coefficient vector of family member ``seed``.

        Seeds index the family through a splitmix64 expansion rather than
        plain base-p digits: digit-order enumeration would list all the
        (useless) constant polynomials first, making the deterministic
        first-good-seed search needlessly slow.  The expansion is a
        bijection per coefficient slot for seeds < 2^64, so enumerating
        seeds walks through distinct, "generic" family members; the
        existence bound of Lemmas 2.3/2.4 (a ≥ (1−f) fraction of members
        are good) then gives an O(1) expected search length.
        """
        return tuple(
            _splitmix64(self.seed * 0x9E3779B97F4A7C15 + i) % self.prime
            for i in range(self.k)
        )

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coefficients

    @property
    def seed_bits(self) -> int:
        """Description length of this family member: k · log2(p) bits."""
        return self.k * self.prime.bit_length()

    def describe(self, include_coefficients: bool = False) -> tuple[int, ...]:
        """A flat integer tuple describing this family member — the
        broadcastable form of the Lemma 2.5 schedule payload
        (:func:`repro.gathering.random_walks.broadcast_schedule` floods
        it as one variable-width columnar sequence).

        The base description is ``(k, range_size, prime, seed)``; with
        ``include_coefficients=True`` the k expanded coefficients ride
        along, so the description length *varies with k* — receivers
        then skip the splitmix64 expansion and
        :meth:`from_description` verifies the coefficients against the
        seed.

        >>> h = KWiseHash(k=3, range_size=8, seed=5)
        >>> KWiseHash.from_description(h.describe()) == h
        True
        >>> len(h.describe(include_coefficients=True))
        7
        """
        base = (self.k, self.range_size, self.prime, self.seed)
        if include_coefficients:
            return base + self.coefficients
        return base

    @classmethod
    def from_description(cls, description) -> "KWiseHash":
        """Rebuild a hash from :meth:`describe` output (any integer
        sequence, e.g. a flood's received tuple).  Trailing coefficients,
        if present, are checked against the seed's expansion — a
        corrupted broadcast fails loudly instead of mis-routing."""
        description = tuple(int(v) for v in description)
        if len(description) < 4:
            raise ValueError(
                f"hash description needs at least (k, range_size, prime, "
                f"seed); got {len(description)} values"
            )
        k, range_size, prime, seed = description[:4]
        member = cls(k=k, range_size=range_size, seed=seed, prime=prime)
        coefficients = description[4:]
        if coefficients and coefficients != member.coefficients:
            raise ValueError(
                "hash description coefficients do not match the seed's "
                "expansion"
            )
        return member

    def __call__(self, key: int) -> int:
        x = key % self.prime
        acc = 0
        # Horner evaluation of Σ a_i x^i with a_i = digits of seed.
        for a in reversed(self.coefficients):
            acc = (acc * x + a) % self.prime
        return acc % self.range_size

    def hash_triple(self, step: int, walk: int, sender: int) -> int:
        """The paper's h(α, β, γ): decision for step α of walk β from γ.

        The triple is packed injectively while walk and sender ids stay
        below 2^20 (see :func:`check_key_fields`).
        """
        key = ((step << 40) | (walk << 20) | sender) + 1
        return self(key)

    def hash_triples_vectorized(self, step: int, walks, senders):
        """Vectorized ``hash_triple`` over numpy arrays of walk/sender ids.

        Requires ``prime < 2^31`` so that Horner products fit in uint64
        without overflow.  Returns a uint64 array of values in
        ``[0, range_size)``.
        """
        self._require_vector_prime()
        keys = _packed_keys(
            step,
            np.asarray(walks, dtype=np.uint64),
            np.asarray(senders, dtype=np.uint64),
        )
        x = keys % np.uint64(self.prime)
        return self._horner(x) % np.uint64(self.range_size)

    def step_decisions(self, walks, senders, steps: int):
        """``hash_triple(s, walk, sender)`` for every walk, for s = 1..steps.

        Returns an iterator yielding one uint32 array per step, equal to
        ``hash_triples_vectorized(s, walks, senders)``; it advances a
        forward-difference table instead of re-evaluating the polynomial
        (see the module docstring).  Ids are checked against the key
        packing here, before anything is hashed.

        >>> h = KWiseHash(k=3, range_size=8, seed=5, prime=VECTOR_PRIME)
        >>> walks, senders = np.arange(4), np.array([0, 7, 7, 2])
        >>> stream = h.step_decisions(walks, senders, steps=6)
        >>> all(np.array_equal(d, h.hash_triples_vectorized(s, walks, senders))
        ...     for s, d in enumerate(stream, start=1))
        True
        """
        self._require_vector_prime()
        walks = np.asarray(walks)
        senders = np.asarray(senders)
        check_key_fields(
            int(walks.max(initial=0)), int(senders.max(initial=0)), steps
        )
        if walks.size and min(walks.min(), senders.min()) < 0:
            raise ValueError("walk and sender ids must be non-negative")
        return self._step_stream(
            walks.astype(np.uint64), senders.astype(np.uint64), steps
        )

    def _step_stream(self, walks, senders, steps: int):
        p = self.prime
        # key(s) = s·2^40 + key(0), so x(s) = key(0) + s·(2^40 mod p).
        base = _packed_keys(0, walks, senders) % np.uint64(p)
        stride = pow(2, 40, p)
        # table[j] = Δ^j f(1): k Horner evaluations, then k − 1 rounds of
        # differencing (each round uses the previous round's values).
        table = np.stack([
            self._horner((base + np.uint64(stride * s % p)) % np.uint64(p))
            for s in range(1, self.k + 1)
        ]).astype(np.int64)
        for j in range(1, self.k):
            table[j:] = (table[j:] - table[j - 1:-1]) % p
        table = table.astype(np.uint32)
        head, tail = table[:-1], table[1:]
        total = np.empty_like(head)
        wrapped = np.empty_like(head)
        p32, range_size = np.uint32(p), np.uint32(self.range_size)
        for step in range(1, steps + 1):
            yield table[0] % range_size
            # Δ^j f(s+1) = Δ^j f(s) + Δ^{j+1} f(s) mod p.  Both terms are
            # < p < 2^31, so the uint32 sum cannot overflow, and
            # min(t, t − p) reduces it: t − p wraps above t when t < p.
            np.add(head, tail, out=total)
            np.subtract(total, p32, out=wrapped)
            np.minimum(total, wrapped, out=head)

    def _horner(self, x):
        """Σ a_i x^i mod p for a uint64 array ``x`` of field elements."""
        p = np.uint64(self.prime)
        acc = np.zeros_like(x)
        for a in reversed(self._coefficients):
            acc = (acc * x + np.uint64(a)) % p
        return acc

    def _require_vector_prime(self) -> None:
        if self.prime >= (1 << 31):
            raise ValueError(
                "vectorized evaluation needs prime < 2^31; construct the "
                "hash with prime=VECTOR_PRIME"
            )
