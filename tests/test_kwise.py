"""Tests for the k-wise independent hash family."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gathering.kwise import (
    FIELD_LIMIT,
    STEP_LIMIT,
    KWiseHash,
    VECTOR_PRIME,
    next_prime,
)


class TestConstruction:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KWiseHash(k=0, range_size=4)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            KWiseHash(k=2, range_size=0)

    def test_negative_seed(self):
        with pytest.raises(ValueError):
            KWiseHash(k=2, range_size=4, seed=-1)

    def test_seed_bits_scale_with_k(self):
        a = KWiseHash(k=4, range_size=8)
        b = KWiseHash(k=8, range_size=8)
        assert b.seed_bits == 2 * a.seed_bits

    def test_coefficients_cached_and_deterministic(self):
        h = KWiseHash(k=5, range_size=10, seed=7)
        assert h.coefficients == KWiseHash(k=5, range_size=10, seed=7).coefficients
        assert len(h.coefficients) == 5


class TestEvaluation:
    def test_values_in_range(self):
        h = KWiseHash(k=3, range_size=12, seed=1)
        assert all(0 <= h(x) < 12 for x in range(500))

    def test_deterministic(self):
        h = KWiseHash(k=3, range_size=12, seed=5)
        assert [h(x) for x in range(50)] == [h(x) for x in range(50)]

    def test_different_seeds_differ(self):
        a = KWiseHash(k=3, range_size=1000, seed=0)
        b = KWiseHash(k=3, range_size=1000, seed=1)
        assert [a(x) for x in range(30)] != [b(x) for x in range(30)]

    def test_roughly_uniform(self):
        h = KWiseHash(k=4, range_size=8, seed=3)
        counts = Counter(h(x) for x in range(8000))
        assert len(counts) == 8
        assert max(counts.values()) < 2 * min(counts.values())

    def test_pairwise_joint_uniformity(self):
        # k ≥ 2 ⇒ pairs (h(x), h(x+1)) spread over the whole square.
        h = KWiseHash(k=4, range_size=4, seed=2)
        pairs = Counter((h(2 * x), h(2 * x + 1)) for x in range(4000))
        assert len(pairs) == 16

    @given(st.integers(min_value=0, max_value=50),
           st.integers(min_value=0, max_value=2**40))
    def test_triple_matches_scalar_packing(self, seed, key):
        h = KWiseHash(k=3, range_size=6, seed=seed)
        step, walk, sender = 3, 17, 9
        packed = ((step << 40) | (walk << 20) | sender) + 1
        assert h.hash_triple(step, walk, sender) == h(packed)


class TestVectorized:
    def test_matches_scalar(self):
        h = KWiseHash(k=4, range_size=10, seed=6, prime=VECTOR_PRIME)
        walks = np.arange(100, dtype=np.uint64)
        senders = np.arange(100, dtype=np.uint64) % 7
        vector = h.hash_triples_vectorized(5, walks, senders)
        scalar = [h.hash_triple(5, int(w), int(s)) for w, s in zip(walks, senders)]
        assert vector.tolist() == scalar

    def test_large_prime_rejected(self):
        h = KWiseHash(k=4, range_size=10, seed=6)  # default 61-bit prime
        with pytest.raises(ValueError):
            h.hash_triples_vectorized(1, np.arange(4), np.arange(4))


# Small ids and ids at the top of the 20-bit key fields.
_ids = st.one_of(
    st.integers(0, 64), st.integers(FIELD_LIMIT - 64, FIELD_LIMIT - 1)
)


class TestStepStream:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 32),
        seed=st.integers(0, 2**40),
        range_size=st.integers(1, 1000),
        steps=st.integers(0, 400),
        pairs=st.lists(st.tuples(_ids, _ids), max_size=12),
    )
    def test_equals_per_step_hashes(self, k, seed, range_size, steps, pairs):
        h = KWiseHash(k=k, range_size=range_size, seed=seed,
                      prime=VECTOR_PRIME)
        walks = np.array([w for w, _ in pairs], dtype=np.uint64)
        senders = np.array([x for _, x in pairs], dtype=np.uint64)
        stream = list(h.step_decisions(walks, senders, steps))
        assert len(stream) == steps
        for step, got in enumerate(stream, start=1):
            assert got.tolist() == h.hash_triples_vectorized(
                step, walks, senders
            ).tolist()
            assert got.tolist() == [
                h.hash_triple(step, w, x) for w, x in pairs
            ]

    def test_k1_is_constant(self):
        h = KWiseHash(k=1, range_size=50, seed=9, prime=VECTOR_PRIME)
        stream = list(h.step_decisions([0, 5, FIELD_LIMIT - 1], [3, 0, 1], 7))
        assert all(d.tolist() == stream[0].tolist() for d in stream)
        assert stream[0].tolist() == [h.hash_triple(1, 0, 3)] * 3

    def test_long_stream_matches_scalar(self):
        h = KWiseHash(k=16, range_size=12, seed=3, prime=VECTOR_PRIME)
        walks, senders = np.arange(5), np.array([FIELD_LIMIT - 1, 0, 1, 2, 3])
        for step, got in enumerate(h.step_decisions(walks, senders, 3000), 1):
            if step % 997 == 0 or step <= 17:
                assert got.tolist() == [
                    h.hash_triple(step, int(w), int(x))
                    for w, x in zip(walks, senders)
                ]

    @pytest.mark.parametrize("walks,senders,steps,match", [
        ([FIELD_LIMIT], [0], 1, r"walk ids must be < 2\^20"),
        ([0], [FIELD_LIMIT], 1, r"sender ids must be < 2\^20"),
        ([0], [0], STEP_LIMIT, r"steps must be < 2\^23"),
        ([-1], [0], 1, "non-negative"),
    ])
    def test_key_packing_guard(self, walks, senders, steps, match):
        h = KWiseHash(k=4, range_size=10, prime=VECTOR_PRIME)
        # Raised when the stream is built, before any step is drawn.
        with pytest.raises(ValueError, match=match):
            h.step_decisions(walks, senders, steps)

    def test_large_prime_rejected(self):
        h = KWiseHash(k=4, range_size=10, seed=6)
        with pytest.raises(ValueError, match="prime < 2\\^31"):
            h.step_decisions(np.arange(4), np.arange(4), 3)


class TestNextPrime:
    @pytest.mark.parametrize("n,expected", [(2, 2), (4, 5), (90, 97), (7919, 7919)])
    def test_known_values(self, n, expected):
        assert next_prime(n) == expected

    def test_vector_prime_is_prime(self):
        assert next_prime(VECTOR_PRIME) == VECTOR_PRIME
