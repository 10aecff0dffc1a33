"""Tests for the keyed Philox substreams in ``funcid.rng``."""

from __future__ import annotations

import numpy as np
import pytest

from funcid import rng

SEEDS = [0, 1, 7, 2**63 - 1, 2**64 - 1, 2**64 + 5, -1]
TAG_TUPLES = [
    (),
    (rng.SAMPLES,),
    (rng.ROTATION_R, 22),
    (rng.INSTANCE_SEEDS, 3, 2**64 - 1),
    (rng.NOISE, 0, 17, -3),
]
_MASK64 = (1 << 64) - 1


def _substream_reference(seed: int, *tags: int) -> np.random.Generator:
    """The splitmix-keyed ``Philox(key=...)`` construction.

    The byte reference for ``substream``: every stream behind the pinned
    digests was first opened this way.
    """
    word = 0x243F6A8885A308D3
    for tag in tags:
        z = (word + 0x9E3779B97F4A7C15 * ((int(tag) & _MASK64) + 1)) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        word = (z ^ (z >> 31)) & _MASK64
    key = np.array([int(seed) & _MASK64, word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draws(g: np.random.Generator) -> list[bytes]:
    return [
        g.random(5).tobytes(),
        g.standard_normal(7).tobytes(),
        g.uniform(-5.0, 5.0, size=(3, 4)).tobytes(),
        g.permutation(23).tobytes(),
        g.integers(1, 1 << 63, size=3).tobytes(),
        np.int64(g.integers(1, 1 << 63)).tobytes(),
    ]


def _state(g: np.random.Generator) -> tuple:
    s = g.bit_generator.state
    return (
        s["bit_generator"],
        s["state"]["key"].tobytes(),
        s["state"]["counter"].tobytes(),
        s["buffer"].tobytes(),
        s["buffer_pos"],
        s["has_uint32"],
        s["uinteger"],
    )


@pytest.mark.parametrize("tags", TAG_TUPLES)
@pytest.mark.parametrize("seed", SEEDS)
def test_substream_matches_reference_state_and_draws(seed, tags):
    got, want = rng.substream(seed, *tags), _substream_reference(seed, *tags)
    assert _state(got) == _state(want)
    assert got.bit_generator.state["state"]["key"][0] == seed & _MASK64
    assert not got.bit_generator.state["state"]["counter"].any()
    assert _draws(got) == _draws(want)
    assert _state(got) == _state(want)


def test_substreams_with_equal_arguments_share_no_state():
    a, b = rng.substream(7, rng.SAMPLES, 3), rng.substream(7, rng.SAMPLES, 3)
    before = _state(b)
    first = a.random(10)
    assert _state(b) == before
    assert np.array_equal(b.random(10), first)


def test_substreams_are_not_spawnable():
    with pytest.raises(TypeError):
        rng.substream(7, rng.SAMPLES).spawn(1)


# Computed with the ``Philox(key=...)`` construction.
@pytest.mark.parametrize(
    "args, want",
    [
        ((0,), 8911860025588294350),
        ((0, rng.INSTANCE_SEEDS, 3), 7028805372882144548),
        ((1, 101, 22), 7459209282448799180),
        ((2**63 - 1, rng.BATCH_ORDER, 0), 919093174354941833),
        ((2**64 + 5, 141), 1689858057127329614),
        ((-1, rng.NOISE, 2), 4509679134758303409),
        ((7, 1, 2, 3, 4), 8846937225891208973),
    ],
)
def test_derive_seed_pinned(args, want):
    assert rng.derive_seed(*args) == want


def test_derive_seed_goes_through_substream(monkeypatch):
    calls = []
    substream = rng.substream
    monkeypatch.setattr(rng, "substream", lambda *a: calls.append(a) or substream(*a))
    rng.derive_seed(5, rng.WEIGHT_INIT, 2)
    assert calls == [(5, rng.WEIGHT_INIT, 2)]
