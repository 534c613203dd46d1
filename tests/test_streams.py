"""The Monte Carlo engine's keyed streams and its complete-grid panels.

``montecarlo`` keys every stream from a vectorised SeedSequence schedule
and re-keys one Philox per call site; ``reference_stream`` builds each
stream the plain way, and every key and draw must match it bit for bit.
Two golden hashes pin the engine's output bytes for any later change to
how streams are keyed.
"""

import dataclasses
import hashlib
import re

import numpy as np
import pytest

from helpers import reference_stream, traced_peak

import twqr.montecarlo as mc
from twqr.errors import DimensionMismatch, InputError, InvalidConfig
from twqr.montecarlo import (
    DgpWeights,
    MonteCarloConfig,
    generate_dgp,
    nongaussian_demo,
    oracle_variance_components,
)
from twqr.panel import PanelArray, _grid

# seeds of 1 to 6 uint32 words; the pool of four stops padding the seed
# between 2**128 - 1 and 2**128
SEEDS = (0, 29, 2**32 - 1, 2**40 + 7, 2**64 + 1, 2**96 + 5, 2**128 - 1, 2**128,
         2**130 + 3, 2**170 + 3)
REPS = (0, 1, 63, 64, 2**32 - 1)
STREAM_IDS = (0, 1, 2, 3, 4, 5, 8, 9, 13, 14)


def _reference_key(seed, key):
    return reference_stream(seed, *key).bit_generator.state["state"]["key"]


@pytest.mark.parametrize("seed", SEEDS)
def test_schedule_keys_equal_seed_sequence(seed):
    spawn = [(rep, s, j) for rep in REPS for s in STREAM_IDS for j in (0, 1, 8)]
    keys = mc._philox_keys(seed, spawn)
    assert keys.dtype == np.uint64 and keys.shape == (len(spawn), 2)
    for key, got in zip(spawn, keys):
        want = np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(2, np.uint64)
        assert got.tobytes() == want.tobytes(), (seed, key)
        assert got.tobytes() == _reference_key(seed, key).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_replication_streams_follow_their_layout(seed):
    layouts = (mc._dgp_layout(1), mc._dgp_layout(3), mc._DEMO_LAYOUT,
               tuple((s, j) for s in STREAM_IDS for j in range(9)))
    for layout in layouts:
        for rep in REPS:
            block = mc._key_block(seed, rep // mc._KEY_BLOCK, layout)
            assert not block.flags.writeable
            for (s, j), got in zip(layout, block[rep % mc._KEY_BLOCK]):
                assert got.tobytes() == _reference_key(seed, (rep, s, j)).tobytes()


def _draws(gen):
    """One of each draw the engine makes, the integers first, each an odd
    number of values, so a stale buffer or half word would show next."""
    return b"".join(a.tobytes() for a in (
        gen.integers(0, 2, 5), gen.standard_normal(3), gen.integers(0, 2, 3),
        gen.random(5), gen.uniform(-1.0, 1.0, (3, 3)), gen.random(1),
        gen.integers(0, 2, 1)))


def test_rekeyed_draws_equal_fresh_streams():
    spawn = [(rep, s, j) for rep in (0, 2**32 - 1) for s in STREAM_IDS for j in (0, 8)]
    for seed in (0, 2**170 + 3):
        streams = mc._keyed(mc._philox_keys(seed, spawn))
        partial = 0
        for key in spawn:
            gen = next(streams)
            assert _draws(gen) == _draws(reference_stream(seed, *key)), (seed, key)
            # what the next re-key must clear: a stored half word, and most
            # often a part-used buffer (a normal draw may take extra words)
            state = gen.bit_generator.state
            assert state["has_uint32"] == 1
            partial += state["buffer_pos"] < 4
        assert partial > len(spawn) // 2
        with pytest.raises(StopIteration):
            next(streams)


def test_dgp_draws_its_reference_streams():
    cfg = MonteCarloConfig(G=5, H=4, d=3, tau=0.5, weights=DgpWeights(1, 1, 1, 1, 1, 1),
                           reps=1, seed=2**40 + 7)
    for rep in (0, 65):
        panel = generate_dgp(cfg, rep)
        cell = reference_stream(cfg.seed, rep, mc._WX, 1).standard_normal((5, 4))
        u = reference_stream(cfg.seed, rep, mc._UX, 1).standard_normal(5)
        v = reference_stream(cfg.seed, rep, mc._VX, 1).standard_normal(4)
        assert panel.x[:, 2].tobytes() == (u[:, None] + v[None, :] + cell).reshape(-1).tobytes()


def test_dgp_draws_the_slopes_into_x():
    cfg = MonteCarloConfig(G=200, H=200, d=10, tau=0.5, weights=DgpWeights(1, 1, 1, 1, 1, 1),
                           reps=1, seed=3)
    generate_dgp(cfg, 0)  # keys the block outside the measurement
    _, peak = traced_peak(generate_dgp, cfg, 1)
    # x is ten n-vectors and peaks at 15.28 with the draws and y; slopes
    # drawn apart and then copied into x took nine more
    assert peak / (8 * 200 * 200) < 15.28 + 1


def test_numpy_integer_seed_keys_as_the_int():
    cfg = MonteCarloConfig(G=12, H=12, d=3, tau=0.5, weights=DgpWeights(1, 1, 1, 1, 1, 1),
                           reps=1, seed=0)
    want = oracle_variance_components(cfg, 0.3, mc_outer=64, seed=7)
    got = oracle_variance_components(cfg, 0.3, mc_outer=64, seed=np.int64(7))
    for f in dataclasses.fields(want):
        assert np.asarray(getattr(got, f.name)).tobytes() == \
            np.asarray(getattr(want, f.name)).tobytes(), f.name


def test_schedule_rejects_what_seed_sequence_would_key_otherwise():
    with pytest.raises(InvalidConfig, match="seed"):
        mc._philox_keys(-1, [(0, 0, 0)])
    for spawn in ([(2**32, 0, 0)], [(-1, 0, 0)]):
        with pytest.raises(InvalidConfig, match=re.escape("[0, 2**32)")):
            mc._philox_keys(0, spawn)


def test_complete_grid_panel_equals_the_public_one():
    y, x = np.arange(12.0), np.arange(24.0).reshape(12, 2)
    g_idx, h_idx, g_labels, h_labels = _grid(3, 4)
    want = PanelArray(G=3, H=4, g_idx=g_idx, h_idx=h_idx, y=y.copy(), x=x.copy())
    got = PanelArray._complete_grid(3, 4, y, x)
    for f in ("g_idx", "h_idx", "y", "x"):
        assert getattr(got, f).tobytes() == getattr(want, f).tobytes()
    assert (got.G, got.H, got.g_labels, got.h_labels) == (3, 4, g_labels, h_labels)
    assert got.g_idx is g_idx and got.h_idx is h_idx
    assert not (got.y.flags.writeable or got.x.flags.writeable)
    assert got.y.flags.c_contiguous and got.x.flags.c_contiguous


BAD_CELLS = {
    "short y": (np.ones(11), np.ones((12, 1))),
    "2-D y": (np.ones((12, 1)), np.ones((12, 1))),
    "0-D y": (np.float64(1.0), np.ones((12, 1))),
    "short x": (np.ones(12), np.ones((11, 1))),
    "1-D x": (np.ones(12), np.ones(12)),
    "no regressor": (np.ones(12), np.ones((12, 0))),
    "nan y": (np.r_[np.ones(11), np.nan], np.ones((12, 1))),
    "inf y": (np.r_[-np.inf, np.ones(11)], np.ones((12, 1))),
    "nan x": (np.ones(12), np.r_[np.ones(11), np.nan][:, None]),
    "inf x": (np.ones(12), np.r_[np.inf, np.ones(11)][:, None]),
}


@pytest.mark.parametrize("name", BAD_CELLS)
def test_complete_grid_rejects_what_the_public_constructor_rejects(name):
    y, x = BAD_CELLS[name]
    g_idx, h_idx, _, _ = _grid(3, 4)
    with pytest.raises((DimensionMismatch, InputError)) as public:
        PanelArray(G=3, H=4, g_idx=g_idx, h_idx=h_idx, y=y, x=x)
    with pytest.raises(type(public.value), match=re.escape(str(public.value))):
        PanelArray._complete_grid(3, 4, y, x)


# Recorded at commit c690c46, before the key schedule replaced one
# SeedSequence per stream; any change to how streams are keyed or drawn
# must leave both unchanged.
GOLDEN_OUTCOMES = "485d58a649dc9fcf7b9b0e23fb4149e15a82d0b2ab9b66d6d8fe8969636ef6f9"
GOLDEN_EMPIRICAL = "8e2732902e0e245ef2c98ee9c6e4ea9847ef16936f2640a9cca028107c12d849"


def test_outputs_match_golden_bytes():
    cfg = MonteCarloConfig(G=12, H=12, d=3, tau=0.5, weights=DgpWeights(1, 1, 1, 1, 1, 1),
                           reps=40, seed=5)
    rows = np.stack(mc._replicate(mc._replication_outcome, (cfg,), cfg.reps, 1))
    assert rows.dtype == np.int8 and rows.shape == (40, 5)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == GOLDEN_OUTCOMES
    demo = nongaussian_demo(G=20, H=20, c=0.5, reps=500, seed=0)
    assert hashlib.sha256(demo.empirical.tobytes()).hexdigest() == GOLDEN_EMPIRICAL
