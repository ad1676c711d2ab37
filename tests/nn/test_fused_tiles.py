"""The fused forward's window tiles (``Sequential.predict_fused``).

Small random-weight models stand in for fitted pipelines, and ``TILE``
is patched down so that a few dozen windows make several tiles. A batch
of ``n`` windows runs as ``max(1, n // TILE)`` contiguous tiles, each in
its own arena scope, on the process-wide tile pool when there is more
than one tile and more than one usable core.
"""

import itertools
import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.benchmark.batch import PARITY_ATOL, PARITY_RTOL
from repro.core.arena import ArenaPool
from repro.core.executor import ProcessExecutor
from repro.nn import LSTM, Dense, Sequential
from repro.nn import network

TILE = 8
WINDOW, FEATURES = 6, 2


class _FailingDense(Dense):
    """A ``Dense`` whose fused forward raises on its ``fail_on``-th call."""

    def __init__(self, units):
        super().__init__(units)
        self.fail_on = None
        self.calls = itertools.count(1)

    def fused_forward_tm(self, x, take):
        if next(self.calls) == self.fail_on:
            raise RuntimeError("tile failed")
        return super().fused_forward_tm(x, take)


def _model(last=None):
    model = Sequential([LSTM(5, return_sequences=True), LSTM(4),
                        last or Dense(1)], random_state=3)
    model.build((WINDOW, FEATURES))
    return model


def _windows(n):
    return np.random.default_rng(n).normal(size=(n, WINDOW, FEATURES))


def _untiled(model, x):
    """One ``_forward_time_major`` pass over the whole batch."""
    x = np.asarray(x, dtype=np.float32)
    out = np.empty((len(x),) + model.layers[-1].output_shape)
    with ArenaPool().scope() as take:
        model._forward_time_major(x, take, out)
    return out


def _forward_in_worker(job):
    """A multi-tile forward in a pool worker, which runs its tiles itself."""
    model, x = job
    network.TILE = TILE  # a spawned worker imports the module afresh
    result = model.predict_fused(x, ArenaPool())
    return result, os.getpid() in network._TILE_POOLS


@pytest.fixture(autouse=True)
def small_tile(monkeypatch):
    monkeypatch.setattr(network, "TILE", TILE)


@pytest.fixture
def one_core(monkeypatch):
    monkeypatch.setattr(network, "_tile_threads", lambda: 1)


@pytest.fixture
def pool_calls(monkeypatch):
    calls = []
    real = network._tile_pool

    def spy():
        calls.append(1)
        return real()

    monkeypatch.setattr(network, "_tile_pool", spy)
    return calls


class TestOneTile:
    @pytest.mark.parametrize("n", [1, TILE - 1, TILE, 2 * TILE - 1])
    def test_small_batch_skips_the_pool_and_matches_one_pass(self, n,
                                                             pool_calls):
        model, x = _model(), _windows(n)
        fused = model.predict_fused(x, ArenaPool())
        assert pool_calls == []
        assert fused.tobytes() == _untiled(model, x).tobytes()

    def test_two_tiles_ask_for_the_pool(self, pool_calls):
        _model().predict_fused(_windows(2 * TILE), ArenaPool())
        assert pool_calls == [1]


class TestTiles:
    @pytest.mark.parametrize("n", [2 * TILE, 5 * TILE + 3, 16 * TILE])
    def test_pool_equals_serial_tiles_bit_for_bit(self, n, monkeypatch):
        model, x = _model(), _windows(n)
        pooled = [model.predict_fused(x, ArenaPool()) for _ in range(3)]
        monkeypatch.setattr(network, "_tile_threads", lambda: 1)
        serial = model.predict_fused(x, ArenaPool())
        for result in pooled:
            assert result.tobytes() == serial.tobytes()

    def test_tiled_output_is_close_to_one_pass(self):
        model, x = _model(), _windows(7 * TILE + 5)
        assert np.allclose(model.predict_fused(x, ArenaPool()),
                           _untiled(model, x), rtol=PARITY_RTOL,
                           atol=PARITY_ATOL)


class TestArena:
    def test_serial_tiles_hold_one_tile_of_buffers(self, one_core):
        model, arena, one_tile = _model(), ArenaPool(), ArenaPool()
        model.predict_fused(_windows(TILE), one_tile)
        model.predict_fused(_windows(4 * TILE), arena)
        held = arena.stats()["bytes_held"]
        model.predict_fused(_windows(16 * TILE), arena)
        assert arena.stats()["bytes_held"] == held \
            == one_tile.stats()["bytes_held"]

    def test_pool_tiles_hold_one_tile_of_buffers_per_thread(self):
        model, arena, one_tile = _model(), ArenaPool(), ArenaPool()
        model.predict_fused(_windows(TILE), one_tile)
        model.predict_fused(_windows(4 * TILE), arena)
        model.predict_fused(_windows(16 * TILE), arena)
        threads = network._tile_threads()
        assert arena.stats()["bytes_held"] \
            <= threads * one_tile.stats()["bytes_held"]


class TestFailingTile:
    @pytest.mark.parametrize("cores", ["usable", "one"])
    def test_error_surfaces_after_every_tile_released(self, cores,
                                                      monkeypatch):
        if cores == "one":
            monkeypatch.setattr(network, "_tile_threads", lambda: 1)
        failing = _FailingDense(1)
        model, x, arena = _model(failing), _windows(4 * TILE), ArenaPool()
        expected = model.predict_fused(x, ArenaPool())
        failing.fail_on, failing.calls = 2, itertools.count(1)
        with pytest.raises(RuntimeError, match="tile failed"):
            model.predict_fused(x, arena)
        stats = arena.stats()
        assert stats["free_buffers"] == stats["allocations"] > 0
        assert model.predict_fused(x, arena).tobytes() == expected.tobytes()


class TestForkAfterPool:
    def test_worker_runs_its_tiles_itself(self):
        model, x = _model(), _windows(5 * TILE)
        parent = model.predict_fused(x, ArenaPool())
        results = []
        mapping = threading.Thread(target=lambda: results.extend(
            ProcessExecutor(max_workers=1).map(_forward_in_worker,
                                               [(model, x)])), daemon=True)
        mapping.start()
        mapping.join(timeout=60)
        if mapping.is_alive():
            for worker in multiprocessing.active_children():
                worker.terminate()  # so the failed run can still exit
            pytest.fail("the pool worker hung on its tiles")
        [(child, child_made_a_pool)] = results
        assert child.tobytes() == parent.tobytes()
        assert not child_made_a_pool
