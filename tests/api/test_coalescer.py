"""Tests for :class:`RequestCoalescer`'s chained batches.

A fake ``execute`` stands in for the detection pass. Threads are ordered
with ``threading.Event``s and by polling ``stats()["requests"]``, never
with sleeps, so every batch boundary below is deterministic.
"""

import sys
import threading
import time

import pytest

from repro.api.jobs import RequestCoalescer


def wait_for_requests(coalescer, count, timeout=30.0):
    """Spin until ``count`` requests have reached ``coalescer``."""
    deadline = time.monotonic() + timeout
    while coalescer.stats()["requests"] < count:
        assert time.monotonic() < deadline, "requests never reached it"


class Recorder:
    """A fake ``execute`` that records its calls and can hold one open.

    ``execute(items)`` answers ``"r-<item>"`` per item. It records each
    batch, the thread that ran it and, in ``after_held``, whether the
    held batch had returned when it started. A batch that contains
    ``"hold"`` signals ``entered`` and returns only once ``release`` is
    set; a batch that contains ``"boom"`` raises.
    """

    def __init__(self):
        self.batches = []
        self.threads = []
        self.after_held = []
        self.entered = threading.Event()
        self.release = threading.Event()
        self.held_returned = threading.Event()

    def __call__(self, items):
        self.batches.append(list(items))
        self.threads.append(threading.current_thread())
        self.after_held.append(self.held_returned.is_set())
        if "hold" in items:
            self.entered.set()
            self.release.wait(timeout=30)
            self.held_returned.set()
        if "boom" in items:
            raise RuntimeError("execution failed")
        return [f"r-{item}" for item in items]


def submit_on_thread(coalescer, key, payload, outcomes, index):
    """Submit from a new thread; its result or error lands in ``outcomes``."""

    def run():
        try:
            outcomes[index] = coalescer.submit(key, payload)
        except Exception as error:  # noqa: BLE001 - inspected by the test
            outcomes[index] = error

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def hold(coalescer, recorder, key="k"):
    """Start an execution of ``key`` and return once it is running."""
    outcome = [None]
    thread = submit_on_thread(coalescer, key, "hold", outcome, 0)
    assert recorder.entered.wait(timeout=30)
    return thread, outcome


def queue_in_order(coalescer, key, payloads, outcomes):
    """Submit ``payloads`` one thread each, each queued before the next."""
    threads = []
    for index, payload in enumerate(payloads):
        queued = coalescer.stats()["requests"]
        threads.append(submit_on_thread(coalescer, key, payload, outcomes,
                                        index))
        wait_for_requests(coalescer, queued + 1)
    return threads


class TestChainedCoalescer:
    def test_requests_with_nothing_in_flight_run_alone_at_once(self):
        recorder = Recorder()
        coalescer = RequestCoalescer(recorder, max_batch=8)
        results = [coalescer.submit("k", item) for item in ("a", "b", "c")]
        assert results == ["r-a", "r-b", "r-c"]
        assert recorder.batches == [["a"], ["b"], ["c"]]
        # Each executed on the thread that submitted it, within submit().
        assert recorder.threads == [threading.current_thread()] * 3
        stats = coalescer.stats()
        assert stats["executions"] == 3
        assert stats["coalesced_requests"] == 0
        assert stats["largest_batch"] == 1
        assert "window" not in stats

    def test_burst_behind_a_running_execution_runs_as_one_batch(self):
        recorder = Recorder()
        coalescer = RequestCoalescer(recorder, max_batch=8)
        held, held_outcome = hold(coalescer, recorder)
        burst = ["a", "b", "c", "d"]
        outcomes = [None] * len(burst)
        threads = queue_in_order(coalescer, "k", burst, outcomes)
        # Queued, not started: only the held execution has run.
        assert recorder.batches == [["hold"]]
        recorder.release.set()
        for thread in [held] + threads:
            thread.join(timeout=30)
        assert held_outcome == ["r-hold"]
        assert outcomes == ["r-a", "r-b", "r-c", "r-d"]
        # One batch, in submission order, started after the held one
        # returned.
        assert recorder.batches == [["hold"], burst]
        assert recorder.after_held == [False, True]
        stats = coalescer.stats()
        assert stats["requests"] == 5
        assert stats["executions"] == 2
        assert stats["coalesced_requests"] == 4
        assert stats["largest_batch"] == 4

    def test_another_key_is_not_held_up(self):
        recorder = Recorder()
        coalescer = RequestCoalescer(recorder, max_batch=8)
        held, _ = hold(coalescer, recorder, key="slow")
        # The other key runs at once on this thread while "slow" is held.
        assert coalescer.submit("fast", "x") == "r-x"
        assert recorder.batches[-1] == ["x"]
        assert recorder.after_held == [False, False]
        recorder.release.set()
        held.join(timeout=30)
        assert not held.is_alive()

    def test_queue_past_max_batch_splits_into_chained_batches(self):
        recorder = Recorder()
        coalescer = RequestCoalescer(recorder, max_batch=2)
        held, _ = hold(coalescer, recorder)
        burst = ["a", "b", "c", "d", "e"]
        outcomes = [None] * len(burst)
        threads = queue_in_order(coalescer, "k", burst, outcomes)
        recorder.release.set()
        for thread in [held] + threads:
            thread.join(timeout=30)
        assert outcomes == [f"r-{item}" for item in burst]
        assert recorder.batches == [["hold"], ["a", "b"], ["c", "d"], ["e"]]
        assert coalescer.stats()["largest_batch"] == 2

    def test_execution_error_reaches_every_caller_of_its_batch(self):
        recorder = Recorder()
        coalescer = RequestCoalescer(recorder, max_batch=8)
        held, held_outcome = hold(coalescer, recorder)
        outcomes = [None] * 3
        threads = queue_in_order(coalescer, "k", ["boom", "a", "b"],
                                 outcomes)
        recorder.release.set()
        for thread in [held] + threads:
            thread.join(timeout=30)
        assert held_outcome == ["r-hold"]
        for outcome in outcomes:
            assert isinstance(outcome, RuntimeError)
            assert str(outcome) == "execution failed"
        assert recorder.batches == [["hold"], ["boom", "a", "b"]]
        # The key stays usable: the next request runs alone, at once.
        assert coalescer.submit("k", "c") == "r-c"
        assert recorder.batches[-1] == ["c"]

    def test_concurrent_submits_keep_every_request_and_run_keys_serially(self):
        # More threads than cores, switching as often as the interpreter
        # allows: a lost update would drop or misroute a request, and a
        # broken chain would run two executions of one key at once.
        keys, max_batch = ("k0", "k1", "k2"), 3
        lock = threading.Lock()
        running = dict.fromkeys(keys, 0)
        batches, overlaps = [], []

        def execute(items):
            key = items[0][0]
            with lock:
                running[key] += 1
                if running[key] > 1:
                    overlaps.append(key)
                batches.append(list(items))
            # Python work long enough for other threads to queue behind.
            sum(range(2000))
            results = [("r",) + item for item in items]
            with lock:
                running[key] -= 1
            return results

        coalescer = RequestCoalescer(execute, max_batch=max_batch)
        n_threads, per_thread = 16, 25
        results = {}

        def client(thread):
            for number in range(per_thread):
                payload = (keys[(thread + number) % len(keys)], thread, number)
                results[payload] = coalescer.submit(payload[0], payload)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(thread,))
                       for thread in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        assert len(results) == n_threads * per_thread
        assert all(result == ("r",) + payload
                   for payload, result in results.items())
        executed = sorted(item for batch in batches for item in batch)
        assert executed == sorted(results)
        assert all(len(batch) <= max_batch for batch in batches)
        assert all(len({item[0] for item in batch}) == 1 for batch in batches)
        assert overlaps == []
        stats = coalescer.stats()
        assert stats["requests"] == n_threads * per_thread
        assert stats["executions"] == len(batches)
        assert stats["executions"] < stats["requests"]  # chains were built

    def test_removed_window_knobs_rejected(self):
        from repro.api import SintelAPI

        with pytest.raises(TypeError):
            RequestCoalescer(list, window=0)
        with pytest.raises(TypeError):
            SintelAPI(coalesce_window=0.01)
        with pytest.raises(ValueError):
            RequestCoalescer(list, max_batch=0)
