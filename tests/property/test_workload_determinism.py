"""Determinism properties of the synthetic WorkloadGenerator.

The per-class quality gate in CI compares a freshly generated fleet
against a committed baseline, so the generator must be byte-stable:

* identical output for identical seeds in-process, across processes, and
  across multiprocessing start methods (``fork`` inherits the parent's
  memory, ``spawn`` re-imports everything from scratch — macOS/Windows
  semantics);
* a committed fingerprint digest that only changes when the generator's
  arithmetic changes, which must be a deliberate, baseline-regenerating
  commit.
"""

import multiprocessing

import pytest

from repro.data.synthetic import WorkloadGenerator

#: Committed digest of the reference fleet (seed=7, 3 channels, length 600,
#: 2 signals). If a code change alters this value, the generator's output
#: changed — re-record benchmarks/output/BENCH_synthetic.json in the same
#: commit (run benchmarks/test_synthetic_quality.py, then copy
#: build/benchmarks/BENCH_synthetic.json across) and say so in the changelog.
REFERENCE_FINGERPRINT = (
    "0fc98bd1a4ecc732d1bca3320df39924a1eb5a47f84915b2ee0ad47c879131a0"
)


def _reference_generator() -> WorkloadGenerator:
    return WorkloadGenerator(seed=7, n_channels=3, length=600)


def _child_fingerprint(queue):
    queue.put(_reference_generator().fingerprint(2))


def _fingerprint_via(start_method: str) -> str:
    context = multiprocessing.get_context(start_method)
    queue = context.Queue()
    process = context.Process(target=_child_fingerprint, args=(queue,))
    process.start()
    try:
        fingerprint = queue.get(timeout=60)
    finally:
        process.join(timeout=60)
    return fingerprint


def test_committed_fingerprint_unchanged():
    assert _reference_generator().fingerprint(2) == REFERENCE_FINGERPRINT


def test_fingerprint_stable_in_process():
    assert (_reference_generator().fingerprint(2)
            == _reference_generator().fingerprint(2))


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_fingerprint_stable_across_start_methods(start_method):
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {start_method!r} unavailable")
    assert _fingerprint_via(start_method) == REFERENCE_FINGERPRINT


def test_fingerprint_covers_labels():
    """The digest must change when only the labels change."""
    base = WorkloadGenerator(seed=7, n_channels=3, length=600)
    restricted = WorkloadGenerator(seed=7, n_channels=3, length=600,
                                   taxonomy=["point"])
    assert base.fingerprint(2) != restricted.fingerprint(2)
