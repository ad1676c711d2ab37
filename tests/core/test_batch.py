"""The batch data plane: ``detect_batch`` / ``detect_many`` guarantees.

The central contract under test: for any fitted pipeline and any batch of
signals, ``detect_batch(signals)`` is *exactly* ``[detect(s) for s in
signals]`` — same anomalies, same floats — regardless of which executor
fans the job out and whether the batch mixes signal lengths.
"""

import pytest

from repro.core.pipeline import Pipeline
from repro.core.executor import get_executor
from repro.core.sintel import Sintel
from repro.data import generate_signal
from repro.exceptions import NotFittedError, PipelineError
from repro.pipelines import get_pipeline_spec

EXECUTORS = ["serial", "process"]

PIPELINES = [("azure", {}), ("arima", {"window_size": 30})]


def _fit_detect_many(job):
    """Fit on the first signal, then detect the batch: one fan-out job."""
    name, options, signals, exact = job
    sintel = Sintel(name, **options)
    sintel.fit(signals[0])
    return sintel.detect_many(signals, exact=exact)


@pytest.fixture(scope="module")
def batch_signals():
    """Eight signals, two lengths, three flavours — a mixed batch."""
    flavours = ("periodic", "traffic", "trend_seasonal")
    return [
        generate_signal(
            f"batch-{i}", length=280 + (i % 2) * 40, n_anomalies=2,
            random_state=i, flavour=flavours[i % 3],
        ).to_array()
        for i in range(8)
    ]


@pytest.fixture(scope="module")
def loop_reference(batch_signals):
    """Per-signal serial detections: the parity ground truth."""
    outputs = {}
    for name, options in PIPELINES:
        sintel = Sintel(name, **options)
        sintel.fit(batch_signals[0])
        outputs[name] = [sintel.detect(signal) for signal in batch_signals]
    return outputs


class TestDetectBatchParity:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("pipeline,options", PIPELINES)
    def test_bitwise_identical_to_loop(self, executor, pipeline, options,
                                       batch_signals, loop_reference):
        [anomalies] = get_executor(executor).map(
            _fit_detect_many, [(pipeline, options, batch_signals, True)])
        assert anomalies == loop_reference[pipeline]

    def test_single_signal_batch(self, batch_signals):
        sintel = Sintel("azure")
        sintel.fit(batch_signals[0])
        assert sintel.detect_many(batch_signals[:1]) == [
            sintel.detect(batch_signals[0])]

    def test_repeated_batches_reuse_plan(self, batch_signals):
        pipeline = Pipeline(get_pipeline_spec("azure"))
        pipeline.fit(batch_signals[0])
        first = pipeline.detect_batch(batch_signals)
        plan = pipeline.compiled_plan("batch")
        compilations = pipeline.plan_compilations
        assert pipeline.detect_batch(batch_signals) == first
        assert pipeline.compiled_plan("batch") is plan
        assert pipeline.plan_compilations == compilations

    def test_step_timings_cover_every_step(self, batch_signals):
        # Batch timings are recorded per executed *node*: a fused chain
        # reports one entry named ``fused:<a+b+...>`` covering its member
        # steps. Every step must be covered by exactly one entry.
        pipeline = Pipeline(get_pipeline_spec("azure"))
        pipeline.fit(batch_signals[0])
        pipeline.detect_batch(batch_signals)
        covered = []
        for name in pipeline.step_timings:
            if name.startswith("fused:"):
                covered.extend(name[len("fused:"):].split("+"))
            else:
                covered.append(name)
        assert sorted(covered) == sorted(
            step["name"] for step in pipeline.steps)


class TestDetectBatchEdges:
    def test_unfitted_pipeline_raises(self, batch_signals):
        pipeline = Pipeline(get_pipeline_spec("azure"))
        with pytest.raises(NotFittedError):
            pipeline.detect_batch(batch_signals)

    def test_unfitted_sintel_raises(self, batch_signals):
        with pytest.raises(NotFittedError):
            Sintel("azure").detect_many(batch_signals)

    def test_empty_batch(self, batch_signals):
        pipeline = Pipeline(get_pipeline_spec("azure"))
        pipeline.fit(batch_signals[0])
        assert pipeline.detect_batch([]) == []

    def test_hyperparameter_change_invalidates_plan(self, batch_signals):
        pipeline = Pipeline(get_pipeline_spec("azure"))
        pipeline.fit(batch_signals[0])
        pipeline.detect_batch(batch_signals[:2])
        assert pipeline._compiler is not None
        pipeline.set_hyperparameters({"fixed_threshold": {"k": 4.0}})
        assert pipeline._compiler is None
        with pytest.raises(NotFittedError):
            pipeline.detect_batch(batch_signals[:2])

    def test_mismatched_context_variable_length(self, batch_signals):
        pipeline = Pipeline(get_pipeline_spec("azure"))
        pipeline.fit(batch_signals[0])
        with pytest.raises(PipelineError, match="entries for"):
            pipeline.detect_batch(batch_signals[:3], extra=[1, 2])

    def test_refit_after_batch_detect(self, batch_signals):
        # A refit rebuilds the primitives; the stale batch plan must not
        # keep serving the old fitted state.
        pipeline = Pipeline(get_pipeline_spec("azure"))
        pipeline.fit(batch_signals[0])
        pipeline.detect_batch(batch_signals[:2])
        pipeline.fit(batch_signals[1])
        expected = [pipeline.detect(signal) for signal in batch_signals[:2]]
        assert pipeline.detect_batch(batch_signals[:2]) == expected


class TestFusedBatchParity:
    """``exact=False`` lowers NN forwards to fused single-precision passes.

    The contract: exact batches stay bitwise-identical to the loop even on
    pipelines whose primitives *could* fuse, while fused batches stay
    within the documented tolerance (``PARITY_RTOL`` / ``PARITY_ATOL``) on
    every executor.
    """

    @pytest.fixture(scope="class")
    def fused_loop_reference(self, batch_signals):
        sintel = Sintel("dense_autoencoder", window_size=40, epochs=3)
        sintel.fit(batch_signals[0])
        return [sintel.detect(signal) for signal in batch_signals]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_fused_within_tolerance_on_every_executor(
            self, executor, batch_signals, fused_loop_reference):
        from repro.benchmark.batch import anomalies_within_tolerance

        options = {"window_size": 40, "epochs": 3}
        [fused] = get_executor(executor).map(
            _fit_detect_many,
            [("dense_autoencoder", options, batch_signals, False)])
        assert anomalies_within_tolerance(fused, fused_loop_reference)

    def test_exact_stays_bitwise_on_fused_capable_pipeline(
            self, batch_signals, fused_loop_reference):
        sintel = Sintel("dense_autoencoder", window_size=40, epochs=3)
        sintel.fit(batch_signals[0])
        assert sintel.detect_many(batch_signals) == fused_loop_reference

    def test_fused_plan_is_namespaced(self, batch_signals):
        # Exact and fused batch plans are distinct compilations, so one
        # plane's plan never serves the other.
        pipeline = Pipeline(get_pipeline_spec("dense_autoencoder",
                                              window_size=40, epochs=3))
        pipeline.fit(batch_signals[0])
        exact_plan = pipeline.compiled_plan("batch", exact=True)
        fused_plan = pipeline.compiled_plan("batch", exact=False)
        assert exact_plan is not fused_plan


class TestBatchViaSignalObjects:
    def test_detect_many_accepts_signals_and_1d(self, batch_signals):
        signal = generate_signal("obj", length=300, n_anomalies=2,
                                 random_state=3, flavour="periodic")
        sintel = Sintel("azure")
        sintel.fit(signal)
        values = signal.to_array()[:, 1]
        assert sintel.detect_many([signal, values]) == [
            sintel.detect(signal), sintel.detect(values)]
