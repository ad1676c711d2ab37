"""``repro.core``: primitives, pipelines, templates, and the Sintel API."""

from repro.core.analysis import AnalysisReport, analyze
from repro.core.executor import (
    ProcessExecutor,
    Executor,
    SerialExecutor,
    get_executor,
    list_executors,
)
from repro.core.fleet import (
    FleetLane,
    FleetStreamRunner,
    StandbyCache,
    StreamScheduler,
    TierPolicy,
)
from repro.core.pipeline import Pipeline, Template
from repro.core.plan import (
    PLAN_MODES,
    CompiledStep,
    ExecutionPlan,
    FusedStep,
    LaneRegistry,
    LaneStep,
    PlanCompiler,
    StepNode,
)
from repro.core.primitive import (
    Primitive,
    get_primitive,
    get_primitive_class,
    list_primitives,
    register_primitive,
)
from repro.core.sintel import Sintel
from repro.core.stream import StreamEvent, StreamRunner

__all__ = [
    "StreamEvent",
    "StreamRunner",
    "Primitive",
    "register_primitive",
    "get_primitive",
    "get_primitive_class",
    "list_primitives",
    "Template",
    "Pipeline",
    "PLAN_MODES",
    "CompiledStep",
    "FusedStep",
    "LaneRegistry",
    "LaneStep",
    "PlanCompiler",
    "FleetLane",
    "FleetStreamRunner",
    "StreamScheduler",
    "TierPolicy",
    "StandbyCache",
    "Sintel",
    "analyze",
    "AnalysisReport",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "ExecutionPlan",
    "StepNode",
    "get_executor",
    "list_executors",
]
