"""The fabric: one control plane for every autonomous service.

Section 5's destination — the services of Sections 2-4 stop being
separately-driven scripts and become declared feedback pipelines
(observe -> learn -> recommend -> act -> validate) hosted on one
:class:`ControlPlane`: one DES scheduler, one guardrail-gated model
registry, one retry/degrade failure story, one checkpoint format, one
telemetry substrate.
"""

from repro.fabric.chaos import ChaosResult, run_chaos
from repro.fabric.faults import (
    FaultInjector,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    parse_fault_spec,
    parse_fault_specs,
)
from repro.fabric.fleet import (
    CORE_FLEET,
    FULL_FLEET,
    FleetConfig,
    build_fleet,
)
from repro.fabric.lifecycle import LifecycleAction, ModelLifecycle
from repro.fabric.pipeline import (
    STAGES,
    PipelineDriver,
    RecordingDriver,
    StageOutcome,
    TickContext,
)
from repro.fabric.plane import (
    ControlPlane,
    FabricHealth,
    ServiceBinding,
)
from repro.fabric.store import (
    FORMAT_V2,
    CheckpointStore,
    RetryState,
    ScheduleRecord,
)
from repro.fabric.streams import JobPairsView, StreamingJobSource

__all__ = [
    "STAGES",
    "PipelineDriver",
    "RecordingDriver",
    "TickContext",
    "StageOutcome",
    "ControlPlane",
    "ServiceBinding",
    "FabricHealth",
    "ModelLifecycle",
    "LifecycleAction",
    "RetryPolicy",
    "FaultSpec",
    "FaultInjector",
    "InjectedFault",
    "parse_fault_spec",
    "parse_fault_specs",
    "CheckpointStore",
    "ScheduleRecord",
    "RetryState",
    "FORMAT_V2",
    "ChaosResult",
    "run_chaos",
    "FleetConfig",
    "CORE_FLEET",
    "FULL_FLEET",
    "build_fleet",
    "StreamingJobSource",
    "JobPairsView",
]
