"""Workload generators standing in for the paper's benchmark systems.

Provides OnlineBoutique (10 services), TrainTicket (45 services), the
six Alibaba datasets A–F of Fig. 13, and the five sub-services of
Table 5 — all as synthetic trace generators whose attribute values have
the commonality/variability structure the paper measures in real
production traces.
"""

from repro.workloads.alibaba import DATASET_SPECS, SUBSERVICE_SPECS, build_dataset, build_subservice
from repro.workloads.faults import FaultInjector, FaultSpec, FaultType
from repro.workloads.generator import TraceGenerator, WorkloadDriver
from repro.workloads.onlineboutique import build_onlineboutique
from repro.workloads.queries import QueryWorkload, TraceRecord, incident_window_spec
from repro.workloads.specs import (
    ApiSpec,
    CallSpec,
    NumericAttributeSpec,
    StringAttributeSpec,
    Workload,
)
from repro.workloads.trainticket import build_trainticket

#: The three workloads the paper evaluates end to end, by the names the
#: harnesses take.  Alibaba is dataset A of Fig. 13, the largest
#: topology mix of the six.
WORKLOAD_BUILDERS = {
    "onlineboutique": build_onlineboutique,
    "trainticket": build_trainticket,
    "alibaba": lambda: build_dataset("A"),
}

__all__ = [
    "WORKLOAD_BUILDERS",
    "ApiSpec",
    "CallSpec",
    "StringAttributeSpec",
    "NumericAttributeSpec",
    "Workload",
    "TraceGenerator",
    "WorkloadDriver",
    "FaultType",
    "FaultSpec",
    "FaultInjector",
    "build_onlineboutique",
    "build_trainticket",
    "build_dataset",
    "build_subservice",
    "DATASET_SPECS",
    "SUBSERVICE_SPECS",
    "QueryWorkload",
    "TraceRecord",
    "incident_window_spec",
]
