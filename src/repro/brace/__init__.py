"""BRACE — the Big Red Agent Computation Engine, reproduced in Python.

BRACE is the paper's shared-nothing, main-memory MapReduce runtime
specialised for iterated spatial joins.  This package implements it on top of
the simulated cluster:

* :mod:`repro.brace.config` — runtime configuration;
* :mod:`repro.brace.replication` — spatial distribution and replication of
  agents to partitions (the map task);
* :mod:`repro.brace.worker` — per-worker state: owned agents, replicas, the
  query/update execution (the reduce tasks);
* :mod:`repro.brace.shards` — the shard delta protocol: workers hosted
  durably inside the executor, exchanging only migrations, boundary
  replicas and effect partials per tick;
* :mod:`repro.brace.master` — epoch coordination: statistics, load
  balancing and checkpoint scheduling;
* :mod:`repro.brace.loadbalance` — the one-dimensional load balancer;
* :mod:`repro.brace.checkpoint` — coordinated epoch checkpoints and recovery
  by re-execution;
* :mod:`repro.brace.metrics` — throughput and epoch statistics;
* :mod:`repro.brace.runtime` — :class:`BraceRuntime`, the user-facing entry
  point that ties everything together.
"""

from repro.brace.config import BraceConfig
from repro.brace.metrics import BraceTickStatistics, EpochStatistics, BraceRunMetrics
from repro.brace.runtime import BraceRuntime
from repro.brace.worker import Worker
from repro.brace.loadbalance import OneDimensionalLoadBalancer, LoadBalanceDecision
from repro.brace.checkpoint import CheckpointManager, FailureInjector

__all__ = [
    "BraceConfig",
    "BraceRuntime",
    "BraceTickStatistics",
    "EpochStatistics",
    "BraceRunMetrics",
    "Worker",
    "OneDimensionalLoadBalancer",
    "LoadBalanceDecision",
    "CheckpointManager",
    "FailureInjector",
]
