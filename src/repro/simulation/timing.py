"""Wall-clock model of the simulated deployment.

The paper reports wall-clock speedups (e.g. JWINS reaching a target accuracy
3.7x faster than random sampling).  Absolute times depend on the authors'
testbed, but the *ratios* are driven by two quantities the simulator knows
exactly: how many local SGD steps run per round and how many bytes each node
pushes on its links.  The :class:`TimeModel` turns those into a simulated
clock: a synchronous round finishes when the slowest node has finished its
compute and drained its uplink.  The three cluster constants are fixed; only
the per-node heterogeneity the asynchronous mode draws from comes from the
:class:`~repro.simulation.experiment.ExperimentConfig`
(:meth:`~repro.simulation.experiment.ExperimentConfig.resolved_time_model`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["TimeModel"]


@dataclass(frozen=True)
class TimeModel:
    """The simulated cluster: three constants and the nodes' heterogeneity.

    The asynchronous execution mode draws one compute-speed and one bandwidth
    multiplier per node from the configured ranges, so slow nodes (stragglers)
    fall behind fast ones instead of stalling a global barrier.  Per-link
    latency gets an optional uniform jitter on top of :attr:`latency_seconds`.

    Attributes
    ----------
    compute_speed_range:
        ``(lo, hi)`` multipliers on :attr:`compute_seconds_per_step`.  A node
        drawing ``2.0`` takes twice as long per SGD step; ``(1.0, 1.0)`` means
        a homogeneous cluster.
    bandwidth_scale_range:
        ``(lo, hi)`` multipliers on :attr:`bandwidth_bytes_per_second`.  A node
        drawing ``0.5`` has half the uplink bandwidth.
    link_latency_jitter_seconds:
        Upper bound of the uniform extra latency added to every delivery.
    """

    #: Time of one local SGD step (mini-batch forward + backward + update).
    compute_seconds_per_step: ClassVar[float] = 0.02
    #: Uplink bandwidth of each node, 10 Mbit/s: the paper targets edge devices
    #: whose network, not compute, is the bottleneck, so communication is the
    #: dominant cost for full sharing.
    bandwidth_bytes_per_second: ClassVar[float] = 10e6 / 8
    #: Fixed per-round latency (connection handling, serialization, barrier).
    latency_seconds: ClassVar[float] = 0.02

    compute_speed_range: tuple[float, float] = (1.0, 1.0)
    bandwidth_scale_range: tuple[float, float] = (1.0, 1.0)
    link_latency_jitter_seconds: float = 0.0

    def __post_init__(self) -> None:
        for name, (lo, hi) in (
            ("compute_speed_range", self.compute_speed_range),
            ("bandwidth_scale_range", self.bandwidth_scale_range),
        ):
            if not 0.0 < lo <= hi:
                raise ConfigurationError(f"{name} must satisfy 0 < lo <= hi, got ({lo}, {hi})")
        if self.link_latency_jitter_seconds < 0.0:
            raise ConfigurationError("link_latency_jitter_seconds must be non-negative")

    def compute_duration(self, local_steps: int) -> float:
        """Time a reference node needs for ``local_steps`` local SGD steps."""

        if local_steps < 0:
            raise ValueError("local_steps must be non-negative")
        return local_steps * self.compute_seconds_per_step

    def transfer_duration(self, num_bytes: float) -> float:
        """Time a reference node needs to push ``num_bytes`` on its uplink."""

        if num_bytes < 0:
            raise ValueError("bytes must be non-negative")
        return num_bytes / self.bandwidth_bytes_per_second

    def round_duration(self, local_steps: int, max_bytes_sent_by_a_node: float) -> float:
        """Duration of one synchronous round."""

        compute = self.compute_duration(local_steps)
        communication = self.transfer_duration(max_bytes_sent_by_a_node)
        return compute + communication + self.latency_seconds

    def sample_compute_multipliers(
        self, num_nodes: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-node slowdown factors on the compute time (``>= lo``)."""

        lo, hi = self.compute_speed_range
        return rng.uniform(lo, hi, size=num_nodes)

    def sample_bandwidth_multipliers(
        self, num_nodes: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-node scale factors on the uplink bandwidth."""

        lo, hi = self.bandwidth_scale_range
        return rng.uniform(lo, hi, size=num_nodes)

    def sample_link_latency(self, rng: np.random.Generator) -> float:
        """Latency of one delivery: the base latency plus uniform jitter."""

        if self.link_latency_jitter_seconds == 0.0:
            return self.latency_seconds
        return self.latency_seconds + rng.uniform(0.0, self.link_latency_jitter_seconds)
