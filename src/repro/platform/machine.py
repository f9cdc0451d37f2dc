"""Machine configuration consumed by the discrete-event simulator.

The model intentionally captures only the mechanisms that make operation
*order* and *stream assignment* matter — asynchronous kernel execution on
FIFO streams, CPU launch/synchronization overheads, and latency/bandwidth
message transfer with optional per-NIC serialization — because those are the
mechanisms the paper's design-rule pipeline reasons about.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.platform.noise import NoiseModel


class Protocol(enum.Enum):
    """Point-to-point transfer protocol of the simulated MPI."""

    #: Transfer begins as soon as the send is posted; the send buffer is
    #: copied, so the send request completes after the injection time even
    #: if the matching receive arrives later.
    EAGER = "eager"
    #: Transfer begins when *both* send and receive are posted (large-message
    #: behaviour of most MPI implementations, incl. Cray-MPICH).
    RENDEZVOUS = "rendezvous"


@dataclass(frozen=True)
class GpuModel:
    """GPU execution parameters (A100-inspired defaults)."""

    #: Achievable FP64 throughput (FLOP/s) for the kernels modeled.
    flops_per_s: float = 9.0e12
    #: Achievable device-memory bandwidth (B/s).
    mem_bw_bytes_per_s: float = 1.3e12
    #: CPU-side cost of launching a kernel (s).
    launch_overhead_s: float = 1.0e-6
    #: Minimum duration of any kernel, however small its work (s).
    kernel_min_s: float = 2.0e-6
    #: CPU-side cost of a ``cudaEventRecord`` call (s).
    event_record_s: float = 0.3e-6
    #: CPU-side cost of entering ``cudaEventSynchronize`` (s); the block
    #: itself lasts until the event fires.
    event_sync_overhead_s: float = 0.5e-6
    #: CPU-side cost of a ``cudaStreamWaitEvent`` call (s).
    stream_wait_overhead_s: float = 0.3e-6

    def __post_init__(self) -> None:
        if self.flops_per_s <= 0 or self.mem_bw_bytes_per_s <= 0:
            raise ValueError("GPU rates must be positive")


@dataclass(frozen=True)
class CpuModel:
    """CPU execution parameters."""

    #: Default duration of a CPU vertex with no explicit duration/work (s).
    default_op_s: float = 0.5e-6
    #: CPU cost of posting one non-blocking send/recv (s).
    post_msg_s: float = 0.4e-6
    #: CPU cost of entering a wait call (s); the block lasts until the
    #: requests complete.
    wait_overhead_s: float = 0.3e-6
    #: Achievable CPU FLOP rate for CPU-side compute vertices (FLOP/s).
    flops_per_s: float = 5.0e10
    #: Achievable host-memory bandwidth (B/s).
    mem_bw_bytes_per_s: float = 1.0e11


@dataclass(frozen=True)
class NetworkModel:
    """α-β network model for simulated point-to-point MPI."""

    #: Per-message latency α (s).
    latency_s: float = 1.5e-6
    #: Link bandwidth β⁻¹ (B/s).
    bandwidth_bytes_per_s: float = 20.0e9
    #: Messages at or below this size use the eager protocol.
    eager_threshold_bytes: float = 8192.0
    #: Protocol for messages above the eager threshold.
    protocol: Protocol = Protocol.RENDEZVOUS
    #: If True, each rank's NIC serializes its outgoing transfers and,
    #: independently, its incoming transfers (a transfer occupies both the
    #: source send channel and the destination receive channel).
    serialize_nic: bool = True

    def transfer_time(self, nbytes: float) -> float:
        """Pure wire time of one message (no queueing)."""
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s

    def is_eager(self, nbytes: float) -> bool:
        return nbytes <= self.eager_threshold_bytes


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of the simulated platform.

    The paper's platform (Table I) is one Perlmutter node: 4 MPI ranks,
    one A100 per rank, 2 CUDA streams per GPU.  ``n_streams`` bounds the
    stream-assignment dimension of the design space.
    """

    n_ranks: int = 4
    n_streams: int = 2
    gpu: GpuModel = field(default_factory=GpuModel)
    cpu: CpuModel = field(default_factory=CpuModel)
    net: NetworkModel = field(default_factory=NetworkModel)
    noise: NoiseModel = field(default_factory=NoiseModel)
    name: str = "machine"

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if self.n_streams < 1:
            raise ValueError("n_streams must be >= 1")

    def with_noise(self, noise: NoiseModel) -> "MachineConfig":
        return replace(self, noise=noise)

    def with_streams(self, n_streams: int) -> "MachineConfig":
        return replace(self, n_streams=n_streams)

    def with_ranks(self, n_ranks: int) -> "MachineConfig":
        return replace(self, n_ranks=n_ranks)
