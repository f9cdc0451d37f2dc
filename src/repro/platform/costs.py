"""Cost model: converts vertex :class:`~repro.dag.vertex.Work` to durations.

A simple roofline: a kernel's duration is the maximum of its compute time
(``flops / rate``) and its memory time (``bytes / bandwidth``), floored at
the platform's minimum kernel duration.  Explicit ``Vertex.duration`` values
bypass the model entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dag.program import Program
from repro.dag.vertex import OpKind, Vertex, Work
from repro.platform.machine import MachineConfig


@dataclass(frozen=True)
class CostModel:
    """Maps (vertex, rank) to a base (noise-free) duration in seconds."""

    machine: MachineConfig

    # ------------------------------------------------------------------
    def gpu_kernel_duration(self, work: Optional[Work]) -> float:
        g = self.machine.gpu
        if work is None:
            return g.kernel_min_s
        compute = work.flops / g.flops_per_s
        memory = work.bytes_moved / g.mem_bw_bytes_per_s
        return max(g.kernel_min_s, compute, memory)

    def cpu_op_duration(self, work: Optional[Work]) -> float:
        c = self.machine.cpu
        if work is None:
            return c.default_op_s
        compute = work.flops / c.flops_per_s
        memory = work.bytes_moved / c.mem_bw_bytes_per_s
        return max(c.default_op_s, compute, memory)

    # ------------------------------------------------------------------
    def base_duration(self, program: Program, vertex: Vertex, rank: int) -> float:
        """Noise-free duration of ``vertex`` on ``rank``.

        For CPU vertices with post/wait actions this is only the fixed part;
        per-message posting costs are added by the executor, and wait
        blocking lasts until the awaited condition holds.
        """
        if vertex.duration is not None:
            # A float, so the simulator's CPU processes can yield it as a
            # delay even when the program gave an int.
            return float(vertex.duration)
        g = self.machine.gpu
        if vertex.kind is OpKind.EVENT_RECORD:
            return g.event_record_s
        if vertex.kind is OpKind.EVENT_SYNC:
            return g.event_sync_overhead_s
        if vertex.kind is OpKind.STREAM_WAIT:
            return g.stream_wait_overhead_s
        if vertex.kind in (OpKind.START, OpKind.END):
            return 0.0
        # Program vertices (CPU / GPU) may carry per-rank work overrides.
        work = program.work_for(vertex, rank)
        if vertex.kind is OpKind.GPU:
            return self.gpu_kernel_duration(work)
        return self.cpu_op_duration(work)

    def post_message_cost(self) -> float:
        return self.machine.cpu.post_msg_s

    def wait_overhead(self) -> float:
        return self.machine.cpu.wait_overhead_s

    def launch_overhead(self) -> float:
        return self.machine.gpu.launch_overhead_s

    def transfer_time(self, nbytes: float) -> float:
        return self.machine.net.transfer_time(nbytes)
