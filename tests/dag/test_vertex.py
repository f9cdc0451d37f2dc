"""Unit tests for the vertex taxonomy (paper Table II)."""

import pytest

from repro.dag.vertex import (
    END,
    START,
    Action,
    ActionKind,
    OpKind,
    Vertex,
    Work,
    cpu_op,
    gpu_op,
)


class TestOpKind:
    def test_gpu_flag(self):
        assert OpKind.GPU.is_gpu
        assert not OpKind.CPU.is_gpu
        assert not OpKind.EVENT_RECORD.is_gpu

    def test_values_are_cuda_names(self):
        assert OpKind.EVENT_RECORD.value == "cudaEventRecord"
        assert OpKind.EVENT_SYNC.value == "cudaEventSynchronize"
        assert OpKind.STREAM_WAIT.value == "cudaStreamWaitEvent"


class TestWork:
    def test_bytes_moved(self):
        w = Work(flops=10, bytes_read=100, bytes_written=50)
        assert w.bytes_moved == 150

    def test_scaled(self):
        w = Work(flops=10, bytes_read=4, bytes_written=2).scaled(2.0)
        assert w.flops == 20
        assert w.bytes_read == 8
        assert w.bytes_written == 4

    def test_default_zero(self):
        assert Work().bytes_moved == 0.0
        assert Work().flops == 0.0


class TestVertex:
    def test_cpu_op_constructor(self):
        v = cpu_op("A", duration=1e-6)
        assert v.kind is OpKind.CPU
        assert v.duration == 1e-6

    def test_gpu_op_constructor(self):
        v = gpu_op("K", work=Work(flops=100))
        assert v.kind is OpKind.GPU
        assert v.work.flops == 100

    def test_action_only_on_cpu(self):
        with pytest.raises(ValueError, match="actions are only valid"):
            Vertex(
                name="bad",
                kind=OpKind.GPU,
                action=Action(ActionKind.POST_SENDS, "g"),
            )

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            cpu_op("")

    def test_frozen(self):
        v = cpu_op("A")
        with pytest.raises(Exception):
            v.name = "B"

    def test_equality_by_value(self):
        assert cpu_op("A") == cpu_op("A")
        assert cpu_op("A") != cpu_op("B")
        assert cpu_op("A", duration=1.0) != cpu_op("A")

    def test_start_end_sentinels(self):
        assert START.kind is OpKind.START
        assert END.kind is OpKind.END
        assert START.name == "start"
        assert END.name == "end"

    def test_str_is_name(self):
        assert str(cpu_op("Pack")) == "Pack"
