"""Additional edge-case tests for the network engine."""

import pytest

from repro.dag.program import Message
from repro.platform.machine import NetworkModel, Protocol
from repro.platform.noise import NoiseModel
from repro.sim.durations import wire_time
from repro.sim.engine import Environment
from repro.sim.network import Network


def make(env, *messages, noise=NoiseModel(), sample=0, **kwargs):
    """A network carrying ``messages``, priced as the executor's table is."""
    defaults = dict(
        latency_s=1.0,
        bandwidth_bytes_per_s=100.0,
        eager_threshold_bytes=0.0,
        protocol=Protocol.RENDEZVOUS,
        serialize_nic=True,
    )
    defaults.update(kwargs)
    model = NetworkModel(**defaults)
    wires = {m: wire_time(model, noise, m, sample) for m in messages}
    return Network(env, model, wires)


class TestZeroByteMessages:
    def test_zero_bytes_costs_latency_only(self):
        env = Environment()
        msg = Message(src=0, dst=1, nbytes=0.0)
        net = make(env, msg)
        net.post_recv(msg)
        s = net.post_send(msg)
        env.run()
        assert s.completed_at == pytest.approx(1.0)


class TestNoiseOnTransfers:
    def test_noise_changes_wire_time_per_sample(self):
        def run(sample):
            env = Environment()
            msg = Message(src=0, dst=1, nbytes=1000.0)
            net = make(
                env, msg, noise=NoiseModel(sigma=0.1, seed=4), sample=sample
            )
            net.post_recv(msg)
            s = net.post_send(msg)
            env.run()
            return s.completed_at

        assert run(0) != run(1)
        assert run(0) == run(0)  # deterministic per sample

    def test_noise_key_includes_peer(self):
        env = Environment()
        m1 = Message(src=0, dst=1, nbytes=1000.0)
        m2 = Message(src=0, dst=2, nbytes=1000.0)
        net = make(
            env, m1, m2, noise=NoiseModel(sigma=0.1, seed=4), serialize_nic=False
        )
        net.post_recv(m1)
        net.post_recv(m2)
        s1, s2 = net.post_send(m1), net.post_send(m2)
        env.run()
        assert s1.completed_at != s2.completed_at


class TestManyToOne:
    def test_incast_serializes_at_receiver(self):
        env = Environment()
        msgs = [Message(src=src, dst=3, nbytes=100.0) for src in (0, 1, 2)]
        net = make(env, *msgs)
        reqs = []
        for msg in msgs:
            net.post_recv(msg)
            reqs.append(net.post_send(msg))
        env.run()
        ends = sorted(r.completed_at for r in reqs)
        assert ends == [pytest.approx(2.0 * k) for k in (1, 2, 3)]
