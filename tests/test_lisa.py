"""LISA-alpha: per-device swarm attestation and the QoSA trade."""

import pytest

from repro.malware.transient import TransientMalware
from repro.ra.report import Verdict
from repro.ra.verifier import Verifier
from repro.sim.engine import Simulator
from repro.swarm import (
    LisaAlphaAttestation,
    SwarmAttestation,
    make_topology,
)


def healthy_count(result):
    return sum(
        1 for verdict in result.per_device.values()
        if verdict is Verdict.HEALTHY
    )


def lisa_rig(count=7, shape="tree"):
    sim = Simulator()
    topology = make_topology(sim, count=count, shape=shape)
    verifier = Verifier(sim)
    lisa = LisaAlphaAttestation(topology, verifier)
    return sim, topology, verifier, lisa


class TestLisaAlpha:
    def test_all_devices_report_individually(self):
        sim, topology, verifier, lisa = lisa_rig()
        nonce = lisa.attest()
        sim.run(until=30)
        result = lisa.result_for(nonce)
        assert result.complete
        assert set(result.per_device) == {
            device.name for device in topology.devices
        }
        assert healthy_count(result) == 7

    def test_per_device_verdicts(self):
        sim, topology, verifier, lisa = lisa_rig()
        TransientMalware(topology.devices[3], target_block=3,
                         infect_at=0.0, name="m3")
        TransientMalware(topology.devices[6], target_block=3,
                         infect_at=0.0, name="m6")
        nonce = lisa.attest()
        sim.run(until=30)
        result = lisa.result_for(nonce)
        assert result.dirty_nodes == ["node3", "node6"]
        assert result.per_device["node3"] is Verdict.COMPROMISED
        assert result.per_device["node0"] is Verdict.HEALTHY

    def test_flood_duplicates_ignored(self):
        """On a random (cyclic) topology the attest flood may revisit
        nodes; each node must measure exactly once per nonce."""
        pytest.importorskip("networkx")
        sim, topology, verifier, lisa = lisa_rig(count=8, shape="random")
        nonce = lisa.attest()
        sim.run(until=30)
        result = lisa.result_for(nonce)
        assert result.complete
        assert healthy_count(result) == 8

    def test_offline_node_leaves_round_incomplete(self):
        sim, topology, verifier, lisa = lisa_rig()
        lisa.nodes[5].online = False
        nonce = lisa.attest()
        sim.run(until=30)
        result = lisa.result_for(nonce)
        assert not result.complete
        assert "node5" not in result.per_device

    def test_successive_rounds_independent(self):
        sim, topology, verifier, lisa = lisa_rig(count=4, shape="star")
        first = lisa.attest()
        sim.run(until=20)
        second = lisa.attest()
        sim.run(until=40)
        assert lisa.result_for(first).complete
        assert lisa.result_for(second).complete


class TestQosaTrade:
    """LISA-alpha vs the aggregated (LISA-s / SEDA flavour) protocol:
    more information costs more traffic."""

    def run_both(self, count=15):
        # LISA-alpha
        sim_a = Simulator()
        topo_a = make_topology(sim_a, count=count, shape="tree")
        vrf_a = Verifier(sim_a)
        lisa = LisaAlphaAttestation(topo_a, vrf_a)
        nonce_a = lisa.attest()
        sim_a.run(until=60)
        alpha_result = lisa.result_for(nonce_a)
        alpha_messages = topo_a.channel.sent_count

        # aggregated
        sim_s = Simulator()
        topo_s = make_topology(sim_s, count=count, shape="tree")
        vrf_s = Verifier(sim_s)
        swarm = SwarmAttestation(topo_s, vrf_s)
        nonce_s = swarm.attest()
        sim_s.run(until=60)
        agg_result = swarm.result_for(nonce_s)
        agg_messages = topo_s.channel.sent_count
        return (alpha_result, alpha_messages), (agg_result, agg_messages)

    def test_alpha_carries_more_information(self):
        (alpha, _), (agg, _) = self.run_both()
        # Alpha: a full per-device verdict map.  Aggregated: counts
        # (our implementation also names dirty nodes, but each node's
        # *individual authenticated report* only exists under alpha).
        assert len(alpha.per_device) == 15
        assert agg.healthy == healthy_count(alpha)

    def test_alpha_costs_more_messages(self):
        (_, alpha_messages), (_, agg_messages) = self.run_both()
        assert alpha_messages > agg_messages

    def test_both_agree_on_dirty_nodes(self):
        sim_a = Simulator()
        topo_a = make_topology(sim_a, count=7, shape="tree")
        vrf_a = Verifier(sim_a)
        lisa = LisaAlphaAttestation(topo_a, vrf_a)
        TransientMalware(topo_a.devices[2], target_block=3,
                         infect_at=0.0)
        nonce = lisa.attest()
        sim_a.run(until=30)

        sim_s = Simulator()
        topo_s = make_topology(sim_s, count=7, shape="tree")
        vrf_s = Verifier(sim_s)
        swarm = SwarmAttestation(topo_s, vrf_s)
        TransientMalware(topo_s.devices[2], target_block=3,
                         infect_at=0.0)
        nonce_s = swarm.attest()
        sim_s.run(until=30)

        assert lisa.result_for(nonce).dirty_nodes == ["node2"]
        assert swarm.result_for(nonce_s).dirty_nodes == ["node2"]
