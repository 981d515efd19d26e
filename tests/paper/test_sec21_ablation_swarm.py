"""ABL-SWARM -- collective attestation trades (Section 2.1 extension).

"it is beneficial to take advantage of interconnectivity and perform
collective attestation using a dedicated protocol": quantified against
the naive alternative (the verifier challenges every device
point-to-point through the mesh), plus the LISA-alpha vs aggregated
QoSA/traffic trade.
"""

from repro.ra.service import OnDemandVerifier
from repro.ra.smart import SmartAttestation
from repro.ra.verifier import Verifier
from repro.sim.engine import Simulator
from repro.swarm import (
    LisaAlphaAttestation,
    SwarmAttestation,
    make_topology,
)

from tests.conftest import tap
from tests.paper.conftest import banner


def hop_traffic(topology, sent):
    """Total link crossings: each message ``sent`` on the mesh weighted
    by its hop distance (the mesh's real radio/energy cost)."""
    assert sent and len(sent) == topology.channel.sent_count
    total = 0
    for message in sent:
        def index_of(name):
            try:
                return topology.device_index(name)
            except Exception:
                return 0  # external verifier sits at the root
        total += max(
            1, topology.hop_distance(index_of(message.src),
                                     index_of(message.dst))
        )
    return total


def run_collective(count, shape="tree"):
    sim = Simulator()
    topology = make_topology(sim, count=count, shape=shape)
    sent = tap(topology.channel)
    verifier = Verifier(sim)
    swarm = SwarmAttestation(topology, verifier)
    nonce = swarm.attest()
    sim.run(until=300)
    result = swarm.result_for(nonce)
    assert result is not None and result.all_healthy
    return result.completed_at, hop_traffic(topology, sent), 1


def run_lisa(count, shape="tree"):
    sim = Simulator()
    topology = make_topology(sim, count=count, shape=shape)
    sent = tap(topology.channel)
    verifier = Verifier(sim)
    lisa = LisaAlphaAttestation(topology, verifier)
    nonce = lisa.attest()
    sim.run(until=300)
    result = lisa.result_for(nonce)
    assert result.complete
    return result.completed_at, hop_traffic(topology, sent), count


def run_naive(count, shape="tree"):
    """Point-to-point: the verifier (attached at the root) challenges
    every device individually over the multi-hop channel."""
    sim = Simulator()
    topology = make_topology(sim, count=count, shape=shape)
    sent = tap(topology.channel)
    verifier = Verifier(sim)
    for device in topology.devices:
        verifier.enroll(device)
        SmartAttestation(device).install()
    driver = OnDemandVerifier(verifier, topology.channel,
                              endpoint_name="naive-vrf")
    exchanges = [driver.request(d.name) for d in topology.devices]
    sim.run(until=600)
    assert all(
        e.result is not None and e.result.healthy for e in exchanges
    )
    finished = max(e.result.verified_at for e in exchanges)
    return finished, hop_traffic(topology, sent), count


def test_ablation_swarm_scaling():
    rows = []
    for count in (7, 15, 31):
        rows.append(
            (count, run_collective(count), run_lisa(count),
             run_naive(count))
        )
    print(banner("ABL-SWARM: protocol scaling on binary trees"))
    print(
        f"{'n':>4} | {'aggregated':^22} | {'lisa-alpha':^22} | "
        f"{'naive p2p':^22}"
    )
    print(
        f"{'':>4} | {'time':>7} {'hops':>6} {'vrfy':>5} |"
        f" {'time':>7} {'hops':>6} {'vrfy':>5} |"
        f" {'time':>7} {'hops':>6} {'vrfy':>5}"
    )
    for count, agg, lisa, naive in rows:
        cells = " | ".join(
            f"{t:>7.3f} {hops:>6} {verifs:>5}"
            for t, hops, verifs in (agg, lisa, naive)
        )
        print(f"{count:>4} | {cells}")

    for count, agg, lisa, naive in rows:
        # Hop-weighted traffic: aggregation crosses each tree edge
        # about twice; LISA-alpha additionally forwards every report
        # up; naive pays round trips from the sink to every device.
        assert agg[1] < lisa[1] <= naive[1] + count
        # Verifier-side load: 1 aggregate check vs n report checks.
        assert agg[2] == 1 and naive[2] == count
    # Aggregated traffic is ~linear in n; naive grows faster
    # (sum of depths), so the gap widens with scale.
    gap_small = rows[0][3][1] / rows[0][1][1]
    gap_large = rows[-1][3][1] / rows[-1][1][1]
    assert gap_large > gap_small


def test_ablation_swarm_topology_shapes():
    results = {
        shape: run_collective(15, shape=shape)
        for shape in ("star", "tree", "line")
    }
    print(banner("ABL-SWARM: topology shape, 15 nodes, aggregated"))
    for shape, (finish, hops, _verifs) in results.items():
        print(f"  {shape:<6} finished at {finish:7.3f}s, "
              f"{hops} link crossings")
    # Line: depth 14 -> slowest.  Star: depth 1 -> fastest.
    assert results["star"][0] < results["tree"][0] < results["line"][0]
