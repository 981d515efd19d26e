"""SEC31-TYTAN -- per-process measurement vs colluding malware (Section 3.1).

TyTAN measures each process individually, and "the process being
measured" may not interrupt its own measurement, so single-process
malware cannot move itself out of the way.  "However, malware that is
spread over several colluding processes can defeat this
countermeasure.  Doing so would require malware to violate process
isolation."

The rig: a 16-block prover split into two 8-block processes, ``procA``
then ``procB`` in measurement order, one on-demand request.  The claim
sweeps every target block:

* isolation intact: the malware is caught in its own region
  (``COMPROMISED``);
* isolation violated: the colluding pair escapes (``HEALTHY``) and
  stays resident.  Its partner moves the payload out of each region as
  that region's measurement starts, so a payload starting in ``procA``
  relocates twice (into ``procB``, then back into the measured
  ``procA``) and one starting in ``procB`` once.
"""

from repro.malware.colluding import ColludingMalware
from repro.ra.report import Verdict
from repro.ra.service import OnDemandVerifier
from repro.ra.tytan import ProcessPartition, TytanAttestation, install_partitions
from repro.ra.verifier import Verifier
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel

from tests.paper.conftest import banner

BLOCKS = 16
REGIONS = ("procA", "procB")


def tytan_rig(block_count=BLOCKS, retry=None):
    """A prover of two processes (``procA``, ``procB``) under TyTAN
    and an on-demand verifier: ``(sim, device, verifier, driver,
    service)``."""
    sim = Simulator()
    device = Device(sim, block_count=block_count, block_size=32)
    half = block_count // 2
    install_partitions(device, [
        ProcessPartition("procA", 0, half),
        ProcessPartition("procB", half, block_count - half),
    ])
    channel = Channel(sim, latency=0.002)
    device.attach_network(channel)
    verifier = Verifier(sim)
    verifier.enroll(device)
    driver = OnDemandVerifier(verifier, channel, retry=retry)
    service = TytanAttestation(device, regions=list(REGIONS))
    service.install()
    return sim, device, verifier, driver, service


def request_verdict(sim, driver, device_name, at=1.0, until=120.0):
    """The concluded exchange of one request sent at ``at``."""
    exchanges = []
    sim.schedule_at(
        at, lambda: exchanges.append(driver.request(device_name))
    )
    sim.run(until=until)
    assert exchanges and exchanges[0].result is not None
    return exchanges[0]


def attack(target_block, isolation_violated):
    """``(verdict, resident, relocations)`` of one request against
    colluding malware planted in ``target_block``."""
    sim, device, _verifier, driver, _service = tytan_rig()
    malware = ColludingMalware(
        device, target_block=target_block, infect_at=0.1,
        isolation_violated=isolation_violated,
    )
    exchange = request_verdict(sim, driver, device.name)
    moves = [r for r in malware.history if r.action == "relocate"]
    return exchange.result.verdict, malware.resident, len(moves)


def home_region(block):
    return REGIONS[block * len(REGIONS) // BLOCKS]


def test_sec31_tytan_single_process_caught():
    """One process alone cannot dodge its own measurement."""
    print(banner("SEC31-TYTAN: isolation intact, 2 x 8 blocks"))
    for block in range(BLOCKS):
        verdict, resident, moves = attack(block, isolation_violated=False)
        print(f"  block {block:2d} ({home_region(block)}): "
              f"{verdict.value}, moves {moves}")
        assert verdict is Verdict.COMPROMISED, block
        assert resident and moves == 0, block


def test_sec31_tytan_colluding_pair_escapes():
    """A colluding pair leaves every region as it is measured."""
    print(banner("SEC31-TYTAN: isolation violated, 2 x 8 blocks"))
    for block in range(BLOCKS):
        home = home_region(block)
        verdict, resident, moves = attack(block, isolation_violated=True)
        print(f"  block {block:2d} ({home}): {verdict.value}, moves {moves}")
        assert verdict is Verdict.HEALTHY, block
        assert resident, block
        assert moves == len(REGIONS) - REGIONS.index(home), block
