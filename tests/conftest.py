"""Shared fixtures: prebuilt devices and full attestation stacks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import pytest

from repro.obs.core import Observability
from repro.ra.service import OnDemandVerifier
from repro.ra.verifier import Verifier
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel, FilterVerdict, Message


def tap(channel: Channel) -> List[Message]:
    """Capture every message sent on ``channel`` and deliver it as is.

    A channel only counts its traffic; a test that needs the messages
    themselves taps the channel before adding any fault filter, so the
    tap sees every send (in send order) before a filter drops,
    delays or replays it.
    """
    sent: List[Message] = []

    def record(message: Message) -> FilterVerdict:
        sent.append(message)
        return FilterVerdict.deliver()

    channel.add_filter(record)
    return sent


def oracle_sim(coalesce: bool) -> Simulator:
    """A simulator with coalescing (of a ``Compute`` and of an idle
    ``Sleep``) on, the default, or off: the sim-time-only profiler must
    see every event fire, so the engine refuses to coalesce under it."""
    if coalesce:
        return Simulator()
    return Simulator(obs=Observability.enabled(
        spans=False, metrics=False, profile_events=True,
    ))


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def device(sim) -> Device:
    """A small prover with the standard code/data layout."""
    dev = Device(sim, block_count=16, block_size=32, seed=7)
    dev.standard_layout()
    return dev


@dataclass
class Stack:
    """A complete verifier <-> prover rig for protocol tests."""

    sim: Simulator
    device: Device
    channel: Channel
    verifier: Verifier
    driver: OnDemandVerifier


@pytest.fixture
def stack(sim) -> Stack:
    device = Device(sim, block_count=16, block_size=32, seed=7)
    device.standard_layout()
    channel = Channel(sim, latency=0.002)
    device.attach_network(channel)
    verifier = Verifier(sim)
    verifier.enroll(device)
    driver = OnDemandVerifier(verifier, channel)
    return Stack(sim, device, channel, verifier, driver)


def make_stack(
    block_count: int = 16,
    block_size: int = 32,
    sim_block_size=None,
    latency: float = 0.002,
    seed: int = 7,
) -> Stack:
    """Non-fixture variant for tests that need custom geometry."""
    sim = Simulator()
    device = Device(
        sim, block_count=block_count, block_size=block_size,
        sim_block_size=sim_block_size, seed=seed,
    )
    device.standard_layout()
    channel = Channel(sim, latency=latency)
    device.attach_network(channel)
    verifier = Verifier(sim)
    verifier.enroll(device)
    driver = OnDemandVerifier(verifier, channel)
    return Stack(sim, device, channel, verifier, driver)
