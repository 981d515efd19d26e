"""The one verifier-side exchange (``repro.ra.service.ExchangeDriver``).

The on-demand driver, the ERASMUS collector and the update coordinator
are configurations of one request/reply state machine; every case here
runs against each of them (the coordinator only where no retry policy
is needed: it never arms one).  Also pinned: a report with no records
matches no exchange, a report from an unenrolled device is invalid, a
frame whose payload has the wrong type is dropped on either side, and
``rounds`` must be an integer >= 1.
"""

from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.fleet.campaign import RunSpec
from repro.ra.erasmus import CollectorVerifier, ErasmusService
from repro.ra.report import AttestationReport, Verdict
from repro.ra.service import OnDemandVerifier
from repro.ra.smart import SmartAttestation
from repro.ra.update import UpdateCoordinator, UpdateService
from repro.ra.verifier import Verifier
from repro.resilience import RetryPolicy
from repro.scenario import Scenario
from repro.sim.device import Device
from repro.sim.engine import Simulator
from repro.sim.network import Channel, FilterVerdict

REQUEST_KINDS = {
    "driver": "att_request",
    "collector": "collect_request",
    "coordinator": "erase_request",
}
REPLY_KINDS = {
    "driver": "att_report",
    "collector": "collect_reply",
    "coordinator": "erasure_report",
}


class Tap:
    """A channel filter that logs requests and can drop or copy them."""

    def __init__(self, request_kind, reply_kind):
        self.request_kind = request_kind
        self.reply_kind = reply_kind
        self.requests = []  # (sent_at, nonce)
        self.drop_requests = 0  # drop this many requests, then pass
        self.reply_copies = 1
        self.reply_delay = None

    def __call__(self, message):
        if message.kind == self.request_kind:
            self.requests.append((message.sent_at, message.payload["nonce"]))
            if self.drop_requests > 0:
                self.drop_requests -= 1
                return None
        if message.kind == self.reply_kind:
            delay = 0.002 if self.reply_delay is None else self.reply_delay
            # copies land inside the verifier's 1 ms verify latency
            return [
                (delay + 0.0005 * copy, message)
                for copy in range(self.reply_copies)
            ]
        return FilterVerdict.deliver()


def make_rig(kind, retry=None):
    """One prover, one verifier-side driver of ``kind``; ``open()``
    starts an exchange and ``concluded()`` lists its recorded results."""
    sim = Simulator()
    device = Device(sim, block_count=8, block_size=32, seed=3)
    device.standard_layout()
    channel = Channel(sim, latency=0.002, trace=device.trace)
    device.attach_network(channel)
    verifier = Verifier(sim)
    verifier.enroll(device)
    tap = Tap(REQUEST_KINDS[kind], REPLY_KINDS[kind])
    channel.add_filter(tap)
    calls = []
    if kind == "driver":
        SmartAttestation(device).install()
        driver = OnDemandVerifier(verifier, channel, retry=retry)

        def open_exchange():
            driver.request(device.name, on_result=calls.append)

        def concluded():
            return [x for x in driver.exchanges if x.result is not None]
    elif kind == "collector":
        ErasmusService(device, period=100.0).start()
        driver = CollectorVerifier(verifier, channel, retry=retry)

        def open_exchange():
            driver.collect(device.name, on_result=calls.append)

        def concluded():
            return list(driver.collections)
    else:
        assert retry is None
        UpdateService(device).install()
        driver = UpdateCoordinator(verifier, channel)

        def open_exchange():
            driver.push_erasure(device.name, seed=b"s" * 16)

        def concluded():
            return [o for o in driver.outcomes if o.result is not None]
    return SimpleNamespace(
        sim=sim, device=device, verifier=verifier, driver=driver, tap=tap,
        calls=calls, open=open_exchange, concluded=concluded,
    )


RETRYING = ["driver", "collector"]
ALL = ["driver", "collector", "coordinator"]


@pytest.mark.parametrize("kind", RETRYING)
def test_lost_request_is_resent_with_its_nonce_on_the_policy_schedule(kind):
    policy = RetryPolicy(timeout=0.05, max_retries=3, jitter=0.1,
                         seed=b"exchange")
    rig = make_rig(kind, retry=policy)
    rig.tap.drop_requests = 2
    rig.sim.schedule_at(1.0, rig.open)
    rig.sim.run(until=5.0)
    times = [t for t, _ in rig.tap.requests]
    nonces = {nonce for _, nonce in rig.tap.requests}
    assert len(times) == 3 and len(nonces) == 1
    waits = policy.schedule(nonces.pop())
    assert times == pytest.approx(
        [1.0, 1.0 + waits[0], 1.0 + waits[0] + waits[1]]
    )
    assert len(rig.concluded()) == 1
    retries = rig.device.trace.filter(kind="ra.retry")
    assert [r.data["attempt"] for r in retries] == [2, 3]


@pytest.mark.parametrize("kind", ALL)
def test_duplicated_reply_is_verified_once(kind):
    rig = make_rig(kind)
    rig.tap.reply_copies = 2
    rig.sim.schedule_at(1.0, rig.open)
    rig.sim.run(until=5.0)
    assert len(rig.concluded()) == 1
    assert len(rig.verifier.results) == 1
    assert rig.verifier.results[0].verdict is Verdict.HEALTHY


@pytest.mark.parametrize("kind", RETRYING)
def test_spent_budget_calls_on_result_exactly_once(kind):
    policy = RetryPolicy(timeout=0.05, max_retries=2, jitter=0.0)
    rig = make_rig(kind, retry=policy)
    rig.tap.drop_requests = 100
    rig.sim.schedule_at(1.0, rig.open)
    rig.sim.run(until=5.0)
    assert len(rig.tap.requests) == policy.max_attempts
    assert len(rig.calls) == 1
    if kind == "driver":
        assert rig.calls[0].status == "timed-out"
    else:
        assert rig.calls[0] is None and rig.driver.missed == 1
    assert rig.concluded() == []


@pytest.mark.parametrize("kind", RETRYING)
def test_late_reply_after_abandonment_adds_no_result(kind):
    policy = RetryPolicy(timeout=0.05, max_retries=1, jitter=0.0)
    rig = make_rig(kind, retry=policy)
    rig.tap.reply_delay = 1.0  # every reply lands after the budget
    rig.sim.schedule_at(1.0, rig.open)
    rig.sim.run(until=5.0)
    assert len(rig.calls) == 1
    assert rig.concluded() == []
    if kind == "driver":
        exchange = rig.driver.exchanges[0]
        assert exchange.status == "timed-out" and exchange.result is None


class TestEmptyReport:
    """A report with no records names no nonce: it matches no exchange."""

    def rogue_report(self, device):
        return AttestationReport(device=device.name, records=(),
                                 auth_tag=b"")

    def test_driver_logs_it_and_the_run_completes(self):
        scenario = Scenario.build("smart")
        rogue = scenario.channel.make_endpoint("rogue")
        report = self.rogue_report(scenario.device)
        scenario.sim.schedule_at(
            0.5, rogue.send, "vrf", "att_report", report
        )
        scenario.drive()
        scenario.run()
        details = [(r.verdict, r.detail) for r in scenario.verifier.results]
        assert (Verdict.INVALID, "empty report") in details
        assert scenario.driver.exchanges[0].status == "verified"

    def test_coordinator_drops_it(self):
        rig = make_rig("coordinator")
        rogue = rig.driver.channel.make_endpoint("rogue")
        rig.sim.schedule_at(
            0.5, rogue.send, "vrf-update", "erasure_report",
            self.rogue_report(rig.device),
        )
        rig.sim.schedule_at(1.0, rig.open)
        rig.sim.run(until=5.0)
        assert len(rig.verifier.results) == 1
        assert rig.driver.outcomes[0].installed


def verdicts(scenario):
    return [(r.verdict, r.detail) for r in scenario.verifier.results]


class TestUnenrolledDevice:
    def test_unsolicited_report_is_invalid_and_the_run_completes(self):
        scenario = Scenario.build("smart")
        rogue = scenario.channel.make_endpoint("rogue")
        report = AttestationReport(device="ghost", records=(), auth_tag=b"")
        scenario.sim.schedule_at(
            0.5, rogue.send, "vrf", "att_report", report
        )
        scenario.drive()
        scenario.run()
        assert verdicts(scenario)[0] == (
            Verdict.INVALID, "unknown device 'ghost'"
        )
        assert scenario.driver.exchanges[0].status == "verified"


class TestMalformedFrames:
    """A payload of the wrong type is dropped where it lands; the run
    goes on exactly as it would without it."""

    @pytest.mark.parametrize("kind", ALL)
    def test_driver_drops_a_malformed_reply(self, kind):
        rig = make_rig(kind)
        rogue = rig.driver.channel.make_endpoint("rogue")
        for at in (0.5, 1.001):  # before and while an exchange is open
            rig.sim.schedule_at(
                at, rogue.send, rig.driver.endpoint.name,
                REPLY_KINDS[kind], b"junk",
            )
        rig.sim.schedule_at(1.0, rig.open)
        rig.sim.run(until=5.0)
        assert len(rig.concluded()) == 1
        assert [r.verdict for r in rig.verifier.results] == [
            Verdict.HEALTHY
        ]

    @pytest.mark.parametrize("mechanism, kind", [
        ("smart", "att_request"),
        ("erasmus", "collect_request"),
    ])
    def test_prover_drops_a_malformed_request(self, mechanism, kind):
        runs = []
        for junk in (False, True):
            scenario = Scenario.build(mechanism)
            if junk:
                rogue = scenario.channel.make_endpoint("rogue")
                scenario.sim.schedule_at(
                    0.5, rogue.send, scenario.device.name, kind, b"junk"
                )
            scenario.drive()
            scenario.run()
            runs.append(verdicts(scenario))
        assert runs[1] == runs[0]
        assert runs[1] and all(v is Verdict.HEALTHY for v, _ in runs[1])


class TestRounds:
    @pytest.mark.parametrize("rounds", [0, -1, 2.5])
    def test_run_spec_rejects(self, rounds):
        with pytest.raises(ConfigurationError, match="rounds"):
            RunSpec(mechanism="smarm", rounds=rounds)

    @pytest.mark.parametrize("rounds", [0, -1, 2.5])
    def test_driver_rejects(self, rounds):
        rig = make_rig("driver")
        with pytest.raises(ConfigurationError, match="rounds"):
            OnDemandVerifier(rig.verifier, rig.driver.channel,
                             endpoint_name="vrf2", rounds=rounds)
        with pytest.raises(ConfigurationError, match="rounds"):
            rig.driver.request(rig.device.name, rounds=rounds)
        assert rig.driver.exchanges == []
