"""Package-level contracts: exports, errors, versioning."""

import pytest

import repro
from repro import errors


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_subpackage_all_exports_resolve(self):
        import repro.analysis
        import repro.apps
        import repro.core
        import repro.crypto
        import repro.malware
        import repro.ra
        import repro.sim
        import repro.swarm

        for module in (
            repro.analysis, repro.apps, repro.core, repro.crypto,
            repro.malware, repro.ra, repro.sim, repro.swarm,
        ):
            for name in module.__all__:
                assert getattr(module, name) is not None, (
                    module.__name__, name,
                )

    def test_docstring_quickstart_runs(self):
        """The usage example in the package docstring must stay true."""
        from repro.sim import Simulator, Device, Channel
        from repro.ra import SmartAttestation, Verifier
        from repro.ra.service import OnDemandVerifier

        sim = Simulator()
        device = Device(sim, block_count=16, block_size=32)
        channel = Channel(sim)
        device.attach_network(channel)
        verifier = Verifier(sim)
        verifier.enroll(device)
        SmartAttestation(device).install()
        exchange = OnDemandVerifier(verifier, channel).request(device.name)
        sim.run(until=60)
        assert exchange.result.healthy


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if (
                isinstance(obj, type)
                and issubclass(obj, Exception)
                and obj is not errors.ReproError
            ):
                assert issubclass(obj, errors.ReproError), name

    def test_memory_fault_carries_block(self):
        fault = errors.MemoryFault(42)
        assert fault.block_index == 42
        assert "42" in str(fault)

    def test_memory_fault_custom_message(self):
        fault = errors.MemoryFault(3, "custom text")
        assert str(fault) == "custom text"

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.VerificationError("bad report")
        with pytest.raises(errors.CryptoError):
            raise errors.SignatureError("no")

    def test_simulation_errors(self):
        with pytest.raises(errors.SimulationError):
            raise errors.SchedulingError("past")
