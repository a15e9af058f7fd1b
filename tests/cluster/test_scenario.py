import pytest

from repro.cluster.scenario import WORKLOADS, AvailabilitySetup, main


class TestScenarioValidation:
    def test_defaults_valid(self):
        s = AvailabilitySetup()
        assert s.workload == "fixed-slow"
        assert s.policy == "filtered"

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="workload"):
            AvailabilitySetup(workload="chaos-monkey")

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            AvailabilitySetup(policy="magic")

    def test_bad_phases(self):
        with pytest.raises(ValueError):
            AvailabilitySetup(phases=0)


class TestTraces:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_every_workload_builds(self, workload):
        s = AvailabilitySetup(workload=workload, phases=10)
        traces = s.build_traces()
        assert len(traces) == 20

    def test_fixed_slow_params(self):
        s = AvailabilitySetup(params={"slow_nodes": [3], "busy_availability": 0.5})
        traces = s.build_traces()
        assert traces[3].availability(1.0) == 0.5
        assert traces[0].availability(1.0) == 1.0

    def test_heterogeneous_default_split(self):
        s = AvailabilitySetup(workload="heterogeneous", params={"n_slow": 5})
        traces = s.build_traces()
        slow = [t for t in traces if t.availability(0.0) < 1.0]
        assert len(slow) == 5


class TestRun:
    def test_run_produces_result(self):
        s = AvailabilitySetup(phases=30)
        result = s.run()
        assert result.phases == 30
        assert result.total_time > 0

    def test_policy_respected(self):
        static = AvailabilitySetup(policy="no-remap", phases=60).run()
        remap = AvailabilitySetup(policy="filtered", phases=60).run()
        assert static.planes_moved == 0
        assert remap.planes_moved > 0


class TestCli:
    def test_basic_invocation(self, capsys):
        assert main(["--phases", "30", "--policy", "no-remap"]) == 0
        out = capsys.readouterr().out
        assert "total time" in out

    def test_profile_flag(self, capsys):
        assert main(["--phases", "20", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "comp (s)" in out

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["--policy", "nonsense"])
