"""The sweep kernel (``repro.chaos.sweep``): trials, sweeps, the shared
line format, and the whole-journal replay judge."""

import copy

import pytest

from repro.chaos import Sweep, Trial, replay_judge, sweep
from repro.chaos.sweep import first_difference
from repro.replay import Journal
from repro.replay import journal as jn
from repro.replay.engine import record_run

from tests.conftest import COUNTER_SOURCE


def _judge(site):
    """Finds one problem, at site 2 only."""
    return ["ledger off by one"] if site == 2 else []


class TestKernel:
    def test_judge_problem_fails_the_sweep(self):
        result = sweep.run("demo", [1, 2, 3],
                           lambda site: Trial(f"site={site}", "done",
                                              _judge(site)))
        assert isinstance(result, Sweep)
        assert [t.site for t in result.trials] \
            == ["site=1", "site=2", "site=3"]
        assert not result.ok
        assert [t.site for t in result.failures()] == ["site=2"]
        assert result.tally() == {"done": 3}
        (line,) = result.lines(every=False)
        assert "site=2" in line
        assert "[FAIL]" in line
        assert "ledger off by one" in line

    def test_clean_sweep_is_ok(self):
        result = sweep.run("demo", [1, 3],
                           lambda site: Trial(f"site={site}", "done",
                                              _judge(site),
                                              faults={"drop": site}))
        assert result.ok and result.failures() == []
        assert result.lines(every=False) == []
        assert [line.split()[0] for line in result.lines()] \
            == ["site=1", "site=3"]
        assert "faults={'drop': 3}" in result.lines()[1]

    def test_trial_detail_joins_problems(self):
        trial = Trial("seed=4", "rolled-back", ["a", "b"])
        assert not trial.ok
        assert trial.detail == "a; b"
        assert Trial("seed=4", "completed").detail == ""


@pytest.fixture(scope="module")
def recorded():
    return record_run(COUNTER_SOURCE, "counter", digest_every=8).journal


def _changed(journal, index):
    """A copy of ``journal`` with event ``index`` altered in one field."""
    other = copy.deepcopy(journal)
    event = other.events[index]
    event["a"] = event.get("a", 0) + 1
    return other


class TestReplayJudge:
    def test_faithful_replay_has_no_problems(self, recorded):
        assert replay_judge(recorded) == []

    def test_reports_first_changed_event(self, recorded):
        index = len(recorded.events) // 2
        tampered = _changed(recorded, index)
        assert first_difference(recorded, tampered) == index
        (problem,) = replay_judge(tampered)
        kind = jn.KIND_NAMES[recorded.events[index]["kind"]]
        assert f"event #{index} ({kind};" in problem

    def test_prefix_and_header_differences(self, recorded):
        shorter = Journal(recorded.header)
        shorter.events = list(recorded.events[:-3])
        assert first_difference(recorded, shorter) \
            == len(recorded.events) - 3
        renamed = Journal(dict(recorded.header, program="other"))
        renamed.events = list(recorded.events)
        assert first_difference(recorded, renamed) == -1
        assert first_difference(recorded, copy.deepcopy(recorded)) is None
