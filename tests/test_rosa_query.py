"""End-to-end ROSA queries, including the paper's worked example."""

import pytest

from repro.rewriting import SearchBudget
from repro.rosa import (
    Configuration,
    RosaQuery,
    Verdict,
    check,
    goals,
    model,
    syscalls,
)
from repro.rosa.syscalls import WILDCARD


def figure2_configuration(with_privileges=True):
    """The paper's Figure 2: can the process read /etc/passwd (oid 3)?"""
    setuid_privs = ["CapSetuid"] if with_privileges else []
    chown_privs = ["CapChown"] if with_privileges else []
    return Configuration(
        [
            model.process(1, euid=10, ruid=11, suid=12, egid=10, rgid=11, sgid=12),
            model.dir_entry(2, name="/etc", owner=40, group=41, perms=0o777, inode=3),
            model.file_obj(3, name="/etc/passwd", owner=40, group=41, perms=0o000),
            model.user(4, 10),
            syscalls.sys_open(1, 3, "r"),
            syscalls.sys_setuid(1, WILDCARD, setuid_privs),
            syscalls.sys_chown(1, WILDCARD, WILDCARD, 41, chown_privs),
            syscalls.sys_chmod(1, WILDCARD, 0o777),
        ]
    )


class TestFigure2Example:
    def test_vulnerable_with_privileges(self):
        report = check(
            RosaQuery("fig2", figure2_configuration(), goals.file_opened_for_read(3))
        )
        assert report.verdict is Verdict.VULNERABLE

    def test_witness_matches_papers_solution(self):
        """§V-B walks the solution: chown, then chmod, then open."""
        report = check(
            RosaQuery("fig2", figure2_configuration(), goals.file_opened_for_read(3))
        )
        assert report.witness == ["chown", "chmod", "open"]

    def test_invulnerable_without_privileges(self):
        report = check(
            RosaQuery(
                "fig2-noprivs",
                figure2_configuration(with_privileges=False),
                goals.file_opened_for_read(3),
            )
        )
        assert report.verdict is Verdict.INVULNERABLE

    def test_compromised_state_carried_in_report(self):
        report = check(
            RosaQuery("fig2", figure2_configuration(), goals.file_opened_for_read(3))
        )
        assert report.compromised_state is not None
        assert 3 in report.compromised_state.find_object(1)["rdfset"]

    def test_setuid_alone_insufficient(self):
        """Without chown/chmod the setuid identity cannot reach mode-000."""
        config = Configuration(
            [
                model.process(1, euid=10, ruid=11, suid=12, egid=10, rgid=11, sgid=12),
                model.file_obj(3, name="/etc/passwd", owner=40, group=41, perms=0o000),
                model.user(4, 10),
                model.user(5, 40),
                syscalls.sys_open(1, 3, "r"),
                syscalls.sys_setuid(1, WILDCARD, ["CapSetuid"]),
            ]
        )
        report = check(RosaQuery("setuid-only", config, goals.file_opened_for_read(3)))
        assert report.verdict is Verdict.INVULNERABLE

    def test_setuid_to_owner_reads_owner_readable_file(self):
        config = Configuration(
            [
                model.process(1, euid=10, ruid=11, suid=12, egid=10, rgid=11, sgid=12),
                model.file_obj(3, name="/etc/passwd", owner=40, group=41, perms=0o400),
                model.user(4, 40),
                syscalls.sys_open(1, 3, "r"),
                syscalls.sys_setuid(1, WILDCARD, ["CapSetuid"]),
            ]
        )
        report = check(RosaQuery("setuid-owner", config, goals.file_opened_for_read(3)))
        assert report.vulnerable
        assert report.witness == ["setuid", "open"]


class TestVerdicts:
    def test_timeout_verdict(self):
        config = figure2_configuration()
        report = check(
            RosaQuery("tight", config, lambda c: False),
            budget=SearchBudget(max_states=2),
        )
        assert report.verdict is Verdict.TIMEOUT
        assert not report.vulnerable

    def test_symbols(self):
        assert Verdict.VULNERABLE.symbol == "✓"
        assert Verdict.INVULNERABLE.symbol == "✗"
        assert Verdict.TIMEOUT.symbol == "⊙"

    def test_summary_mentions_witness(self):
        report = check(
            RosaQuery("fig2", figure2_configuration(), goals.file_opened_for_read(3))
        )
        assert "chown -> chmod -> open" in report.summary()


class TestGoals:
    def test_any_of_all_of(self):
        config = figure2_configuration()
        always = goals.any_of(lambda c: False, lambda c: True)
        never = goals.all_of(lambda c: False, lambda c: True)
        assert always(config)
        assert not never(config)

    def test_file_opened_for_write_distinct_from_read(self):
        proc = model.process(
            1, euid=0, ruid=0, suid=0, egid=0, rgid=0, sgid=0, rdfset={3}
        )
        config = Configuration([proc])
        assert goals.file_opened_for_read(3)(config)
        assert not goals.file_opened_for_write(3)(config)

    def test_goal_scoped_to_pid(self):
        proc = model.process(
            7, euid=0, ruid=0, suid=0, egid=0, rgid=0, sgid=0, rdfset={3}
        )
        config = Configuration([proc])
        assert goals.file_opened_for_read(3, pid=7)(config)
        assert not goals.file_opened_for_read(3, pid=8)(config)

    def test_file_owner_is(self):
        config = Configuration(
            [model.file_obj(3, name="f", owner=40, group=41, perms=0o644)]
        )
        assert goals.file_owner_is(3, 40)(config)
        assert not goals.file_owner_is(3, 0)(config)

    def test_entry_removed(self):
        config = Configuration(
            [model.dir_entry(7, name="d", owner=0, group=0, perms=0o755, inode=3)]
        )
        assert not goals.entry_removed(7)(config)
        assert goals.entry_removed(7)(config.remove(config.find_object(7)))


class TestShortestWitness:
    """Plain ``check`` is breadth-first, so a witness is a shortest one.

    passwd's phase 4 runs with euid 0: ROSA should read /dev/mem with one
    ``open`` under the stock 0o640 mode, and chmod it first under 0o000.
    """

    @pytest.fixture(scope="class")
    def passwd(self):
        from repro.core.pipeline import PrivAnalyzer
        from repro.programs import spec_by_name

        return PrivAnalyzer().analyze(spec_by_name("passwd"))

    @pytest.mark.parametrize(
        "mode, witness",
        [(0o640, ["open"]), (0o000, ["chmod", "open"])],
        ids=["mode-640", "mode-000"],
    )
    def test_devmem_read_witness_is_shortest(self, passwd, mode, witness):
        from repro.core.attacks import READ_DEV_MEM

        phase = passwd.phases[4].phase
        query = READ_DEV_MEM.build_query(
            phase.privileges, phase.uids, phase.gids, passwd.syscalls,
            devmem_perms=mode,
        )
        report = check(query)
        assert report.verdict is Verdict.VULNERABLE
        assert report.witness == witness


class TestSearchSpaceBehaviour:
    """§VIII: failing attacks explore the whole space; successes are fast."""

    def test_failing_query_explores_more_states(self):
        vulnerable = check(
            RosaQuery("v", figure2_configuration(), goals.file_opened_for_read(3))
        )
        invulnerable = check(
            RosaQuery(
                "i",
                figure2_configuration(with_privileges=False),
                goals.file_opened_for_read(3),
            )
        )
        # The unsuccessful search must enumerate every reachable state;
        # the successful one stops at the first witness.
        assert invulnerable.states_explored >= 1
        vulnerable_total = vulnerable.states_seen
        assert vulnerable.states_explored <= vulnerable_total
