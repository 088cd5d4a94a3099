"""Model a custom attack directly with the ROSA bounded model checker.

PrivAnalyzer ships four attacks, but ROSA is a general tool: describe a
Linux system as objects, give the attacker a syscall budget, and search
for any compromised state you can phrase as a predicate.

This example asks two custom questions the paper does not:

1. Can a process holding only CAP_FOWNER *corrupt the shadow database*
   (open /etc/shadow for writing)?
2. Can a process holding CAP_DAC_OVERRIDE *hide its tracks* by unlinking
   the audit log's directory entry?

The questions go through a :class:`~repro.rosa.QueryEngine`, like the
pipeline's: goals built from :mod:`repro.rosa.goals` can be *proved*
unreachable by the engine's abstract pre-check before any search runs
(those answers read "proved"); the rest are searched.

    PYTHONPATH=src python examples/custom_attack.py
"""

from repro.rosa import Configuration, QueryEngine, RosaQuery, goals, model, syscalls
from repro.rosa.syscalls import WILDCARD


def shadow_corruption_query(caps):
    """Objects: the attacker's process, /etc + /etc/shadow, identity pool."""
    capset = frozenset(syscalls.caps(caps))
    config = Configuration(
        [
            model.process_for_user(1, uid=1000, gid=1000),
            model.dir_entry(2, name="/etc", owner=0, group=0, perms=0o755, inode=3),
            model.file_obj(3, name="/etc/shadow", owner=0, group=42, perms=0o640),
            model.user(10, 0),
            model.user(11, 1000),
            model.group(20, 42),
            model.group(21, 1000),
            syscalls.sys_open(1, WILDCARD, "w", capset),
            syscalls.sys_chmod(1, WILDCARD, 0o777, capset),
            syscalls.sys_chown(1, WILDCARD, WILDCARD, WILDCARD, capset),
            syscalls.sys_setuid(1, WILDCARD, capset),
        ]
    )
    return RosaQuery(
        f"corrupt-shadow[{','.join(sorted(str(c) for c in capset)) or 'no caps'}]",
        config,
        goals.file_opened_for_write(3),
        description="write access to the shadow password database",
    )


def log_tampering_query(caps):
    capset = frozenset(syscalls.caps(caps))
    config = Configuration(
        [
            model.process_for_user(1, uid=1000, gid=1000),
            model.dir_entry(7, name="/var/log/audit.log", owner=0, group=0,
                            perms=0o755, inode=8),
            model.file_obj(8, name="audit.log", owner=0, group=0, perms=0o640),
            model.user(10, 0),
            model.user(11, 1000),
            model.group(20, 1000),
            syscalls.sys_unlink(1, WILDCARD, capset),
            syscalls.sys_rename(1, WILDCARD, "gone", capset),
        ]
    )
    return RosaQuery(
        f"unlink-audit-log[{','.join(sorted(str(c) for c in capset)) or 'no caps'}]",
        config,
        goals.entry_removed(7),
        description="remove the audit log's directory entry",
    )


def main() -> None:
    engine = QueryEngine()
    print("=== Custom attack 1: corrupt /etc/shadow ===")
    for caps in ([], ["CapFowner"], ["CapChown"], ["CapDacOverride"], ["CapSetuid"]):
        report = engine.check(shadow_corruption_query(caps))
        print(f"  {report.summary()}")
    print()
    print("CAP_FOWNER alone suffices: chmod the shadow file world-writable,")
    print("then open it — no uid change, no DAC override needed.")
    print()
    print("=== Custom attack 2: unlink the audit log ===")
    for caps in ([], ["CapFowner"], ["CapDacOverride"]):
        report = engine.check(log_tampering_query(caps))
        print(f"  {report.summary()}")
    print()
    print("Directory-entry removal is gated by *directory* write permission,")
    print("which only CAP_DAC_OVERRIDE bypasses.")


if __name__ == "__main__":
    main()
