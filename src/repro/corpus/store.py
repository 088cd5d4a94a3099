"""Content-addressed profile cache backing incremental corpus sweeps.

One attested record per profile, named by :func:`repro.corpus.profile.
profile_key` — the sha256 of everything that can change the result.  A
warm sweep over an unchanged corpus therefore reads every profile from
disk and runs the pipeline zero times; editing one program invalidates
exactly its entry.  Storage is the shared attested primitive
(:class:`repro.rosa.store.AttestedStore`, kind ``"profile"``): writes are
atomic, and a profile that was edited on disk, written under another
profile schema or rule system, or torn is rejected and recomputed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.corpus.profile import PROFILE_SCHEMA_VERSION, PrivilegeProfile
from repro.rosa.keys import system_signature
from repro.rosa.store import AttestedStore


class ProfileStore(AttestedStore):
    """Privilege profiles, bound to the profile schema and the rule system."""

    kind = "profile"
    encode = staticmethod(PrivilegeProfile.to_dict)
    decode = staticmethod(PrivilegeProfile.from_dict)

    def __init__(self, root: Union[str, Path]) -> None:
        super().__init__(
            root, f"profile-v{PROFILE_SCHEMA_VERSION}:{system_signature()}"
        )

    def get(self, key: str) -> Optional[PrivilegeProfile]:
        return self._read(key)

    def put(self, key: str, profile: PrivilegeProfile) -> bool:
        return self._publish(key, profile)
