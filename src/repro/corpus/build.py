"""Seeded corpus generation and materialization.

A corpus is a list of :class:`CorpusEntry` — the paper's built-in
programs, the hand-modeled exemplars, and family-conditioned generated
programs — that is a pure function of a :class:`CorpusSpec`: same spec,
same corpus, byte for byte, on any machine and under any
``PYTHONHASHSEED`` (the generators canonicalize every unordered pool
before sampling).

``materialize_corpus`` writes the corpus to disk as
``manifest.json`` + one ``programs/<name>.privc`` source (and, for
generated entries, the ``<name>.json`` case that rebuilds it); the
manifest round-trips through :func:`load_corpus` so sweeps and the
peers CLI work from a directory without regenerating anything.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.programs import EXEMPLAR_NAMES, PROGRAM_MODULES, spec_by_name
from repro.programs.common import ProgramSpec
from repro.testkit.generators import (
    PROGRAM_FAMILIES,
    build_program_spec,
    gen_corpus_program_case,
    render_program,
)

#: Bump when the manifest layout changes.
CORPUS_SCHEMA_VERSION = 1

#: Peer-group family of each built-in (paper) program.  ping, passwd
#: and su are setuid binaries; the sshd variants and thttpd are
#: long-running daemons.
BUILTIN_FAMILIES = {
    "passwd": "setuid-helper",
    "passwdRef": "setuid-helper",
    "ping": "setuid-helper",
    "sshd": "daemon",
    "sshdPrivsep": "daemon",
    "su": "setuid-helper",
    "suRef": "setuid-helper",
    "thttpd": "daemon",
}

#: The paper's pre-refactor programs are the hand-planted violators the
#: peers report must flag (§VII-C: passwd holds its DAC caps for ~99 %
#: of execution; su stays CAP_SETUID for the whole session).
BUILTIN_VIOLATORS = frozenset({"passwd", "su"})


@dataclasses.dataclass(frozen=True)
class CorpusSpec:
    """Everything that determines a corpus, hashably."""

    seed: int = 0
    #: Number of *generated* programs (built-ins/exemplars ride on top).
    size: int = 200
    families: Tuple[str, ...] = PROGRAM_FAMILIES
    #: Number of generated least-privilege violators to plant, spread
    #: evenly over the corpus (each hoards its family's VIOLATOR_CAP).
    violators: int = 5
    include_exemplars: bool = True
    include_builtins: bool = True


@dataclasses.dataclass(frozen=True)
class CorpusEntry:
    """One corpus member: a name, its peer family, and how to build it."""

    name: str
    family: str
    #: ``builtin`` / ``exemplar`` (both rebuilt via ``spec_by_name``) or
    #: ``generated`` (rebuilt from ``case``).
    kind: str
    violator: bool = False
    case: Optional[Dict[str, Any]] = None

    def spec(self) -> ProgramSpec:
        if self.kind == "generated":
            if self.case is None:
                raise ValueError(f"generated entry {self.name} has no case")
            return build_program_spec(self.case, name=self.name)
        return spec_by_name(self.name)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "family": self.family,
            "kind": self.kind,
            "violator": self.violator,
        }
        if self.case is not None:
            record["case"] = self.case
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "CorpusEntry":
        return cls(
            name=str(record["name"]),
            family=str(record["family"]),
            kind=str(record["kind"]),
            violator=bool(record.get("violator", False)),
            case=record.get("case"),
        )


def generate_corpus(spec: CorpusSpec) -> List[CorpusEntry]:
    """The corpus of ``spec``, deterministically.

    Generated entries cycle through the families; the ``violators``
    planted ones are spread evenly across the generated range so every
    corpus slice of meaningful size contains at least one, and rotate
    through the families (see :func:`_violator_indices`).  Entry names
    encode family, seed and index, so two corpora never collide in a
    shared profile store.
    """
    entries: List[CorpusEntry] = []
    if spec.include_builtins:
        for name in sorted(BUILTIN_FAMILIES):
            if name in PROGRAM_MODULES:
                entries.append(
                    CorpusEntry(
                        name=name,
                        family=BUILTIN_FAMILIES[name],
                        kind="builtin",
                        violator=name in BUILTIN_VIOLATORS,
                    )
                )
    if spec.include_exemplars:
        for name in sorted(EXEMPLAR_NAMES):
            module = PROGRAM_MODULES[name]
            entries.append(
                CorpusEntry(
                    name=name,
                    family=module.FAMILY,
                    kind="exemplar",
                    violator=bool(getattr(module, "VIOLATOR", False)),
                )
            )

    if not spec.families:
        raise ValueError("corpus spec needs at least one family")
    unknown = sorted(set(spec.families) - set(PROGRAM_FAMILIES))
    if unknown:
        raise ValueError(
            f"unknown families {unknown}; known: {', '.join(PROGRAM_FAMILIES)}"
        )
    violator_indices = _violator_indices(spec)
    for index in range(spec.size):
        family = spec.families[index % len(spec.families)]
        violator = index in violator_indices
        rng = random.Random(f"{spec.seed}:corpus:{family}:{index}:{violator}")
        case = gen_corpus_program_case(rng, family=family, violator=violator)
        entries.append(
            CorpusEntry(
                name=f"{family}-{spec.seed:08x}-{index:03d}",
                family=family,
                kind="generated",
                violator=violator,
                case=case,
            )
        )
    return entries


def _violator_indices(spec: CorpusSpec) -> set:
    """Where the generated violators go: spread evenly, families rotated.

    Violator ``i`` aims at ``i * stride`` but lands on the nearest free
    index whose family is ``families[i % len(families)]`` (the nearest
    free index of any family when none of that family is left).  A plain
    stride that is a multiple of the family count would plant every
    violator in one family, where they can form a peer group of their
    own and hide each other.
    """
    families = spec.families
    stride = max(1, spec.size // max(spec.violators, 1))
    taken: set = set()
    for violator in range(min(spec.violators, spec.size)):
        free = [index for index in range(spec.size) if index not in taken]
        family = families[violator % len(families)]
        matching = [i for i in free if families[i % len(families)] == family]
        target = violator * stride
        taken.add(min(matching or free, key=lambda i: (abs(i - target), i)))
    return taken


# -- on-disk form --------------------------------------------------------------


def materialize_corpus(
    entries: Sequence[CorpusEntry],
    out_dir: Union[str, Path],
    spec: Optional[CorpusSpec] = None,
) -> Path:
    """Write ``manifest.json`` + ``programs/*.privc`` under ``out_dir``.

    Every byte written is a pure function of the entries (sorted keys,
    fixed separators, rendered sources) — the PYTHONHASHSEED regression
    test diffs two independently-built trees byte for byte.
    """
    root = Path(out_dir)
    programs = root / "programs"
    programs.mkdir(parents=True, exist_ok=True)
    for entry in entries:
        program_spec = entry.spec()
        (programs / f"{entry.name}.privc").write_text(program_spec.source)
        if entry.case is not None:
            (programs / f"{entry.name}.json").write_text(
                json.dumps(entry.case, indent=2, sort_keys=True) + "\n"
            )
    manifest = {
        "schema": CORPUS_SCHEMA_VERSION,
        "spec": dataclasses.asdict(spec) if spec else None,
        "entries": [entry.to_dict() for entry in entries],
    }
    (root / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return root


def load_corpus(directory: Union[str, Path]) -> List[CorpusEntry]:
    """The entries of a materialized corpus directory."""
    root = Path(directory)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(
            f"{root} is not a corpus directory (no manifest.json)"
        )
    manifest = json.loads(manifest_path.read_text())
    schema = manifest.get("schema")
    if schema != CORPUS_SCHEMA_VERSION:
        raise ValueError(
            f"corpus schema {schema!r} is not supported "
            f"(this tool reads version {CORPUS_SCHEMA_VERSION})"
        )
    return [CorpusEntry.from_dict(record) for record in manifest["entries"]]
