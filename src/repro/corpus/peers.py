"""Peer-group analysis: deterministic clustering + outlier findings.

"Apples and Oranges" observes that software clustered into peer groups
by apparent functionality makes least-privilege violators stand out as
outliers.  Profiles (:mod:`repro.corpus.profile`) are the feature
vectors; this module supplies the documented distance, a seeded
k-medoids, and the report behind ``privanalyzer peers``.

Distance (documented in docs/CORPUS.md, weights are module constants):

* ``W_WINDOWS`` × L1 over the union of per-attack vulnerability windows
* ``W_INVULNERABLE`` × |Δ invulnerable window|
* per-capability hold-time L1 over the union of held capabilities,
  where each :data:`~repro.caps.POWERFUL_CAPABILITIES` member weighs
  ``W_CAP_POWERFUL`` and the rest ``W_CAP_ORDINARY`` — hoarding
  CAP_SYS_ADMIN must move a profile further than hoarding CAP_KILL
* ``W_ROOT`` × |Δ root-euid fraction|
* ``W_SURFACE`` × (1 − Jaccard) for each of the static and dynamic
  syscall surfaces

Everything downstream is deterministic: profiles are sorted by program
name before anything else happens, medoid seeding uses an explicit
``random.Random(seed)``, and every argmin tie breaks toward the lowest
index.  Same seed + same corpus ⇒ bit-identical assignments and outlier
scores, whatever the sweep's ``--jobs`` mode was.
"""

from __future__ import annotations

import dataclasses
import json
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.caps import POWERFUL_CAPABILITIES
from repro.corpus.profile import PrivilegeProfile

W_WINDOWS = 1.0
W_INVULNERABLE = 1.0
W_CAP_POWERFUL = 2.0
W_CAP_ORDINARY = 1.0
W_ROOT = 0.5
W_SURFACE = 1.0

#: Guards the outlier-score denominator in degenerate clusters where
#: the median member sits on the medoid.
EPSILON = 1e-9

#: A member must hold a capability at least this much longer (as a
#: fraction of execution) than the peer median to earn a finding.
HOLD_FINDING_MARGIN = 0.25

_POWERFUL_NAMES = frozenset(str(cap) for cap in POWERFUL_CAPABILITIES)


class _Encoded:
    """Profiles encoded once for :func:`distance_matrix`.

    ``windows`` and ``cap_hold`` become tuples over the sorted union of
    every profile's keys (a missing key reads ``0.0``, as in the
    per-pair sums, where it adds ``abs(0.0 - 0.0)``, exactly ``0.0``), so
    a pair's sums add the same terms in the same key order; the syscall
    surfaces become int masks over one syscall numbering.
    """

    def __init__(self, profiles: Sequence[PrivilegeProfile]) -> None:
        window_keys = sorted({key for profile in profiles for key in profile.windows})
        caps = sorted({cap for profile in profiles for cap in profile.cap_hold})
        #: The cap-hold weight of each position of an encoded hold tuple.
        self.weights = tuple(
            W_CAP_POWERFUL if cap in _POWERFUL_NAMES else W_CAP_ORDINARY for cap in caps
        )
        bits = {
            name: 1 << index
            for index, name in enumerate(sorted({
                name
                for profile in profiles
                for surface in (profile.static_surface, profile.dynamic_surface)
                for name in surface
            }))
        }

        def mask(surface) -> int:
            value = 0
            for name in surface:
                value |= bits[name]
            return value

        #: Per profile: (windows, invulnerable window, cap holds, root-euid
        #: fraction, static surface mask, dynamic surface mask).
        self.rows = [
            (
                tuple(profile.windows.get(key, 0.0) for key in window_keys),
                profile.invulnerable_window,
                tuple(profile.cap_hold.get(cap, 0.0) for cap in caps),
                profile.root_euid_fraction,
                mask(profile.static_surface),
                mask(profile.dynamic_surface),
            )
            for profile in profiles
        ]

    def distance(self, i: int, j: int) -> float:
        """The documented distance between profiles ``i`` and ``j``."""
        a_windows, a_safe, a_held, a_root, a_static, a_dynamic = self.rows[i]
        b_windows, b_safe, b_held, b_root, b_static, b_dynamic = self.rows[j]
        windows = 0.0
        for x, y in zip(a_windows, b_windows):
            windows += abs(x - y)
        held = 0.0
        for weight, x, y in zip(self.weights, a_held, b_held):
            held += weight * abs(x - y)
        return (
            W_WINDOWS * windows
            + W_INVULNERABLE * abs(a_safe - b_safe)
            + held
            + W_ROOT * abs(a_root - b_root)
            + W_SURFACE * _jaccard_distance(a_static, b_static)
            + W_SURFACE * _jaccard_distance(a_dynamic, b_dynamic)
        )


def _jaccard_distance(first: int, second: int) -> float:
    """1 − Jaccard of two surfaces given as masks."""
    union = first | second
    if not union:
        return 0.0
    return 1.0 - (first & second).bit_count() / union.bit_count()


def profile_distance(a: PrivilegeProfile, b: PrivilegeProfile) -> float:
    """The documented weighted distance between two profiles."""
    return _Encoded([a, b]).distance(0, 1)


def distance_matrix(profiles: Sequence[PrivilegeProfile]) -> List[List[float]]:
    """All pairwise :func:`profile_distance` values, in ``profiles`` order.

    The distance is bit-symmetric — every term is an ``abs`` difference
    or a Jaccard distance, summed in sorted-key order — and zero on the
    diagonal, so only the upper triangle is computed and then mirrored.
    """
    count = len(profiles)
    distance = _Encoded(profiles).distance
    matrix = [[0.0] * count for _ in range(count)]
    for i in range(count):
        row = matrix[i]
        for j in range(i + 1, count):
            row[j] = matrix[j][i] = distance(i, j)
    return matrix


# -- seeded k-medoids ----------------------------------------------------------


def _assign(
    matrix: List[List[float]], medoids: List[int]
) -> List[int]:
    """Nearest medoid per point; ties break toward the lowest medoid."""
    assignment = []
    for index in range(len(matrix)):
        best = min(medoids, key=lambda m: (matrix[index][m], m))
        assignment.append(best)
    return assignment


def _update_medoid(matrix: List[List[float]], members: List[int]) -> int:
    """The member minimizing total intra-cluster distance (lowest-index tie)."""
    return min(
        members,
        key=lambda candidate: (
            sum(matrix[candidate][other] for other in members),
            candidate,
        ),
    )


def k_medoids(
    matrix: List[List[float]],
    k: int,
    seed: int = 0,
    max_iterations: int = 64,
) -> Tuple[List[int], List[int]]:
    """Seeded k-medoids over a precomputed distance matrix.

    Returns ``(medoids, assignment)`` where ``assignment[i]`` is the
    medoid index point ``i`` belongs to.  Fully deterministic: the
    initial medoids come from ``random.Random(seed)`` and every
    subsequent step is an argmin with an explicit index tie-break.
    """
    count = len(matrix)
    if count == 0:
        return [], []
    k = max(1, min(k, count))
    rng = random.Random(seed)
    medoids = sorted(rng.sample(range(count), k))
    for _ in range(max_iterations):
        assignment = _assign(matrix, medoids)
        updated = []
        for medoid in medoids:
            members = [i for i, owner in enumerate(assignment) if owner == medoid]
            updated.append(_update_medoid(matrix, members) if members else medoid)
        updated = sorted(set(updated))
        if updated == medoids:
            break
        medoids = updated
    return medoids, _assign(matrix, medoids)


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return 0.0
    middle = count // 2
    if count % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


# -- the report ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PeerFinding:
    """One "holds X longer than its peers" observation."""

    program: str
    capability: str
    hold: float
    peer_median: float

    def describe(self) -> str:
        return (
            f"{self.program} holds {self.capability} for {self.hold:.0%} of "
            f"execution vs a peer median of {self.peer_median:.0%}"
        )


@dataclasses.dataclass
class PeerReport:
    """Clusters, per-program outlier scores, and capability findings."""

    seed: int
    clusters: List[Dict[str, Any]]
    outliers: List[Dict[str, Any]]
    findings: List[PeerFinding]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": 1,
            "seed": self.seed,
            "clusters": self.clusters,
            "outliers": self.outliers,
            "findings": [dataclasses.asdict(finding) for finding in self.findings],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render_text(self, top: int = 10) -> str:
        lines = [f"peer groups (seed {self.seed}): {len(self.clusters)} clusters"]
        for cluster in self.clusters:
            members = ", ".join(
                member["program"] for member in cluster["members"]
            )
            lines.append(f"  [{cluster['medoid']}] {members}")
        lines.append("")
        lines.append(f"top outliers (of {len(self.outliers)} programs):")
        width = max(
            (len(entry["program"]) for entry in self.outliers[:top]), default=1
        )
        for entry in self.outliers[:top]:
            lines.append(
                f"  {entry['program']:<{width}}  score {entry['score']:8.3f}  "
                f"peer group [{entry['medoid']}]"
            )
        if self.findings:
            lines.append("")
            lines.append("capability findings:")
            for finding in self.findings:
                lines.append(f"  {finding.describe()}")
        return "\n".join(lines)


def peer_analysis(
    profiles: Sequence[PrivilegeProfile],
    k: Optional[int] = None,
    seed: int = 0,
    capability: Optional[str] = None,
    telemetry=None,
) -> PeerReport:
    """Cluster ``profiles`` and rank least-privilege outliers.

    ``k`` defaults to ``max(2, round(sqrt(n/2)))`` — small corpora get a
    handful of groups, a 200-program corpus about ten.  ``capability``
    restricts the findings section to one capability (the
    "who holds CAP_SYS_ADMIN longer than their peers" query); scores and
    clusters are unaffected.  ``telemetry``, when live, records the
    ``peers.analyze`` span and ``rosa.peers.*`` counters; it never
    influences the result.
    """
    if telemetry is None:
        from repro.telemetry import Telemetry

        telemetry = Telemetry.disabled()
    with telemetry.tracer.span("peers.analyze", profiles=len(profiles), seed=seed):
        report = _peer_analysis(profiles, k=k, seed=seed, capability=capability)
    telemetry.metrics.counter("rosa.peers.programs").inc(len(profiles))
    telemetry.metrics.counter("rosa.peers.clusters").inc(len(report.clusters))
    telemetry.metrics.counter("rosa.peers.findings").inc(len(report.findings))
    return report


def _peer_analysis(
    profiles: Sequence[PrivilegeProfile],
    k: Optional[int],
    seed: int,
    capability: Optional[str],
) -> PeerReport:
    ordered = sorted(profiles, key=lambda profile: profile.program)
    count = len(ordered)
    if count == 0:
        return PeerReport(seed=seed, clusters=[], outliers=[], findings=[])
    if k is None:
        k = max(2, int(round((count / 2) ** 0.5)))

    matrix = distance_matrix(ordered)
    medoids, assignment = k_medoids(matrix, k=k, seed=seed)

    clusters: List[Dict[str, Any]] = []
    outliers: List[Dict[str, Any]] = []
    findings: List[PeerFinding] = []
    for medoid in medoids:
        members = [i for i, owner in enumerate(assignment) if owner == medoid]
        distances = [matrix[i][medoid] for i in members]
        scale = _median(distances) + EPSILON
        member_records = []
        for i, distance in zip(members, distances):
            score = round(distance / scale, 6)
            member_records.append(
                {"program": ordered[i].program, "score": score}
            )
            outliers.append(
                {
                    "program": ordered[i].program,
                    "score": score,
                    "distance": round(distance, 6),
                    "medoid": ordered[medoid].program,
                }
            )
        clusters.append(
            {
                "medoid": ordered[medoid].program,
                "members": member_records,
            }
        )
        findings.extend(
            _cap_findings([ordered[i] for i in members], capability)
        )

    outliers.sort(key=lambda entry: (-entry["score"], entry["program"]))
    findings.sort(key=lambda f: (-(f.hold - f.peer_median), f.program, f.capability))
    return PeerReport(
        seed=seed, clusters=clusters, outliers=outliers, findings=findings
    )


def _cap_findings(
    members: List[PrivilegeProfile], capability: Optional[str]
) -> List[PeerFinding]:
    """Per-capability hold-time excesses within one cluster."""
    if len(members) < 2:
        return []
    caps = sorted({cap for profile in members for cap in profile.cap_hold})
    if capability is not None:
        caps = [cap for cap in caps if cap == capability]
    findings = []
    for cap in caps:
        holds = [profile.cap_hold.get(cap, 0.0) for profile in members]
        median = _median(holds)
        for profile, hold in zip(members, holds):
            if hold > median + HOLD_FINDING_MARGIN:
                findings.append(
                    PeerFinding(
                        program=profile.program,
                        capability=cap,
                        hold=round(hold, 6),
                        peer_median=round(median, 6),
                    )
                )
    return findings
