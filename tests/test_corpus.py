"""The scenario corpus: seeded generation, materialization, determinism.

The load-bearing property is byte-identity: a :class:`CorpusSpec` must
produce the same corpus on every machine, every interpreter launch, and
every ``PYTHONHASHSEED`` — the profile store's content addresses and the
peers report both inherit their determinism from it.  The hash-seed
regression test builds the same corpus in two subprocesses with
different ``PYTHONHASHSEED`` values and diffs the trees byte for byte
(the historical bug: ``subset`` sampling a hash-ordered set pool by
position).
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.pipeline import PrivAnalyzer
from repro.corpus import (
    CorpusEntry,
    CorpusSpec,
    generate_corpus,
    load_corpus,
    materialize_corpus,
)
from repro.corpus.build import BUILTIN_VIOLATORS
from repro.rewriting import SearchBudget
from repro.testkit.generators import (
    PROGRAM_FAMILIES,
    VIOLATOR_CAP,
    build_program_spec,
    gen_corpus_program_case,
    subset,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestSubsetCanonicalization:
    def test_set_pool_matches_sorted_list_pool(self):
        # Sets are canonicalized to sorted order before sampling, so a
        # hash-ordered pool draws exactly what its sorted form would.
        pool = {"CapSetuid", "CapChown", "CapKill", "CapSysAdmin"}
        a = subset(random.Random(7), pool, 1, 3)
        b = subset(random.Random(7), sorted(pool), 1, 3)
        assert a == b

    def test_sequences_keep_caller_order(self):
        # Lists/tuples are sampled in the caller's order — existing
        # seeds must keep their historical draws.
        pool = ["z", "a", "m"]
        a = subset(random.Random(3), pool, 1, 3)
        b = subset(random.Random(3), list(pool), 1, 3)
        assert a == b


class TestGenerateCorpus:
    def test_same_spec_same_corpus(self):
        spec = CorpusSpec(seed=11, size=12, violators=2)
        assert generate_corpus(spec) == generate_corpus(spec)

    def test_different_seed_different_programs(self):
        a = generate_corpus(CorpusSpec(seed=1, size=6, include_builtins=False,
                                       include_exemplars=False))
        b = generate_corpus(CorpusSpec(seed=2, size=6, include_builtins=False,
                                       include_exemplars=False))
        assert [e.case for e in a] != [e.case for e in b]

    def test_builtin_violators_are_the_paper_pre_refactor_programs(self):
        entries = {e.name: e for e in generate_corpus(CorpusSpec(size=0))}
        assert BUILTIN_VIOLATORS == {"passwd", "su"}
        for name in BUILTIN_VIOLATORS:
            assert entries[name].violator
        assert not entries["passwdRef"].violator
        assert not entries["suRef"].violator

    def test_violators_spread_over_generated_range(self):
        spec = CorpusSpec(seed=0, size=20, violators=4,
                          include_builtins=False, include_exemplars=False)
        flagged = [i for i, e in enumerate(generate_corpus(spec)) if e.violator]
        assert len(flagged) == 4
        # Stride 5 aims at 0/5/10/15; each lands on the nearest index of
        # the next family in rotation.
        assert flagged == [0, 6, 12, 13]

    @pytest.mark.parametrize(
        "size,violators,families",
        [
            (200, 5, PROGRAM_FAMILIES),
            (20, 4, PROGRAM_FAMILIES),
            (37, 6, PROGRAM_FAMILIES[:3]),
            (10, 10, PROGRAM_FAMILIES[:2]),
            (12, 7, PROGRAM_FAMILIES),
            (3, 5, PROGRAM_FAMILIES),
            (50, 7, ("daemon",)),
        ],
    )
    def test_violators_rotate_through_families(self, size, violators, families):
        spec = CorpusSpec(seed=0, size=size, violators=violators,
                          families=families, include_builtins=False,
                          include_exemplars=False)
        entries = generate_corpus(spec)
        planted = [e.family for e in entries if e.violator]
        assert len(planted) == min(size, violators)
        wanted = [families[i % len(families)] for i in range(violators)]
        available = [families[i % len(families)] for i in range(size)]
        if all(wanted.count(f) <= available.count(f) for f in set(wanted)):
            # Violator i is a families[i % len(families)] program.
            assert sorted(planted) == sorted(wanted)

    def test_families_cycle_and_unknown_family_rejected(self):
        spec = CorpusSpec(seed=0, size=len(PROGRAM_FAMILIES),
                          include_builtins=False, include_exemplars=False)
        families = [e.family for e in generate_corpus(spec)]
        assert families == list(PROGRAM_FAMILIES)
        with pytest.raises(ValueError, match="unknown families"):
            generate_corpus(CorpusSpec(families=("mainframe",)))


class TestFamilyPrograms:
    @pytest.mark.parametrize("family", PROGRAM_FAMILIES)
    def test_each_family_compiles_and_runs_clean(self, family):
        case = gen_corpus_program_case(random.Random(f"t:{family}"), family=family)
        assert case["family"] == family
        spec = build_program_spec(case, name=f"test-{family}")
        analyzer = PrivAnalyzer(
            budget=SearchBudget(max_states=20_000, max_seconds=10.0)
        )
        analysis = analyzer.analyze(spec)
        assert analysis.exit_code == 0
        assert analysis.chrono.total > 0

    @pytest.mark.parametrize("family", PROGRAM_FAMILIES)
    def test_violator_variant_holds_the_family_cap(self, family):
        case = gen_corpus_program_case(
            random.Random(f"t:{family}"), family=family, violator=True
        )
        assert case["violator"] is True
        assert VIOLATOR_CAP[family] in case["permitted"]
        # The hoard bracket wraps the whole body.
        assert case["body"][0] == ["priv", "raise", VIOLATOR_CAP[family]]
        assert case["body"][-1] == ["priv", "lower", VIOLATOR_CAP[family]]


class TestMaterialize:
    def test_round_trip(self, tmp_path):
        spec = CorpusSpec(seed=5, size=4, violators=1)
        entries = generate_corpus(spec)
        materialize_corpus(entries, tmp_path, spec)
        assert load_corpus(tmp_path) == entries
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["spec"]["seed"] == 5
        for entry in entries:
            assert (tmp_path / "programs" / f"{entry.name}.privc").exists()

    def test_generated_case_sidecar_rebuilds_the_spec(self, tmp_path):
        spec = CorpusSpec(seed=5, size=2, violators=0,
                          include_builtins=False, include_exemplars=False)
        entries = generate_corpus(spec)
        materialize_corpus(entries, tmp_path, spec)
        entry = entries[0]
        case = json.loads(
            (tmp_path / "programs" / f"{entry.name}.json").read_text()
        )
        assert build_program_spec(case, name=entry.name).source == (
            tmp_path / "programs" / f"{entry.name}.privc"
        ).read_text()

    def test_load_rejects_foreign_schema(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"schema": 999, "entries": []})
        )
        with pytest.raises(ValueError, match="schema"):
            load_corpus(tmp_path)

    def test_load_rejects_non_corpus_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_corpus(tmp_path)


def _build_tree(out: Path, hash_seed: str) -> None:
    script = (
        "from repro.corpus import CorpusSpec, generate_corpus, materialize_corpus\n"
        "spec = CorpusSpec(seed=9, size=8, violators=2,\n"
        "                  include_builtins=False, include_exemplars=False)\n"
        f"materialize_corpus(generate_corpus(spec), {str(out)!r}, spec)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


class TestHashSeedByteIdentity:
    def test_trees_identical_under_different_pythonhashseed(self, tmp_path):
        # Regression for the subset() hash-order bug: the same CorpusSpec
        # must materialize to byte-identical trees whatever the
        # interpreter's hash randomization did to set iteration order.
        a, b = tmp_path / "a", tmp_path / "b"
        _build_tree(a, "0")
        _build_tree(b, "1")
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        assert files_a  # the corpus actually materialized something
        for relative in files_a:
            assert (a / relative).read_bytes() == (b / relative).read_bytes(), (
                f"{relative} differs across PYTHONHASHSEED values"
            )


class TestCorpusCli:
    def _run(self, *argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_build_then_peers_text_and_json(self, tmp_path):
        corpus = tmp_path / "corpus"
        code, _ = self._run(
            "corpus", "build", "--out", str(corpus), "--seed", "4",
            "--size", "6", "--violators", "1",
            "--no-exemplars", "--no-builtins",
        )
        assert code == 0
        assert (corpus / "manifest.json").exists()

        store = tmp_path / "profiles"
        code, text = self._run(
            "peers", str(corpus), "--store", str(store), "--seed", "0",
        )
        assert code == 0
        assert "peer groups (seed 0)" in text
        assert "top outliers" in text

        report_path = tmp_path / "peers.json"
        code, _ = self._run(
            "peers", str(corpus), "--store", str(store), "--seed", "0",
            "--format", "json", "--out", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["schema"] == 1
        assert len(report["outliers"]) == 6

    def test_peers_warm_store_is_byte_identical(self, tmp_path):
        corpus = tmp_path / "corpus"
        self._run(
            "corpus", "build", "--out", str(corpus), "--seed", "4",
            "--size", "3", "--violators", "0",
            "--no-exemplars", "--no-builtins",
        )
        store = tmp_path / "profiles"
        args = ("peers", str(corpus), "--store", str(store), "--format", "json")
        _, cold = self._run(*args)
        _, warm = self._run(*args)
        assert cold == warm

    def test_peers_rejects_non_corpus_directory(self, tmp_path):
        with pytest.raises(SystemExit):
            self._run("peers", str(tmp_path / "nowhere"))


class TestCorpusEntry:
    def test_to_from_dict_round_trip(self):
        entry = generate_corpus(
            CorpusSpec(seed=1, size=1, include_builtins=False,
                       include_exemplars=False)
        )[0]
        assert CorpusEntry.from_dict(entry.to_dict()) == entry

    def test_generated_entry_without_case_is_an_error(self):
        broken = CorpusEntry(name="x", family="daemon", kind="generated")
        with pytest.raises(ValueError, match="no case"):
            broken.spec()
