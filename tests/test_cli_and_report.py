"""The command-line interface and the report exporters."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.cli import main
from repro.core import PrivAnalyzer
from repro.core.report import (
    analysis_to_dict,
    refactoring_hints,
    summary_table,
    to_csv,
    to_json,
    to_markdown,
)
from repro.programs import spec_by_name


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def ping_analysis():
    return PrivAnalyzer().analyze(spec_by_name("ping"))


@pytest.fixture(scope="module")
def su_analysis():
    return PrivAnalyzer().analyze(spec_by_name("su"))


class TestExporters:
    def test_dict_structure(self, ping_analysis):
        data = analysis_to_dict(ping_analysis)
        assert data["program"] == "ping"
        assert data["invulnerable_window"] == 1.0
        assert len(data["phases"]) == 3
        assert data["phases"][0]["verdicts"] == {
            "1": "invulnerable", "2": "invulnerable",
            "3": "invulnerable", "4": "invulnerable",
        }

    def test_json_parses(self, ping_analysis):
        data = json.loads(to_json(ping_analysis))
        assert data["program"] == "ping"

    def test_markdown_shape(self, su_analysis):
        text = to_markdown(su_analysis)
        assert text.startswith("### su")
        assert "| su_priv1 |" in text
        assert "✓" in text and "✗" in text

    def test_csv_rows(self, ping_analysis, su_analysis):
        rows = list(csv.reader(io.StringIO(to_csv([ping_analysis, su_analysis]))))
        header, *body = rows
        assert header[0] == "program"
        assert len(body) == 3 + 6  # ping phases + su phases
        assert body[0][0] == "ping"
        assert body[-1][0] == "su"

    def test_summary_table(self, ping_analysis, su_analysis):
        text = summary_table([ping_analysis, su_analysis])
        assert "ping" in text and "su" in text
        assert "100.0%" in text  # ping all-clear


class TestRefactoringHints:
    def test_su_gets_credentials_hint(self, su_analysis):
        hints = refactoring_hints(su_analysis)
        assert any("changing credentials early" in hint for hint in hints)
        assert any("CapSetuid" in hint for hint in hints)

    def test_ping_gets_no_powerful_cap_hint(self, ping_analysis):
        hints = refactoring_hints(ping_analysis)
        assert not any("changing credentials early" in hint for hint in hints)

    def test_root_owned_phase_triggers_special_user_hint(self):
        analysis = PrivAnalyzer().analyze(spec_by_name("passwd"))
        hints = refactoring_hints(analysis)
        # passwd's empty-set phase runs with euid 0 and remains vulnerable.
        assert any("special user" in hint for hint in hints)


class TestCli:
    def test_list(self):
        code, out = run_cli("list")
        assert code == 0
        for name in ("passwd", "ping", "sshd", "su", "thttpd"):
            assert name in out

    def test_analyze_builtin_table(self):
        code, out = run_cli("analyze", "ping")
        assert code == 0
        assert "ping_priv1" in out
        assert "all-clear" in out

    def test_analyze_markdown(self):
        code, out = run_cli("analyze", "ping", "--format", "markdown")
        assert code == 0
        assert out.startswith("### ping")

    def test_analyze_json(self):
        code, out = run_cli("analyze", "ping", "--format", "json")
        assert json.loads(out)["program"] == "ping"

    def test_analyze_csv(self):
        code, out = run_cli("analyze", "ping", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "program"
        assert len(rows) == 4

    def test_analyze_privc_file(self, tmp_path):
        source = """
        void main() {
            priv_raise(CAP_DAC_READ_SEARCH);
            str h = getspnam("user");
            priv_lower(CAP_DAC_READ_SEARCH);
            print_int(strlen(h));
            exit(0);
        }
        """
        path = tmp_path / "agent.privc"
        path.write_text(source)
        code, out = run_cli(
            "analyze", str(path), "--caps", "CapDacReadSearch"
        )
        assert code == 0
        assert "agent_priv1" in out

    def test_analyze_privc_requires_caps(self, tmp_path):
        path = tmp_path / "agent.privc"
        path.write_text("void main() { }")
        with pytest.raises(SystemExit, match="--caps"):
            run_cli("analyze", str(path))

    def test_analyze_unknown_program(self):
        with pytest.raises(SystemExit, match="neither a built-in"):
            run_cli("analyze", "no-such-program")

    def test_analyze_with_optimize_and_callgraph(self):
        code, out = run_cli(
            "analyze", "ping", "--optimize", "--callgraph", "type-matched"
        )
        assert code == 0

    def test_hints(self):
        code, out = run_cli("hints", "su")
        assert code == 0
        assert "Refactoring hints for su" in out

    def test_rosa_query_file_vulnerable_exit_code(self, tmp_path):
        query = """
        < 1 : Process | euid : 0 , ruid : 0 , suid : 0 ,
                        egid : 0 , rgid : 0 , sgid : 0 >
        < 3 : File | name : "f" , perms : rw------- , owner : 0 , group : 0 >
        open(1, 3, r, empty)
        =>* such that 3 in rdfset(1) .
        """
        path = tmp_path / "q.rosa"
        path.write_text(query)
        code, out = run_cli("rosa", str(path))
        assert code == 1  # vulnerable -> nonzero, CI-friendly
        assert "vulnerable" in out

    def test_rosa_query_file_safe_exit_code(self, tmp_path):
        query = """
        < 1 : Process | euid : 5 , ruid : 5 , suid : 5 ,
                        egid : 5 , rgid : 5 , sgid : 5 >
        < 3 : File | name : "f" , perms : --------- , owner : 0 , group : 0 >
        open(1, 3, r, empty)
        =>* such that 3 in rdfset(1) .
        """
        path = tmp_path / "q.rosa"
        path.write_text(query)
        code, out = run_cli("rosa", str(path))
        assert code == 0
        assert "invulnerable" in out

    def test_rosa_missing_file_is_a_one_line_error(self, tmp_path):
        missing = tmp_path / "absent.rosa"
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "rosa", str(missing)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode != 0
        assert "Traceback" not in result.stderr
        assert str(missing) in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_shipped_example_query(self):
        code, out = run_cli("rosa", "examples/queries/figure2.rosa")
        assert code == 1
        assert "chown -> chmod -> open" in out

    def test_table5(self):
        code, out = run_cli("table5")
        assert code == 0
        assert "passwdRef_priv1" in out
        assert "suRef_priv1" in out

    def test_rosa_explain_flag(self, tmp_path):
        query = """
        < 1 : Process | euid : 0 , ruid : 0 , suid : 0 ,
                        egid : 0 , rgid : 0 , sgid : 0 >
        < 3 : File | name : "f" , perms : rw------- , owner : 0 , group : 0 >
        open(1, 3, r, empty)
        =>* such that 3 in rdfset(1) .
        """
        path = tmp_path / "q.rosa"
        path.write_text(query)
        code, out = run_cli("rosa", str(path), "--explain")
        assert code == 1
        assert "step 1: open" in out
        assert "compromised state reached." in out
