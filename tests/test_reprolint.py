"""Tests for the reprolint static-analysis tool.

Three layers:

* **fixtures** — every file under ``tests/lint_fixtures/`` encodes its own
  expectations: a ``# expect: CODE`` trailing comment marks each line that
  must produce exactly that diagnostic, and files without markers must lint
  clean.  A ``# lint-as: <path>`` first line lints the file under a virtual
  path (rules like REP102 are scoped to simulation code).  A *subdirectory*
  of fixtures lints as one group, so cross-module rules (REP311 dataflow)
  see imports resolve.
* **framework** — suppression comments, unused-disable audit, JSON/SARIF
  schemas, the baseline ratchet, exit codes, the rule registry.
* **self-check** — the shipped tree (``src``, ``tools``, ``examples``,
  ``benchmarks``) must be reprolint-clean; this is the tier-1 enforcement
  the CI lint job mirrors.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tools.reprolint import all_rules, lint_paths, lint_sources  # noqa: E402
from tools.reprolint.__main__ import main  # noqa: E402
from tools.reprolint.output import (  # noqa: E402
    compare_to_baseline,
    findings_to_sarif,
    load_baseline,
    render_baseline,
)

FIXTURES = ROOT / "tests" / "lint_fixtures"
_EXPECT = re.compile(r"#\s*expect:\s*(?P<code>REP\d+)")
_LINT_AS = re.compile(r"#\s*lint-as:\s*(?P<path>\S+)")


def _fixture_cases():
    return sorted(FIXTURES.glob("*.py"), key=lambda p: p.name)


def _fixture_group_cases():
    return sorted(
        (p for p in FIXTURES.iterdir() if p.is_dir() and list(p.glob("*.py"))),
        key=lambda p: p.name,
    )


def _expected_findings(text: str):
    expected = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _EXPECT.finditer(line):
            expected.append((lineno, match.group("code")))
    return sorted(expected)


def _virtual_path(path: Path, text: str) -> str:
    match = _LINT_AS.search(text.splitlines()[0]) if text else None
    return match.group("path") if match else str(path)


def _lint_fixture(path: Path):
    text = path.read_text()
    return lint_sources({_virtual_path(path, text): text})


@pytest.mark.parametrize("fixture", _fixture_cases(), ids=lambda p: p.name)
def test_fixture_expectations(fixture):
    """Each marked line produces its diagnostic; unmarked fixtures are clean."""
    text = fixture.read_text()
    expected = _expected_findings(text)
    actual = sorted((f.line, f.code) for f in _lint_fixture(fixture))
    assert actual == expected, (
        f"{fixture.name}: expected {expected}, got {actual}"
    )


@pytest.mark.parametrize("group", _fixture_group_cases(), ids=lambda p: p.name)
def test_fixture_group_expectations(group):
    """Subdirectory fixtures lint together, so cross-module rules fire."""
    sources = {}
    expected = []
    for path in sorted(group.glob("*.py")):
        text = path.read_text()
        virtual = _virtual_path(path, text)
        sources[virtual] = text
        expected.extend(
            (virtual, line, code) for line, code in _expected_findings(text)
        )
    findings = lint_sources(sources)
    actual = sorted((f.path, f.line, f.code) for f in findings)
    assert actual == sorted(expected), (
        f"{group.name}: expected {sorted(expected)}, got {actual}"
    )


def test_every_rule_family_has_a_bad_fixture():
    """All five families are exercised by at least one deliberate breakage."""
    covered = set()
    for fixture in FIXTURES.rglob("*.py"):
        for _, code in _expected_findings(fixture.read_text()):
            covered.add(code[:4])  # REP1 .. REP6
    assert {"REP1", "REP2", "REP3", "REP4", "REP6"} <= covered


# ----------------------------------------------------------- suppressions
def test_trailing_suppression_silences_only_its_line():
    source = (
        "import numpy as np\n"
        "a = np.random.default_rng()  # reprolint: disable=REP101\n"
        "b = np.random.default_rng()\n"
    )
    findings = lint_sources({"src/repro/x.py": source})
    assert [(f.line, f.code) for f in findings] == [(3, "REP101")]


def test_standalone_suppression_covers_next_line():
    source = (
        "import numpy as np\n"
        "# reprolint: disable=REP101 -- justified in the fixture\n"
        "a = np.random.default_rng()\n"
    )
    assert lint_sources({"src/repro/x.py": source}) == []


def test_suppression_inside_string_literal_is_ignored():
    source = (
        "import numpy as np\n"
        "note = '# reprolint: disable=REP101'\n"
        "a = np.random.default_rng()\n"
    )
    findings = lint_sources({"src/repro/x.py": source})
    assert [(f.line, f.code) for f in findings] == [(3, "REP101")]


def test_unused_disable_reported_as_rep002():
    source = "x = 1  # reprolint: disable=REP101\n"
    findings = lint_sources({"src/repro/x.py": source}, report_unused_disables=True)
    assert [(f.line, f.code) for f in findings] == [(1, "REP002")]
    # A directive that still suppresses something is not reported.
    used = (
        "import numpy as np\n"
        "a = np.random.default_rng()  # reprolint: disable=REP101\n"
    )
    assert lint_sources({"src/repro/x.py": used}, report_unused_disables=True) == []


def test_syntax_error_reported_as_rep001():
    findings = lint_sources({"src/repro/broken.py": "def f(:\n"})
    assert len(findings) == 1
    assert findings[0].code == "REP001"


# ------------------------------------------------------------ JSON output
def test_json_output_schema(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
    status = main(["--format", "json", str(bad)])
    payload = json.loads(capsys.readouterr().out)
    assert status == 1
    assert payload["version"] == 1
    assert payload["total"] == 1
    assert payload["counts"] == {"REP101": 1}
    (finding,) = payload["findings"]
    assert set(finding) == {"path", "line", "col", "code", "message"}
    assert finding["line"] == 2
    assert finding["code"] == "REP101"


# ----------------------------------------------------------- SARIF output
def test_sarif_output_shape(tmp_path, capsys):
    """The emitted SARIF is the stable 2.1.0 subset code scanning ingests."""
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
    out = tmp_path / "out.sarif"
    status = main(["--format", "sarif", "--output", str(out), str(bad)])
    capsys.readouterr()
    assert status == 1
    log = json.loads(out.read_text())
    assert log["version"] == "2.1.0"
    assert log["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = log["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "reprolint"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert rule_ids == sorted(all_rules())
    (result,) = run["results"]
    assert result["ruleId"] == "REP101"
    assert rule_ids[result["ruleIndex"]] == "REP101"
    assert result["level"] == "error"
    assert result["message"]["text"]
    (location,) = result["locations"]
    region = location["physicalLocation"]["region"]
    assert region["startLine"] == 2
    assert region["startColumn"] >= 1


def test_sarif_rule_catalogue_is_emitted_even_when_clean():
    log = findings_to_sarif([])
    assert log["runs"][0]["results"] == []
    assert log["runs"][0]["tool"]["driver"]["rules"]


# -------------------------------------------------------------- baseline
_BAD_SOURCE = "import numpy as np\nrng = np.random.default_rng()\n"


def test_baseline_absorbs_known_findings(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(_BAD_SOURCE)
    baseline = tmp_path / "baseline.json"
    assert main(["--baseline", str(baseline), "--update-baseline", str(bad)]) == 0
    capsys.readouterr()
    entries = load_baseline(baseline)
    assert len(entries) == 1 and entries[0][1] == "REP101"
    # Same tree, same baseline: clean exit, finding suppressed.
    assert main(["--baseline", str(baseline), str(bad)]) == 0
    captured = capsys.readouterr()
    assert "REP101" not in captured.out
    assert "baselined" in captured.err


def test_new_finding_fails_despite_baseline(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(_BAD_SOURCE)
    baseline = tmp_path / "baseline.json"
    assert main(["--baseline", str(baseline), "--update-baseline", str(bad)]) == 0
    bad.write_text(_BAD_SOURCE + "rng2 = np.random.default_rng()\n")
    assert main(["--baseline", str(baseline), str(bad)]) == 1
    captured = capsys.readouterr()
    assert "REP101" in captured.out  # only the new finding is reported


def test_fixed_finding_makes_baseline_stale(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(_BAD_SOURCE)
    baseline = tmp_path / "baseline.json"
    assert main(["--baseline", str(baseline), "--update-baseline", str(bad)]) == 0
    bad.write_text("x = 1\n")  # the debt is paid
    assert main(["--baseline", str(baseline), str(bad)]) == 1
    captured = capsys.readouterr()
    assert "stale baseline entry" in captured.err
    # The ratchet: --update-baseline shrinks it back to clean.
    assert main(["--baseline", str(baseline), "--update-baseline", str(bad)]) == 0
    capsys.readouterr()
    assert load_baseline(baseline) == []
    assert main(["--baseline", str(baseline), str(bad)]) == 0
    capsys.readouterr()


def test_baseline_multiset_semantics():
    """A baseline entry absorbs one occurrence; a duplicate is new debt."""
    from tools.reprolint.core import Finding

    finding = Finding(path="a.py", line=1, col=0, code="REP101", message="m")
    twin = Finding(path="a.py", line=9, col=0, code="REP101", message="m")
    baseline = load_baseline_text(render_baseline([finding]))
    comparison = compare_to_baseline([finding, twin], baseline)
    assert len(comparison.matched) == 1
    assert len(comparison.new) == 1
    assert comparison.stale == []


def load_baseline_text(text: str):
    payload = json.loads(text)
    return [(e["path"], e["code"], e["message"]) for e in payload["findings"]]


def test_malformed_baseline_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("x = 1\n")
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{\"version\": 99}")
    assert main(["--baseline", str(baseline), str(bad)]) == 2
    capsys.readouterr()


def test_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main([str(clean)]) == 0
    assert main([str(tmp_path / "missing_dir")]) == 2
    capsys.readouterr()


def test_select_filters_by_family(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "rng = np.random.default_rng()\n"
        "def f(a_ns, b_s):\n"
        "    return a_ns + b_s\n"
    )
    assert main(["--select", "REP3", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "REP301" in out and "REP101" not in out


def test_rule_registry_codes_are_wellformed():
    rules = all_rules()
    assert rules, "no rules registered"
    for code, description in rules.items():
        assert re.fullmatch(r"REP\d{3}", code)
        assert description
    families = {code[:4] for code in rules}
    assert families == {"REP0", "REP1", "REP2", "REP3", "REP4", "REP6"}
    assert len(rules) == 17


def test_list_rules_prints_the_catalogue(capsys):
    assert main(["--list-rules"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == sorted(all_rules())


# -------------------------------------------------------------- self-check
HOT_FILES = (
    "src/repro/core/engine.py",
    "src/repro/network/router.py",
    "src/repro/stats/collector.py",
)

SELF_CHECK_PATHS = ("src", "tools", "examples", "benchmarks")


def test_hot_markers_still_present():
    """The per-event code paths stay under REP4xx enforcement.

    The tree-wide self-check below would pass trivially if someone removed
    the ``# reprolint: hot`` markers instead of fixing a finding; pin the
    markers to the three files whose hot blocks this PR de-duplicated
    (router grant-stage stats calls, collector ejection-hook hoists).
    """
    for rel in HOT_FILES:
        text = (ROOT / rel).read_text()
        assert "# reprolint: hot" in text, f"{rel} lost its hot markers"


def test_boundary_markers_still_present():
    """The worker-boundary contracts stay under REP603 enforcement."""
    assert "# reprolint: boundary" in (
        ROOT / "src/repro/experiments/sweep.py"
    ).read_text()
    assert "# reprolint: boundary=TraceError" in (
        ROOT / "src/repro/traces/format.py"
    ).read_text()


def test_shipped_tree_is_lint_clean():
    """The enforcement test: the default lint targets carry no findings,
    and no committed suppression is stale."""
    findings = lint_paths(
        [str(ROOT / base) for base in SELF_CHECK_PATHS],
        report_unused_disables=True,
    )
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_entry_point_runs_clean():
    """The exact CI invocation exits 0 on the shipped tree."""
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "tools.reprolint",
            *SELF_CHECK_PATHS,
            "--baseline",
            ".reprolint-baseline.json",
            "--report-unused-disables",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
