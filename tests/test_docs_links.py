"""Docs sanity: the README exists and every relative Markdown link resolves.

Uses the same checker as the CI docs job (``tools/check_links.py``), so a
doc rename that breaks a link fails tier-1 locally before it fails CI.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location("check_links", ROOT / "tools" / "check_links.py")
check_links = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_links)


def test_readme_and_docs_exist():
    assert (ROOT / "README.md").is_file()
    for name in ("architecture.md", "scenarios.md", "sweep.md", "results.md"):
        assert (ROOT / "docs" / name).is_file(), name


def test_all_relative_markdown_links_resolve():
    assert check_links.broken_links(ROOT) == []


@pytest.mark.parametrize(
    "heading,slug",
    [
        ("Selecting the fidelity", "selecting-the-fidelity"),
        ("REP1xx — determinism", "rep1xx--determinism"),
        ("`sim_digest` pins", "sim_digest-pins"),
        ("[Figs 4–13](results.md) (Table I/II)", "figs-413-table-iii"),
        ("1.07x speedup?", "107x-speedup"),
    ],
)
def test_github_slug(heading, slug):
    assert check_links.github_slug(heading) == slug


def test_heading_anchors_are_checked(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "rules.md").write_text(
        "# Rules\n\n## REP1xx — determinism\n\n## Notes\n\n## Notes\n\n"
        "```\n# not a heading\n```\n"
    )
    (tmp_path / "README.md").write_text(
        "[ok](docs/rules.md#rep1xx--determinism) [repeat](docs/rules.md#notes-1)\n"
        "[gone](docs/rules.md#rep5xx--backend-parity) [code](docs/rules.md#not-a-heading)\n"
    )
    (docs / "self.md").write_text("## Here\n\n[up](#here) [nowhere](#there)\n")
    assert check_links.broken_links(tmp_path) == [
        "README.md: broken anchor -> docs/rules.md#rep5xx--backend-parity",
        "README.md: broken anchor -> docs/rules.md#not-a-heading",
        "docs/self.md: broken anchor -> #there",
    ]
