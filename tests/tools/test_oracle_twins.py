"""Twin contracts whose reference lives in ``tests/oracles/``.

A reference that only tests run is named
``tests.oracles.<module>:<qualname>``.  RL101/RL104 must resolve such
specs whether ``tests/`` is linted or not (the oracle is read from disk
when it is not), and RL305 must judge the pair whenever ``tests/`` is
linted.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from tools.repro_lint import lint_source
from tools.repro_lint.checkers import twin_contracts as tc
from tools.repro_lint.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[2]

ORACLE_PLAN_FILE = (
    "    def plan_file(\n"
    "        self, file: str, sub: Trace, drt: DRT\n"
    "    )"
)


def oracle_specs():
    """Every ``@twin_of`` reference in ``src/`` that names an oracle."""
    specs = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        posix = path.relative_to(REPO_ROOT).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for info in tc.extract_functions(tree, posix, posix, False):
            if info.contract and info.contract.reference.startswith("tests.oracles."):
                specs.append(info.contract.reference)
    return specs


@pytest.fixture
def planner_tree(tmp_path, monkeypatch):
    """A tree holding the real planner twin and its oracle; returns a
    writer for the oracle's source.  The working directory is the tree,
    so the linter's disk fallback reads this oracle."""
    twin = tmp_path / "src" / "repro" / "core" / "pipeline.py"
    twin.parent.mkdir(parents=True)
    twin.write_text((REPO_ROOT / "src/repro/core/pipeline.py").read_text())
    oracle = tmp_path / "tests" / "oracles" / "pipeline.py"
    oracle.parent.mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    source = (REPO_ROOT / "tests/oracles/pipeline.py").read_text()
    assert ORACLE_PLAN_FILE in source

    def write(replacement=ORACLE_PLAN_FILE):
        oracle.write_text(source.replace(ORACLE_PLAN_FILE, replacement))

    return write


class TestOracleResolution:
    def test_oracle_kwarg_fires_rl101(self, planner_tree, capsys):
        planner_tree()
        assert cli_main(["--select", "RL101,RL104", "src"]) == 0
        assert cli_main(["--select", "RL101,RL104", "src", "tests"]) == 0
        capsys.readouterr()
        planner_tree(ORACLE_PLAN_FILE.replace("drt: DRT", "drt: DRT, fancy=False"))
        for paths in (["src"], ["src", "tests"]):
            assert cli_main(["--select", "RL101", *paths]) == 1
            out = capsys.readouterr().out
            assert "RL101" in out and "'fancy'" in out

    def test_missing_oracle_function_fires_rl104(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        template = (
            "from repro.contracts import twin_of\n\n"
            "@twin_of('tests.oracles.pipeline:{}')\n"
            "def plan_file_many(self, file, sub, drt):\n"
            "    return 0\n"
        )
        path = "src/repro/core/example.py"
        present = lint_source(template.format("RecordPipeline.plan_file"), path)
        assert "RL104" not in {d.rule for d in present}
        missing = lint_source(template.format("RecordPipeline.no_such"), path)
        assert "RL104" in {d.rule for d in missing}

    def test_src_alone_is_clean_and_checks_the_oracle_pairs(self):
        assert len(oracle_specs()) == 3
        result = subprocess.run(
            [sys.executable, "-m", "tools.repro_lint", "src"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestOracleEffectParity:
    TWIN = (
        "from repro.contracts import twin_of\n\n"
        "@twin_of('tests.oracles.example:base')\n"
        "def base_many(a):\n"
        "    print(a)\n"
        "    return a\n"
    )
    ORACLE = "def base(a):\n    return a\n"

    def test_rl305_sees_the_oracle_when_tests_are_linted(
        self, tmp_path, monkeypatch, capsys
    ):
        twin = tmp_path / "src" / "repro" / "core" / "example.py"
        twin.parent.mkdir(parents=True)
        twin.write_text(self.TWIN)
        oracle = tmp_path / "tests" / "oracles" / "example.py"
        oracle.parent.mkdir(parents=True)
        oracle.write_text(self.ORACLE)
        monkeypatch.chdir(tmp_path)
        assert cli_main(["--select", "RL305", "src", "tests"]) == 1
        assert "RL305" in capsys.readouterr().out
        # without tests/ the oracle has no graph node, so there is no pair
        assert cli_main(["--select", "RL305", "src"]) == 0
