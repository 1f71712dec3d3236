"""Guard rails keeping the documentation in sync with the code.

These tests fail when someone adds a scheduler, generator, preset or
experiment without updating the user-facing inventories — the cheapest
way to keep README/DESIGN trustworthy.
"""

import glob
import importlib
import os
import re

import pytest

import repro.core  # noqa: F401  (registry hook)
from repro.experiments import REGISTRY as EXPERIMENTS
from repro.platform import presets
from repro.schedulers import REGISTRY as SCHEDULERS
from repro.workflows.generators import ALL_GENERATORS

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(name: str) -> str:
    with open(os.path.join(REPO, name), encoding="utf-8") as fh:
        return fh.read()


#: A backticked ``repro.*`` name and what follows it inside the backticks;
#: a name followed by ``/`` or ``-`` is a schema id (``repro.metrics/v1``).
DOTTED_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)([^`]*)`")

#: A backticked file (by extension) or directory (trailing slash) path.
FILE_PATH = re.compile(
    r"`([\w.-]+(?:/[\w.-]+)*\.(?:py|md|sh|json|txt|toml)|[\w-]+/)`"
)


def resolve(dotted: str):
    """Import the longest module prefix of ``dotted``, then walk attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


class TestDesignDoc:
    def test_mismatch_notice_present(self):
        text = read("DESIGN.md")
        assert "mismatch" in text.lower()
        assert "survey" in text.lower()

    def test_every_experiment_listed(self):
        text = read("DESIGN.md")
        for exp_id in EXPERIMENTS:
            assert re.search(exp_id.upper(), text), exp_id

    def test_bench_files_exist_for_every_experiment(self):
        bench_dir = os.path.join(REPO, "benchmarks")
        files = os.listdir(bench_dir)
        for exp_id in EXPERIMENTS:
            assert any(exp_id in f for f in files), exp_id


class TestReadme:
    def test_quickstart_modules_exist(self):
        text = read("README.md")
        assert "run_workflow" in text
        assert "presets" in text

    def test_examples_table_matches_directory(self):
        text = read("README.md")
        examples = [
            f for f in os.listdir(os.path.join(REPO, "examples"))
            if f.endswith(".py")
        ]
        for example in examples:
            assert example in text, f"README misses example {example}"

    def test_docs_directory_files_mentioned(self):
        text = read("README.md")
        for doc in os.listdir(os.path.join(REPO, "docs")):
            assert doc in text, f"README misses docs/{doc}"


class TestNamesInDocs:
    """A doc that names deleted code fails here, not in a reader's hands."""

    def test_every_dotted_repro_name_resolves(self):
        docs = ["README.md", "DESIGN.md"] + sorted(
            os.path.relpath(p, REPO)
            for p in glob.glob(os.path.join(REPO, "docs", "*.md"))
        )
        names, missing = [], []
        for doc in docs:
            for match in DOTTED_NAME.finditer(read(doc)):
                if match.group(2).startswith(("/", "-")):
                    continue  # a schema id, not a Python name
                names.append(match.group(1))
                try:
                    resolve(match.group(1))
                except (ImportError, AttributeError):
                    missing.append(f"{doc}: {match.group(1)}")
        assert names
        assert missing == []

    def test_every_file_path_in_design_exists(self):
        roots = [REPO, os.path.join(REPO, "src"),
                 os.path.join(REPO, "src", "repro")]
        paths = FILE_PATH.findall(read("DESIGN.md"))
        missing = [
            path for path in paths
            if not any(os.path.exists(os.path.join(r, path)) for r in roots)
        ]
        assert paths
        assert missing == []


class TestInventories:
    def test_cli_lists_match_registries(self, capsys):
        from repro.cli import main

        main(["list"])
        out = capsys.readouterr().out
        for name in SCHEDULERS:
            assert name in out
        for name in ALL_GENERATORS:
            assert name in out
        for name in presets.PRESETS:
            assert name in out
        for name in EXPERIMENTS:
            assert name in out

    def test_scheduling_doc_covers_registry(self):
        text = read(os.path.join("docs", "scheduling.md"))
        for name in SCHEDULERS:
            assert f"`{name}`" in text or name in text, name

    def test_experiments_md_generated(self):
        text = read("EXPERIMENTS.md")
        for exp_id in EXPERIMENTS:
            assert exp_id.upper() in text, exp_id
