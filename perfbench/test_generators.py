"""Self-tests for the benchmark's input generators.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_generators.py
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import generators  # noqa: E402
from newsaudit.orglink import MATCH_THRESHOLD, token_set_similarity  # noqa: E402

INPUT_FILE = {
    "planted": "corpus.jsonl",
    "distinct-experts": "corpus.jsonl",
    "long-bodies": "corpus.jsonl",
    "stats-rebuild": "mentions.jsonl",
}


def _files(directory: Path) -> "dict[str, bytes]":
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(generators.GENERATORS))
def test_same_seed_same_bytes_other_seed_other_input(workload, tmp_path):
    make = generators.GENERATORS[workload]
    make(tmp_path / "a", 7)
    make(tmp_path / "b", 7)
    make(tmp_path / "c", 8)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    name = INPUT_FILE[workload]
    assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()


def test_distinct_expert_names_stay_below_match_threshold(tmp_path):
    truth = generators.make_distinct_experts(tmp_path, 3)
    said = re.compile(r'," said ([A-Z][a-z]+ [A-Z][a-z]+) of ')
    names = []
    for line in (tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines():
        names += said.findall(json.loads(line)["body"])
    assert len(names) == len(set(names)) == truth["speakers"] == truth["mentions"]
    close = [
        (a, b)
        for a, b in itertools.combinations(names, 2)
        if token_set_similarity(a, b) >= MATCH_THRESHOLD
    ]
    assert close == []


def test_distinct_expert_orgs_cover_every_kind(tmp_path):
    truth = generators.make_distinct_experts(tmp_path, 4)
    # public_health adds only the few schools that are not also universities
    assert set(truth["org_kinds"]) >= {
        "universities", "federal", "thinktanks", "variant", "unlinkable"
    }
    assert truth["distinct_orgs"] == truth["mentions"]


def test_long_bodies_hold_the_planted_sentence_count(tmp_path):
    truth = generators.make_long_bodies(tmp_path, 5)
    bodies = [
        json.loads(line)["body"]
        for line in (tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert [len(b) for b in bodies] == truth["body_chars"]
    assert all(n >= generators.LONG_BODY_CHARS for n in truth["body_chars"])
    assert sum(b.count('," said ') for b in bodies) == truth["mentions"]
