"""Command-line behavior: exit codes, artifacts on disk, subcommand parity."""

import json
import shutil
from pathlib import Path

import pytest

from newsaudit.cli import EXIT_EMPTY, EXIT_FATAL, EXIT_OK, main
from newsaudit.orglink import default_gazetteer_dir
from newsaudit.report import fixture_dir

CORPUS = str(fixture_dir() / "corpus.jsonl")
SOURCES = str(fixture_dir() / "sources.json")


def test_audit_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["audit", "--corpus", CORPUS, "--sources", SOURCES, "--out", str(out)])
    assert code == EXIT_OK
    line = capsys.readouterr().out.strip()
    assert "mentions=32" in line and "unique_experts=30" in line
    assert (out / "report.json").exists()
    assert (out / "mentions.jsonl").exists()
    assert len(list(out.glob("*.csv"))) == 12
    assert len(list(out.glob("*.svg"))) == 5


def test_audit_json_only(tmp_path):
    out = tmp_path / "run"
    code = main(["audit", "--corpus", CORPUS, "--sources", SOURCES,
                 "--out", str(out), "--formats", "json"])
    assert code == EXIT_OK
    assert list(out.glob("*.csv")) == []
    assert (out / "report.json").exists()


def test_audit_rejects_unknown_format(tmp_path):
    code = main(["audit", "--corpus", CORPUS, "--sources", SOURCES,
                 "--out", str(tmp_path / "x"), "--formats", "json,docx"])
    assert code == EXIT_FATAL


def test_audit_missing_corpus_is_fatal(tmp_path):
    code = main(["audit", "--corpus", str(tmp_path / "absent.jsonl"),
                 "--sources", SOURCES, "--out", str(tmp_path / "x")])
    assert code == EXIT_FATAL


def test_audit_empty_corpus_exit_code(tmp_path):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("", encoding="utf-8")
    code = main(["audit", "--corpus", str(corpus), "--sources", SOURCES,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_EMPTY
    # the empty report is still written for inspection
    assert (tmp_path / "out" / "report.json").exists()


def test_extract_writes_mentions_only(tmp_path, capsys):
    out = tmp_path / "ext"
    code = main(["extract", "--corpus", CORPUS, "--sources", SOURCES, "--out", str(out)])
    assert code == EXIT_OK
    assert "mentions=32" in capsys.readouterr().out
    assert (out / "mentions.jsonl").exists()
    assert not (out / "report.json").exists()
    with (out / "mentions.jsonl").open(encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 32


def test_stats_rebuilds_the_same_tables(tmp_path):
    full = tmp_path / "full"
    assert main(["audit", "--corpus", CORPUS, "--sources", SOURCES,
                 "--out", str(full), "--formats", "json"]) == EXIT_OK
    rebuilt = tmp_path / "rebuilt"
    assert main(["stats", "--mentions", str(full / "mentions.jsonl"),
                 "--sources", SOURCES, "--out", str(rebuilt),
                 "--formats", "json"]) == EXIT_OK
    a = json.loads((full / "report.json").read_text(encoding="utf-8"))
    b = json.loads((rebuilt / "report.json").read_text(encoding="utf-8"))
    # corpus provenance (ingest counts) is unavailable from a mentions file
    a.pop("corpus"), b.pop("corpus")
    assert a == b


def test_paper_faithful_equals_no_suppression(tmp_path):
    flags = (["--no-outlet-suppression"], ["--paper-faithful"])
    outs = []
    for i, extra in enumerate(flags):
        out = tmp_path / f"run{i}"
        assert main(["audit", "--corpus", CORPUS, "--sources", SOURCES,
                     "--out", str(out), "--formats", "json"] + extra) == EXIT_OK
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]
    data = json.loads(outs[0])
    assert data["totals"]["mentions"] == 33
    assert data["config"]["outlet_suppression"] is False


def test_audit_reruns_are_byte_identical(tmp_path):
    blobs = []
    for i in range(2):
        out = tmp_path / f"run{i}"
        assert main(["audit", "--corpus", CORPUS, "--sources", SOURCES,
                     "--out", str(out)]) == EXIT_OK
        blobs.append((out / "report.json").read_bytes()
                     + (out / "mentions.jsonl").read_bytes())
    assert blobs[0] == blobs[1]


def test_sample_subcommand(tmp_path, capsys):
    ext = tmp_path / "ext"
    assert main(["extract", "--corpus", CORPUS, "--sources", SOURCES,
                 "--out", str(ext)]) == EXIT_OK
    sheet = tmp_path / "sheet.csv"
    code = main(["sample", "--mentions", str(ext / "mentions.jsonl"),
                 "--n", "5", "--seed", "3", "--out", str(sheet)])
    assert code == EXIT_OK
    assert "sheet=" in capsys.readouterr().out
    assert sheet.exists()


def test_sample_oversample_is_fatal(tmp_path):
    ext = tmp_path / "ext"
    assert main(["extract", "--corpus", CORPUS, "--sources", SOURCES,
                 "--out", str(ext)]) == EXIT_OK
    code = main(["sample", "--mentions", str(ext / "mentions.jsonl"),
                 "--n", "400", "--seed", "3", "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_FATAL


def test_seed_changes_bootstrap_but_not_counts(tmp_path):
    reports = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        assert main(["audit", "--corpus", CORPUS, "--sources", SOURCES,
                     "--out", str(out), "--formats", "json",
                     "--seed", seed]) == EXIT_OK
        reports.append(json.loads((out / "report.json").read_text(encoding="utf-8")))
    a, b = reports
    assert a["totals"]["mentions"] == b["totals"]["mentions"]
    assert (a["totals"]["women_men"]["bootstrap"]["mean"]
            != b["totals"]["women_men"]["bootstrap"]["mean"])


@pytest.mark.parametrize(
    "entry, needle",
    [
        ({"ideology": "left", "self_org_names": ["X"]}, "'display_name'"),
        ({"display_name": "X", "self_org_names": ["X"]}, "'ideology'"),
        ({"display_name": "X", "ideology": "left"}, "'self_org_names'"),
        ("not an object", "must be an object"),
    ],
)
def test_malformed_sources_entry_exits_cleanly(tmp_path, caplog, entry, needle):
    sources = json.loads(Path(SOURCES).read_text(encoding="utf-8"))
    sources["broken"] = entry
    path = tmp_path / "sources.json"
    path.write_text(json.dumps(sources), encoding="utf-8")
    code = main(["audit", "--corpus", CORPUS, "--sources", str(path),
                 "--out", str(tmp_path / "out"), "--formats", "json"])
    assert code == EXIT_FATAL
    message = caplog.records[-1].getMessage()
    assert str(path) in message and "'broken'" in message and needle in message


@pytest.mark.parametrize("field", ["article_id", "speaker_text", "detectors"])
def test_mentions_line_missing_field_exits_cleanly(tmp_path, caplog, field):
    ext = tmp_path / "ext"
    assert main(["extract", "--corpus", CORPUS, "--sources", SOURCES,
                 "--out", str(ext)]) == EXIT_OK
    lines = (ext / "mentions.jsonl").read_text(encoding="utf-8").splitlines()
    bad = json.loads(lines[2])
    del bad[field]
    lines[2] = json.dumps(bad)
    mentions = tmp_path / "mentions.jsonl"
    mentions.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["stats", "--mentions", str(mentions), "--sources", SOURCES,
                 "--out", str(tmp_path / "out"), "--formats", "json"])
    assert code == EXIT_FATAL
    message = caplog.records[-1].getMessage()
    assert f"{mentions}:3:" in message and repr(field) in message


def test_unconfigured_source_in_stats_exits_cleanly(tmp_path, caplog):
    # a mention of an outlet sources.json lacks would count in the totals
    # but in no outlet, so the file is rejected at that line
    ext = tmp_path / "ext"
    assert main(["extract", "--corpus", CORPUS, "--sources", SOURCES,
                 "--out", str(ext)]) == EXIT_OK
    lines = (ext / "mentions.jsonl").read_text(encoding="utf-8").splitlines()
    bad = json.loads(lines[0])
    bad["source"] = "zzz"
    lines[0] = json.dumps(bad)
    mentions = tmp_path / "mentions.jsonl"
    mentions.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["stats", "--mentions", str(mentions), "--sources", SOURCES,
                 "--out", str(out), "--formats", "json"])
    assert code == EXIT_FATAL
    (record,) = [r for r in caplog.records if r.levelname == "ERROR"]
    assert record.getMessage() == f"{mentions}:1: source 'zzz' is not in the outlet config"
    assert not (out / "report.json").exists()


def test_mentions_line_not_an_object_exits_cleanly(tmp_path, caplog):
    mentions = tmp_path / "mentions.jsonl"
    mentions.write_text("[1, 2]\n", encoding="utf-8")
    code = main(["stats", "--mentions", str(mentions), "--sources", SOURCES,
                 "--out", str(tmp_path / "out"), "--formats", "json"])
    assert code == EXIT_FATAL
    assert f"{mentions}:1:" in caplog.records[-1].getMessage()


# 200,000 open brackets: json.loads raises RecursionError, not JSONDecodeError
DEEPLY_NESTED = "[" * 200_000


def test_deeply_nested_corpus_line_is_skipped(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        Path(CORPUS).read_text(encoding="utf-8") + DEEPLY_NESTED + "\n", encoding="utf-8"
    )
    out = tmp_path / "out"
    code = main(["audit", "--corpus", str(corpus), "--sources", SOURCES,
                 "--out", str(out), "--formats", "json"])
    assert code == EXIT_OK
    ingest = json.loads((out / "report.json").read_text(encoding="utf-8"))["corpus"]["ingest"]
    assert ingest["articles"] == 20 and ingest["skipped_malformed"] == 1


@pytest.mark.parametrize(
    "text", [DEEPLY_NESTED, '{"nyt": ' + "9" * 5000 + "}"], ids=["nested", "long-int"]
)
def test_unparseable_sources_exits_cleanly(tmp_path, caplog, text):
    path = tmp_path / "sources.json"
    path.write_text(text, encoding="utf-8")
    code = main(["audit", "--corpus", CORPUS, "--sources", str(path),
                 "--out", str(tmp_path / "out"), "--formats", "json"])
    assert code == EXIT_FATAL
    (record,) = [r for r in caplog.records if r.levelname == "ERROR"]
    message = record.getMessage()
    assert message.startswith(f"{path}: ") and "\n" not in message


def test_bad_ideology_names_the_sources_file(tmp_path, caplog):
    config = json.loads(Path(SOURCES).read_text(encoding="utf-8"))
    config["nyt"]["ideology"] = "center"
    path = tmp_path / "sources.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["audit", "--corpus", CORPUS, "--sources", str(path),
                 "--out", str(tmp_path / "out"), "--formats", "json"])
    assert code == EXIT_FATAL
    (record,) = [r for r in caplog.records if r.levelname == "ERROR"]
    assert record.getMessage().startswith(f"{path}: outlet 'nyt': ideology must be")


def test_deeply_nested_mentions_line_exits_cleanly(tmp_path, caplog):
    ext = tmp_path / "ext"
    assert main(["extract", "--corpus", CORPUS, "--sources", SOURCES,
                 "--out", str(ext)]) == EXIT_OK
    lines = (ext / "mentions.jsonl").read_text(encoding="utf-8").splitlines()
    lines[1] = DEEPLY_NESTED
    mentions = tmp_path / "mentions.jsonl"
    mentions.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["stats", "--mentions", str(mentions), "--sources", SOURCES,
                 "--out", str(tmp_path / "out"), "--formats", "json"])
    assert code == EXIT_FATAL
    message = caplog.records[-1].getMessage()
    assert message.startswith(f"{mentions}:2: malformed mention")


@pytest.mark.parametrize("filename", ["universities.csv", "public_health.csv"])
@pytest.mark.parametrize(
    "row", ["7", "seven,Northfield University", "7,", "0,Zeta University"]
)
def test_malformed_gazetteer_row_exits_cleanly(tmp_path, caplog, filename, row):
    gaz = tmp_path / "gazetteers"
    shutil.copytree(default_gazetteer_dir(), gaz)
    with (gaz / filename).open("a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    code = main(["audit", "--corpus", CORPUS, "--sources", SOURCES,
                 "--gazetteers", str(gaz), "--out", str(tmp_path / "out"),
                 "--formats", "json"])
    assert code == EXIT_FATAL
    message = caplog.records[-1].getMessage()
    assert str(gaz / filename) in message and repr(row) in message
    assert "\n" not in message
