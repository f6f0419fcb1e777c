"""Command-line behavior: exit codes, artifacts on disk, subcommand parity."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from newsaudit.cli import (
    EXIT_EMPTY, EXIT_FATAL, EXIT_OK, _config_from, build_parser, main,
)
from newsaudit.orglink import default_gazetteer_dir
from newsaudit.report import AuditConfig, fixture_dir

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
        # an int name, and names with no token, which would match every org
        ({"display_name": "X", "ideology": "left", "self_org_names": [1]}, "self_org_name 1 "),
        ({"display_name": "X", "ideology": "left", "self_org_names": ["--"]}, "'--'"),
        ({"display_name": "X", "ideology": "left", "self_org_names": [""]}, "''"),
        # a bare string would be read as one name per character
        ({"display_name": "X", "ideology": "left", "self_org_names": "AB"}, "must be a list"),
        ({"display_name": "X", "ideology": "left", "self_org_names": []}, "at least one"),
        ({"display_name": 5, "ideology": "left", "self_org_names": ["X"]}, "display_name"),
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


def _with_length(line: str, raw: str) -> str:
    # JSON text json.dumps cannot write: 1e400 reads back as inf
    return re.sub(r'"sentence_char_length": \d+', f'"sentence_char_length": {raw}', line)


def _with_field(key: str, value):
    return lambda line: json.dumps({**json.loads(line), key: value}, sort_keys=True)


# a list would fail as a dict key in the fold, and an int article id in its
# sort; a float or bool index and a numeric string length would pass int()
_MISTYPED = [
    ("speaker_text", ["x"]), ("article_id", ["x"]), ("source", ["x"]), ("article_id", 5),
    ("sentence_index", 1.7), ("sentence_index", True), ("sentence_char_length", "12"),
    ("sentence_char_length", False), ("sentence_text", None), ("org_text", 3),
]


@pytest.mark.parametrize(
    "lineno, edit",
    [
        (2, lambda line: DEEPLY_NESTED),
        (1, lambda line: _with_length(line, "1e400")),
        (1, lambda line: _with_length(line, "9" * 401)),
        (2, lambda line: line + " {}"),
        *[(3, _with_field(key, value)) for key, value in _MISTYPED],
    ],
    ids=["nested", "length-1e400", "length-401-digits", "extra-data",
         *[f"{key}-{json.dumps(value)}" for key, value in _MISTYPED]],
)
def test_deeply_nested_mentions_line_exits_cleanly(tmp_path, caplog, lineno, edit):
    ext = tmp_path / "ext"
    assert main(["extract", "--corpus", CORPUS, "--sources", SOURCES,
                 "--out", str(ext)]) == EXIT_OK
    lines = (ext / "mentions.jsonl").read_text(encoding="utf-8").splitlines()
    lines[lineno - 1] = edit(lines[lineno - 1])
    mentions = tmp_path / "mentions.jsonl"
    mentions.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["stats", "--mentions", str(mentions), "--sources", SOURCES,
                 "--out", str(tmp_path / "out"), "--formats", "json"])
    assert code == EXIT_FATAL
    (record,) = [r for r in caplog.records if r.levelname == "ERROR"]
    assert record.getMessage().startswith(f"{mentions}:{lineno}: malformed mention")


@pytest.mark.parametrize("filename", ["universities.csv", "public_health.csv"])
@pytest.mark.parametrize(
    "row", ["7", "seven,Northfield University", "7,", "0,Zeta University", "7,--"]
)
def test_malformed_gazetteer_row_exits_cleanly(tmp_path, caplog, filename, row):
    _assert_gazetteer_row_rejected(tmp_path, caplog, filename, row)


# A name with no token would link every unmatched org to itself at 100.
@pytest.mark.parametrize("filename", ["federal.txt", "thinktanks.csv"])
@pytest.mark.parametrize("row", ["--", "(&)"])
def test_tokenless_gazetteer_name_exits_cleanly(tmp_path, caplog, filename, row):
    _assert_gazetteer_row_rejected(tmp_path, caplog, filename, row)


def _assert_gazetteer_row_rejected(tmp_path, caplog, filename, row):
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


def _outlets(articles, mentions):
    # the fixture's six outlets: key -> (display name, ideology)
    names = {"nyt": ("New York Times", "left"), "cnn": ("CNN", "left"),
             "huff": ("HuffPost", "left"), "fox": ("Fox News", "right"),
             "nyp": ("New York Post", "right"), "breit": ("Breitbart", "right")}
    return {
        key: {"display_name": name, "ideology": ideology,
              "articles": articles.get(key, 0) if articles is not None else None,
              "mentions": mentions.get(key, 0)}
        for key, (name, ideology) in names.items()
    }


@pytest.fixture
def skip_corpus(tmp_path):
    """Four fixture articles, then one line for each reason a line is skipped."""
    by_id = {}
    with open(CORPUS, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            by_id[record["id"]] = record
    rows = [json.dumps(by_id[i]) for i in ("a01", "a02", "a11", "a20")]
    rows += [
        "{not json",                                           # malformed JSON
        "[1, 2]",                                              # not an object
        json.dumps({"id": "x1", "source": "nyt"}),             # missing fields
        json.dumps({**by_id["a03"], "id": ""}),                # empty id
        json.dumps(by_id["a02"]),                              # duplicate id
        json.dumps({**by_id["a05"], "id": "z1", "source": "zzz"}),  # unconfigured
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_corpus_section_counts_every_skip_reason(tmp_path, skip_corpus):
    out = tmp_path / "audit"
    assert main(["audit", "--corpus", str(skip_corpus), "--sources", SOURCES,
                 "--out", str(out), "--formats", "json"]) == EXIT_OK
    corpus = json.loads((out / "report.json").read_text(encoding="utf-8"))["corpus"]
    assert corpus == {
        "outlets": _outlets({"nyt": 2, "fox": 1, "breit": 1}, {"nyt": 4, "fox": 1}),
        "sentences": 9,
        "skipped_unconfigured_sources": {"zzz": 1},
        "ingest": {
            "total_lines": 10,
            "articles": 5,
            "skipped_malformed": 2,
            "skipped_missing_fields": 2,
            "skipped_duplicate_id": 1,
        },
    }


def test_stats_corpus_section_has_null_counts(tmp_path, skip_corpus):
    audit = tmp_path / "audit"
    assert main(["audit", "--corpus", str(skip_corpus), "--sources", SOURCES,
                 "--out", str(audit), "--formats", "json"]) == EXIT_OK
    out = tmp_path / "stats"
    assert main(["stats", "--mentions", str(audit / "mentions.jsonl"),
                 "--sources", SOURCES, "--out", str(out), "--formats", "json"]) == EXIT_OK
    corpus = json.loads((out / "report.json").read_text(encoding="utf-8"))["corpus"]
    assert corpus == {
        "outlets": _outlets(None, {"nyt": 4, "fox": 1}),
        "sentences": None,
        "skipped_unconfigured_sources": None,
        "ingest": None,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--corpus", CORPUS, "--sources", SOURCES, "--out", "out"],
        ["extract", "--corpus", CORPUS, "--sources", SOURCES, "--out", "out"],
        ["stats", "--mentions", "m.jsonl", "--sources", SOURCES, "--out", "out"],
    ],
    ids=["audit", "extract", "stats"],
)
def test_subcommand_without_flags_uses_audit_config_defaults(argv):
    assert _config_from(build_parser().parse_args(argv)) == AuditConfig()


def test_stats_flags_reach_audit_config():
    args = build_parser().parse_args(
        ["audit", "--corpus", CORPUS, "--sources", SOURCES, "--out", "out",
         "--seed", "3", "--bootstrap", "7", "--bin-width", "5",
         "--gender-mode", "majority", "--no-outlet-suppression"]
    )
    assert _config_from(args) == AuditConfig(
        seed=3, bootstrap_iterations=7, bin_width=5, gender_mode="majority",
        outlet_suppression=False,
    )


def test_cli_import_skips_xml_sax_and_urllib_request():
    # figures escapes SVG text with html.escape; xml.sax.saxutils (and the
    # urllib.request it pulls in) cost tens of milliseconds at start-up
    import newsaudit

    src = str(Path(newsaudit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, newsaudit.cli; "
             "print(sorted(m for m in ('xml.sax.saxutils', 'urllib.request') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_audit_leaves_numpy_ma_unimported(tmp_path):
    # np.quantile imports numpy.ma on first use, about 13 ms of every run;
    # the bootstrap interval is computed without it
    import newsaudit

    src = str(Path(newsaudit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["audit", "--corpus", CORPUS, "--sources", SOURCES, "--out", str(tmp_path)]
    probe = (f"import sys; from newsaudit.cli import main; code = main({argv!r}); "
             "print(code, 'numpy.ma' in sys.modules, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split()[-3:] == ["0", "False", "True"]


def test_figure_text_escape_matches_xml_sax():
    from xml.sax.saxutils import escape

    from newsaudit.figures import _text

    for s in ("a < b & c > d", "\"quoted\" 'single'", "&amp;", "plain", "<&>" * 3, ""):
        assert _text(0, 0, s).endswith(f">{escape(s)}</text>")
