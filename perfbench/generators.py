"""Seeded input generators for the benchmark workloads.

Each ``make_*`` function writes a workload's inputs into a directory and
returns a truth dict holding the counts the output checks compare with.
The same seed always writes the same bytes.  Inputs depend only on the
seed and on the data files shipped with the package (gazetteers and the
first-name dictionary), never on how the pipeline behaves, so a change to
the pipeline cannot change what it is measured on.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

from newsaudit import synth
from newsaudit.orglink import default_gazetteer_dir, token_set_similarity

#: Articles in the ``planted`` corpus.  Two quotes each, drawn from the
#: planted generator's 336 names, so about 280 distinct speakers.
PLANTED_ARTICLES = 300
#: Speakers (one quote each) in the ``distinct-experts`` corpus.
DISTINCT_QUOTES = 250
#: Articles, approximate body size and expert quotes per body in ``long-bodies``.
LONG_ARTICLES = 3
LONG_BODY_CHARS = 200_000
LONG_EXPERT_QUOTES = 12
#: Mentions, articles' worth of mentions and distinct speakers in ``stats-rebuild``.
STATS_MENTIONS = 50_000
STATS_SPEAKERS = 40

_SYLLABLES = (
    "ba", "ce", "di", "fo", "gu", "ha", "ke", "li", "mo", "nu", "pa", "re",
    "si", "to", "vu", "wa", "ze", "bro", "cla", "dre", "fli", "gro", "kra",
    "ple", "stu", "tra", "vin", "mar", "ost", "ulk", "ern", "yas",
)

_UNLINKABLE_PLACES = (
    "Northfield", "Carrow", "Eastmere", "Halvard", "Brindle", "Ostrava",
    "Kelmscott", "Varden", "Lowmoor", "Quillan", "Redhaven", "Saltmarsh",
    "Tyneford", "Wexcombe", "Yarrow", "Ashgrove", "Millbrook", "Fenhollow",
)
_UNLINKABLE_FIELDS = (
    "Coastal Ecology", "Soil Chemistry", "Rural Transport", "Urban Acoustics",
    "Glacier Studies", "Textile Engineering", "Maritime Law", "Desert Botany",
)
_UNLINKABLE_HEADS = ("Institute for", "Center for", "College of", "School of")

#: Quotes in long bodies: statements with no reporting verb and no name,
#: so the detectors scan them and find no expert.
_BARE_QUOTES = synth.QUOTE_PHRASES + (
    "The river crested just after dawn",
    "Nobody expected the storm to stall",
    "Every shelter in the county is full",
    "Power returned to most homes by noon",
)


def _write_sources(out: Path) -> None:
    sources = {
        key: {"display_name": display, "ideology": ideology, "self_org_names": list(names)}
        for key, (display, ideology, names) in synth.OUTLETS.items()
    }
    (out / "sources.json").write_text(json.dumps(sources, indent=2) + "\n", encoding="utf-8")


def _write_truth(out: Path, truth: dict) -> dict:
    (out / "truth.json").write_text(
        json.dumps(truth, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return truth


def _article(i: int, prefix: str, body: str) -> str:
    outlets = list(synth.OUTLETS)
    return json.dumps(
        {
            "id": f"{prefix}{i:05d}",
            "source": outlets[i % len(outlets)],
            "published_at": f"2020-04-{i // 1440 % 28 + 1:02d}T{i // 60 % 24:02d}:{i % 60:02d}:00Z",
            "title": f"Briefing {i}",
            "body": body,
        }
    ) + "\n"


def _csv_rows(path: Path) -> "list[list[str]]":
    """Data rows of a gazetteer CSV: comments and the header row skipped."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    return rows[1:]


def _csv_names(path: Path, column: int) -> list[str]:
    return [r[column].strip() for r in _csv_rows(path) if r[column].strip()]


def _text_names(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [ln.strip() for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]


def gazetteer_names() -> "dict[str, list[str]]":
    """Names in each shipped gazetteer file, in file order."""
    d = default_gazetteer_dir()
    return {
        "universities": _csv_names(d / "universities.csv", 1),
        "public_health": _csv_names(d / "public_health.csv", 1),
        "federal": _text_names(d / "federal.txt"),
        "thinktanks": _csv_names(d / "thinktanks.csv", 0),
    }


def _plain(name: str) -> bool:
    # Names the quote pattern can carry unchanged: no punctuation that
    # ends a sentence or an org run, and capitalized at both ends.
    return (
        name[:1].isupper()
        and name.split()[-1][:1].isupper()
        and not any(c in name for c in ",.()'&/")
    )


_INSTITUTIONAL = frozenset(
    {"University", "Institute", "Center", "Centers", "Department", "Agency",
     "Administration", "College", "School"}
)


def _variant(name: str) -> "str | None":
    # Spellings that still link at the match threshold: "University of X"
    # reordered to "X University" (same token set), or a trailing token
    # dropped from a long name (token subset) that still reads as an
    # institution rather than a person ("Robert Wood Johnson").
    words = name.split()
    if len(words) >= 3 and words[0] == "University" and words[1] == "of":
        return " ".join(words[2:]) + " University"
    if (
        len(words) >= 4
        and words[-2][:1].isupper()
        and _INSTITUTIONAL.intersection(words[:-1])
    ):
        return " ".join(words[:-1])
    return None


def org_pool() -> "list[tuple[str, str]]":
    """(kind, org string) for every org the ``distinct-experts`` corpus may quote."""
    pool: list[tuple[str, str]] = []
    seen: set[str] = set()

    def add(kind: str, name: "str | None") -> None:
        if name and _plain(name) and name not in seen:
            seen.add(name)
            pool.append((kind, name))

    for kind, names in gazetteer_names().items():
        for name in names:
            add(kind, name)
            add("variant", _variant(name))
    for i, place in enumerate(_UNLINKABLE_PLACES):
        for j, head in enumerate(_UNLINKABLE_HEADS):
            topic = _UNLINKABLE_FIELDS[(i + j) % len(_UNLINKABLE_FIELDS)]
            add("unlinkable", f"{place} {head} {topic}")
    return pool


def _surname(rng: random.Random) -> str:
    parts = rng.sample(_SYLLABLES, rng.choice((3, 4)))
    return "".join(parts).capitalize()


def distinct_speakers(n: int, rng: random.Random) -> "list[tuple[str, str]]":
    """``n`` (gender, full name) pairs, no two scoring >= 90 with each other.

    Surnames are syllable strings outside the first-name dictionary.  Two
    names with different first names already score far below the match
    threshold, so a candidate is only compared with the earlier names that
    share its first name, against a margin of 80.
    """
    dictionary = Path(synth.__file__).parent / "data" / "names_gender.tsv"
    first_names = {line.split("\t")[0].casefold() for line in _text_names(dictionary)}
    by_first: dict[str, list[str]] = {}
    surnames: set[str] = set()
    out: list[tuple[str, str]] = []
    while len(out) < n:
        gender = "m" if rng.random() < 0.6 else "f"
        first = rng.choice(synth.MALE_FIRST_NAMES if gender == "m" else synth.FEMALE_FIRST_NAMES)
        last = _surname(rng)
        if last in surnames or last.casefold() in first_names:
            continue
        full = f"{first} {last}"
        if any(token_set_similarity(full, other) >= 80 for other in by_first.get(first, ())):
            continue
        surnames.add(last)
        by_first.setdefault(first, []).append(full)
        out.append((gender, full))
    return out


def make_planted(out: Path, seed: int) -> dict:
    """The paper's validation corpus from ``synth.make_planted_corpus``."""
    truth = synth.make_planted_corpus(out, n_articles=PLANTED_ARTICLES, seed=seed)
    truth["articles"] = PLANTED_ARTICLES
    truth["mentions"] = truth["n_quote_sentences"]
    return truth


def make_distinct_experts(out: Path, seed: int) -> dict:
    """Two direct quotes per article, every quote by a new speaker.

    Orgs are drawn without replacement from all four gazetteers, variant
    spellings and unlinkable institutes, so most org strings occur once.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    speakers = distinct_speakers(DISTINCT_QUOTES, rng)
    pool = org_pool()
    orgs = rng.sample(pool, min(DISTINCT_QUOTES, len(pool)))
    while len(orgs) < DISTINCT_QUOTES:
        orgs.append(rng.choice(pool))
    n_articles = (DISTINCT_QUOTES + 1) // 2
    with (out / "corpus.jsonl").open("w", encoding="utf-8") as fh:
        for i in range(n_articles):
            sentences = [
                f'"{rng.choice(synth.QUOTE_PHRASES)}," said {speakers[q][1]} of {orgs[q][1]}.'
                for q in range(2 * i, min(2 * i + 2, DISTINCT_QUOTES))
            ]
            sentences.insert(rng.randrange(len(sentences) + 1), rng.choice(synth.FILLER_SENTENCES))
            fh.write(_article(i, "d", " ".join(sentences)))
    _write_sources(out)
    kinds: dict[str, int] = {}
    for kind, _ in orgs:
        kinds[kind] = kinds.get(kind, 0) + 1
    return _write_truth(
        out,
        {
            "seed": seed,
            "articles": n_articles,
            "mentions": DISTINCT_QUOTES,
            "speakers": len({name for _, name in speakers}),
            "distinct_orgs": len({name for _, name in orgs}),
            "org_kinds": kinds,
        },
    )


def make_long_bodies(out: Path, seed: int) -> dict:
    """A few bodies of ``LONG_BODY_CHARS`` made mostly of quoted statements.

    Every generated sentence is exactly one segment: quoted statements
    end with the period inside the closing quote and the next sentence
    starts with a capital or a quote.  ``LONG_EXPERT_QUOTES`` sentences per
    body are real attributed expert quotes; the rest yield no mention.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    speakers = distinct_speakers(LONG_ARTICLES * LONG_EXPERT_QUOTES, rng)
    universities = [n for n in gazetteer_names()["universities"] if _plain(n)]
    sentences_total = 0
    bodies = []
    for a in range(LONG_ARTICLES):
        parts: list[str] = []
        size = 0
        while size < LONG_BODY_CHARS:
            roll = rng.random()
            if roll < 0.7:
                s = f'"{rng.choice(_BARE_QUOTES)}."'
            elif roll < 0.85:
                s = f'"{rng.choice(_BARE_QUOTES)}," the bulletin noted.'
            else:
                s = rng.choice(synth.FILLER_SENTENCES)
            parts.append(s)
            size += len(s) + 1
        slots = rng.sample(range(len(parts)), LONG_EXPERT_QUOTES)
        for k, slot in enumerate(slots):
            speaker = speakers[a * LONG_EXPERT_QUOTES + k][1]
            parts[slot] = (
                f'"{rng.choice(synth.QUOTE_PHRASES)}," said {speaker} '
                f"of {rng.choice(universities)}."
            )
        sentences_total += len(parts)
        bodies.append(" ".join(parts))
    with (out / "corpus.jsonl").open("w", encoding="utf-8") as fh:
        for i, body in enumerate(bodies):
            fh.write(_article(i, "l", body))
    _write_sources(out)
    return _write_truth(
        out,
        {
            "seed": seed,
            "articles": LONG_ARTICLES,
            "sentences": sentences_total,
            "mentions": LONG_ARTICLES * LONG_EXPERT_QUOTES,
            "body_chars": [len(b) for b in bodies],
        },
    )


def make_stats_mentions(out: Path, seed: int) -> dict:
    """A ``mentions.jsonl`` written directly in the extract output format.

    Two mentions per article, ``STATS_SPEAKERS`` distinct speakers, and links
    to ranked universities, federal agencies, think tanks or nothing.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    speakers = distinct_speakers(STATS_SPEAKERS, rng)
    names = gazetteer_names()
    ranked = [(int(r[0]), r[1].strip()) for r in _csv_rows(default_gazetteer_dir() / "universities.csv")]
    outlets = list(synth.OUTLETS)
    counts = {"Man": 0, "Woman": 0}
    linked = {"academic": 0, "federal": 0, "think_tank": 0}
    rows_out = []
    for q in range(STATS_MENTIONS):
        gender, speaker = rng.choice(speakers)
        roll = rng.random()
        if roll < 0.6:
            rank, org = rng.choice(ranked)
            link = {"name": org, "org_type": "academic", "world_rank": rank,
                    "public_health_rank": None, "score": 100}
        elif roll < 0.75:
            org = rng.choice(names["federal"])
            link = {"name": org, "org_type": "federal", "world_rank": None,
                    "public_health_rank": None, "score": 100}
        elif roll < 0.9:
            org = rng.choice(names["thinktanks"])
            link = {"name": org, "org_type": "think_tank", "world_rank": None,
                    "public_health_rank": None, "score": 100}
        else:
            org = f"{rng.choice(_UNLINKABLE_PLACES)} Institute for {rng.choice(_UNLINKABLE_FIELDS)}"
            link = None
        if link is not None:
            linked[link["org_type"]] += 1
        text = f'"{rng.choice(synth.QUOTE_PHRASES)}," said {speaker} of {org}.'
        counts["Man" if gender == "m" else "Woman"] += 1
        rows_out.append(
            {
                "article_id": f"s{q // 2:06d}",
                "source": outlets[(q // 2) % len(outlets)],
                "sentence_index": q % 2,
                "sentence_text": text,
                "sentence_char_length": len(text),
                "speaker_text": speaker,
                "gender_raw": "male" if gender == "m" else "female",
                "gender": "Man" if gender == "m" else "Woman",
                "org_text": org,
                "org_link": link,
                "detectors": ["DirectPattern"],
            }
        )
    with (out / "mentions.jsonl").open("w", encoding="utf-8") as fh:
        for row in rows_out:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    _write_sources(out)
    return _write_truth(
        out,
        {
            "seed": seed,
            "articles": (STATS_MENTIONS + 1) // 2,
            "mentions": STATS_MENTIONS,
            "speakers": len({s for _, s in speakers}),
            "men": counts["Man"],
            "women": counts["Woman"],
            "linked": linked,
        },
    )


GENERATORS = {
    "planted": make_planted,
    "distinct-experts": make_distinct_experts,
    "long-bodies": make_long_bodies,
    "stats-rebuild": make_stats_mentions,
}
