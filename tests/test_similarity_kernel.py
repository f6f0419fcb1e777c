"""Differential tests of the similarity kernel against slow references.

The kernel (bit-parallel distance, bounds, blocked name index) must give
exactly what the plain definitions give.  The references here score
every pair with the dynamic-programming ``levenshtein`` and scan every
candidate, as the pipeline did before the kernel.
"""

from __future__ import annotations

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from newsaudit import orglink
from newsaudit.entities import GenderLabel, RawGender, resolve_unique_experts
from newsaudit.orglink import (
    MATCH_THRESHOLD,
    MIN_MENTION_CHARS,
    NameIndex,
    OrgRecord,
    OrgType,
    default_gazetteer_dir,
    levenshtein,
    link_org,
    load_gazetteers,
    score_at_least,
    token_set_similarity,
)

# A small token alphabet makes near-matches, subsets, repeated tokens and
# shared prefixes common; "..." and "" are tokenless names.
_TOKENS = ["ann", "anna", "anne", "lee", "li", "smith", "smyth", "jo", "john",
           "johns", "x", "university", "universty", "o'brien", "ölsen", "Zé"]
_SEPARATORS = [" ", " ", "-", ". ", ", "]

_name_st = st.one_of(
    st.sampled_from(["", "...", " - ", "Ωμέγα"]),
    st.lists(
        st.tuples(st.sampled_from(_TOKENS), st.sampled_from(_SEPARATORS)),
        min_size=1,
        max_size=5,
    ).map(lambda parts: "".join(t.title() + s for t, s in parts).strip()),
)

_text_st = st.text(alphabet=st.sampled_from("abcab éü中1"), max_size=150)


def _reference_similarity(a: str, b: str) -> int:
    """token_set_similarity as its docstring defines it, with DP distances."""
    ta = set(orglink._TOKEN_RE.findall(a.casefold()))
    tb = set(orglink._TOKEN_RE.findall(b.casefold()))
    inter = sorted(ta & tb)
    s_i = " ".join(inter)
    s_a = " ".join(inter + sorted(ta - tb))
    s_b = " ".join(inter + sorted(tb - ta))
    best = max(
        100.0 * (1.0 - levenshtein(x, y) / max(len(x), len(y), 1))
        for x, y in ((s_a, s_b), (s_i, s_a), (s_i, s_b))
    )
    return int(round(best))


# ---------------------------------------------------------------------------
# distance and pair scores


def test_distance_edge_cases():
    long_a = "ab" * 70
    long_b = "ba" * 70 + "c"
    for a, b in [("", ""), ("", "abc"), ("abc", ""), ("kitten", "sitting"),
                 ("Zürich", "Zurich"), ("中文", "中"), (long_a, long_b),
                 (long_a, long_a[:-1]), ("x" * 65, "y" * 64)]:
        assert orglink._distance(a, b) == levenshtein(a, b), (a, b)


@settings(max_examples=400, deadline=None)
@given(_text_st, _text_st)
def test_distance_equals_dp(a, b):
    assert orglink._distance(a, b) == levenshtein(a, b)


@settings(max_examples=400, deadline=None)
@given(_name_st, _name_st)
def test_similarity_equals_reference(a, b):
    assert token_set_similarity(a, b) == _reference_similarity(a, b)


@settings(max_examples=400, deadline=None)
@given(_name_st, _name_st)
def test_score_at_least_equals_threshold_test(a, b):
    s = token_set_similarity(a, b)
    for t in (0, 50, 89, 90, 91, 100):
        assert score_at_least(a, b, t) == (s >= t), (a, b, t, s)


# ---------------------------------------------------------------------------
# blocked lookups against scans over every name


def _reference_experts(names, labels, threshold, gender_mode):
    """All-pairs dedup: join the first earlier expert that scores >= threshold."""
    experts = []  # [canonical, count, aliases, labels]
    for name, label in zip(names, labels):
        for expert in experts:
            if _reference_similarity(name, expert[0]) >= threshold:
                break
        else:
            expert = [name, 0, [], []]
            experts.append(expert)
        expert[1] += 1
        expert[3].append(label)
        if name != expert[0] and name not in expert[2]:
            expert[2].append(name)
    out = []
    for canonical, count, aliases, labs in experts:
        gender = labs[0]
        if gender_mode == "majority":
            merged = [lab.merged for lab in labs]
            counts = {g: merged.count(g) for g in merged}
            top = [g for g, c in counts.items() if c == max(counts.values())]
            if len(top) == 1:
                gender = next(lab for lab in labs if lab.merged is top[0])
        out.append((canonical, count, aliases, gender))
    return out


_label_st = st.sampled_from([GenderLabel.from_raw(r) for r in RawGender])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_name_st, _label_st), max_size=25),
    st.sampled_from(["first", "majority"]),
    st.sampled_from([50, 80, MATCH_THRESHOLD, 100]),
)
def test_blocked_dedup_equals_all_pairs(pairs, gender_mode, threshold):
    names = [n for n, _ in pairs]
    labels = [lab for _, lab in pairs]
    got = resolve_unique_experts(names, labels, threshold=threshold, gender_mode=gender_mode)
    assert [(e.canonical_name, e.mention_count, e.aliases, e.gender) for e in got] == (
        _reference_experts(names, labels, threshold, gender_mode)
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(_name_st, max_size=20), _name_st, st.sampled_from([0, 50, 90, 100]))
def test_index_lookups_equal_scans(names, query, threshold):
    index = NameIndex(names)
    hits = [i for i, n in enumerate(names) if _reference_similarity(query, n) >= threshold]
    assert index.first_match(query, threshold) == (hits[0] if hits else None)


# Long and rare tokens make a name's rare-token prefix shorter than its
# token set, so the prefix blocking prunes; queries also draw tokens no
# indexed name holds.
_INDEXED_TOKENS = ["university", "of", "institute", "public", "health", "school",
                   "massachusetts", "technology", "epidemiology", "johns", "hopkins",
                   "hopkin", "tulane", "tulan", "x", "li", "lee"]
_UNSEEN_TOKENS = ["medicine", "medicin", "zyxwvutsrqponm", "qq"]


def _names_from(tokens):
    return st.one_of(
        st.sampled_from(["", "..."]),
        st.lists(st.sampled_from(tokens), min_size=1, max_size=6).map(
            lambda toks: " ".join(t.title() for t in toks)),
    )


_query_tokens_st = st.lists(st.sampled_from(_INDEXED_TOKENS + _UNSEEN_TOKENS), max_size=2)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_interleaved_adds_and_lookups_equal_scans(data):
    # one index, so prefix postings built at one lookup must follow later adds
    index, names = NameIndex(), []
    for _ in range(data.draw(st.integers(0, 30), label="steps")):
        kind = data.draw(st.sampled_from(["add", "add", "first", "best"]))
        if kind == "add":
            name = data.draw(_names_from(_INDEXED_TOKENS), label="add")
            assert index.add(name) == len(names)
            names.append(name)
            continue
        if names and data.draw(st.booleans()):
            # near an indexed name: tokens dropped, misspelt or added
            words = [w[:data.draw(st.sampled_from([None, None, -1]))]
                     for w in data.draw(st.sampled_from(names)).split()
                     if data.draw(st.sampled_from([True, True, False]))]
            query = " ".join(words + data.draw(_query_tokens_st))
        else:
            query = data.draw(_names_from(_INDEXED_TOKENS + _UNSEEN_TOKENS))
        threshold = data.draw(st.sampled_from([0, 50, 89, 90, 91, 100]))
        scores = [_reference_similarity(query, n) for n in names]
        hits = [i for i, s in enumerate(scores) if s >= threshold]
        op = (kind, query, threshold)
        if kind == "first":
            assert index.first_match(query, threshold) == (hits[0] if hits else None), op
        else:
            best = min(hits, key=lambda i: (-scores[i], names[i], i), default=None)
            want = None if best is None else (best, scores[best])
            assert index.best_match(query, threshold, lambda i: names[i]) == want, op


def test_index_finds_pairs_at_the_edge_of_each_route():
    # Each query reaches the last name by one ratio only, at the edge of
    # its bound.  In the first two, "x" is the rarest token and its weight,
    # 2, equals D(21, 90), so one more token is needed in the prefix.
    cases = [
        (["Massachusetts Tulan University"], "X Massachusetts Tulan", 90),  # (I, A)
        (["Massachusetts Lee", "Tulan Lee", "X Massachusetts Tulan"],
         "Massachusetts Tulan University", 90),  # (I, B)
        (["Johns Hopkins University"], "Johns Hopkin University", 90),  # (A, B)
        (["Smyth"], "Smith", 50),  # (A, B), no shared token
        (["John"], "Johns", 80),  # (A, B), shortest length in the window
        (["Johns"], "John", 80),  # (A, B), longest length in the window
    ]
    assert orglink._slack(21, 90) == 2
    for names, query, threshold in cases:
        hits = [i for i, n in enumerate(names) if _reference_similarity(query, n) >= threshold]
        assert hits == [len(names) - 1], (query, names)
        assert NameIndex(names).first_match(query, threshold) == hits[0], (query, names)


_TYPE_ORDER = {OrgType.ACADEMIC: 0, OrgType.FEDERAL: 1, OrgType.THINK_TANK: 2}


def _reference_link(text, records, threshold):
    """Best record over all of them: score, then org type, then name."""
    text = text.strip()
    if sum(c.isalnum() for c in text) < MIN_MENTION_CHARS:
        return None
    scored = [(-_reference_similarity(text, r.name), _TYPE_ORDER[r.org_type], r.name, i)
              for i, r in enumerate(records)]
    if not scored or -min(scored)[0] < threshold:
        return None
    s, _, _, i = min(scored)
    return records[i], -s


_record_st = st.builds(
    OrgRecord,
    name=_name_st.filter(lambda n: n.strip()),
    org_type=st.sampled_from([OrgType.FEDERAL, OrgType.THINK_TANK]),
) | st.builds(
    lambda n: OrgRecord(n, OrgType.ACADEMIC),
    _name_st.filter(lambda n: n.strip()),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_record_st, max_size=15), _name_st, st.sampled_from([MATCH_THRESHOLD, 95, 100]))
def test_link_org_equals_best_over_records(records, mention, threshold):
    link = link_org(mention, records, threshold)
    expected = _reference_link(mention, records, threshold)
    if expected is None:
        assert link is None
    else:
        assert link is not None
        assert (link.record, link.score) == expected
        assert link.mention_text == mention.strip()
    # the memoized answer is the same object
    assert link_org(mention, records, threshold) is link


def test_link_org_tie_break_type_then_name():
    recs = [
        OrgRecord("Smith Lee Institute", OrgType.THINK_TANK),
        OrgRecord("Zeta Smith Lee", OrgType.FEDERAL),
        OrgRecord("Alpha Smith Lee", OrgType.FEDERAL),
    ]
    for order in (recs, recs[::-1], tuple(recs[1:] + recs[:1])):
        link = link_org("Smith Lee", order)
        assert link is not None and link.score == 100
        assert link.record.name == "Alpha Smith Lee"


def test_link_index_follows_a_mutated_list():
    gaz = [OrgRecord("Harvard University", OrgType.ACADEMIC)]
    assert link_org("Yale University", gaz) is None
    gaz.append(OrgRecord("Yale University", OrgType.ACADEMIC))
    link = link_org("Yale University", gaz)
    assert link is not None and link.record.name == "Yale University"


def test_link_index_holds_an_equal_reloaded_gazetteer(monkeypatch):
    """A gazetteer loaded again is compared in full once, then matched by identity."""
    monkeypatch.setattr(orglink, "_LINK_INDEXES", [])
    first = tuple(load_gazetteers(default_gazetteer_dir()))
    second = tuple(load_gazetteers(default_gazetteer_dir()))
    assert first == second and first is not second
    want = link_org("Harvard University", first)
    assert link_org("Harvard University", second) == want
    assert len(orglink._LINK_INDEXES) == 1
    compares = []
    eq = OrgRecord.__eq__

    def counting_eq(self, other):
        compares.append(1)
        return eq(self, other)

    monkeypatch.setattr(OrgRecord, "__eq__", counting_eq)
    for text in ("Harvard University", "Yale University", "Stanford", "Brookings"):
        link_org(text, second)
    assert compares == []
    assert link_org("Harvard University", second) == want


def test_shipped_join_equals_all_pairs():
    """The public-health join scores every row against every academic name."""
    d = default_gazetteer_dir()
    academics: list[OrgRecord] = []
    for row in orglink._data_rows(d / "universities.csv"):
        name = row[1].strip()
        if all(a.name.casefold() != name.casefold() for a in academics):
            academics.append(OrgRecord(name, OrgType.ACADEMIC, world_rank=int(row[0])))
    for row in orglink._data_rows(d / "public_health.csv"):
        rank, name = int(row[0]), row[1].strip()
        scored = [(-_reference_similarity(name, a.name), a.name, i)
                  for i, a in enumerate(academics)]
        s, _, i = min(scored)
        if -s < MATCH_THRESHOLD:
            if all(a.name.casefold() != name.casefold() for a in academics):
                academics.append(OrgRecord(name, OrgType.ACADEMIC, public_health_rank=rank))
        elif academics[i].public_health_rank is None:
            academics[i] = replace(academics[i], public_health_rank=rank)
    records = load_gazetteers(d)
    assert records[:len(academics)] == academics
    assert records[len(academics)].org_type is not OrgType.ACADEMIC


# ---------------------------------------------------------------------------
# scaling guard


def _distinct_names(n: int) -> list[str]:
    rng = random.Random(20230127)
    firsts = ["Anna", "Ben", "Chloe", "David", "Elena", "Farid", "Grace", "Hiro",
              "Ines", "Jonas", "Kara", "Luis", "Maya", "Nils", "Olga", "Priya",
              "Quinn", "Rosa", "Sami", "Tara", "Umar", "Vera", "Wen", "Yusuf"]
    syllables = ["ba", "ce", "di", "fo", "gu", "ha", "ke", "li", "mo", "nu", "pa",
                 "re", "si", "to", "vu", "wa", "ze", "bro", "cla", "dre", "fli",
                 "gro", "kra", "ple", "stu", "tra", "vin", "mar", "ost", "ern"]
    pool = [
        f"{rng.choice(firsts)} "
        + "".join(rng.choice(syllables) for _ in range(rng.randint(2, 4))).title()
        for _ in range(int(n * 1.5))
    ]
    # Canonical names never score >= threshold against each other.
    names = [e.canonical_name for e in resolve_unique_experts(pool)]
    assert len(names) >= n
    return names[:n]


def test_dedup_scores_far_fewer_pairs_than_all_pairs(monkeypatch):
    # Counts, not timings: the blocking must keep both the pairs scored
    # and the distances run far below the N(N-1)/2 of a scan.
    names = _distinct_names(2000)
    calls = {"_score": 0, "_distance": 0}

    def counting(name):
        fn = getattr(orglink, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(orglink, name, counting(name))
    experts = resolve_unique_experts(names)
    assert len(experts) == len(names)
    all_pairs = len(names) * (len(names) - 1) // 2
    assert calls["_distance"] < 0.05 * all_pairs, (calls, all_pairs)
    assert calls["_score"] < 0.10 * all_pairs, (calls, all_pairs)


def _perturbed_org_strings(names: list[str], n: int) -> list[str]:
    """``n`` distinct org strings, each a gazetteer name with a token dropped,
    the tokens shuffled, one token misspelt, or a qualifier put in front."""
    rng = random.Random(20200301)
    qualifiers = ["The", "Department of Medicine at the", "researchers at"]
    out: dict[str, None] = {}
    while len(out) < n:
        words = rng.choice(names).split()
        kind = rng.randrange(4)
        if kind == 0 and len(words) > 1:
            del words[rng.randrange(len(words))]
        elif kind == 1:
            rng.shuffle(words)
        elif kind == 2:
            k = rng.randrange(len(words))
            words[k] = words[k][:-1] if len(words[k]) > 3 else words[k] + "s"
        else:
            words = rng.choice(qualifiers).split() + words
        out[" ".join(words)] = None
    return list(out)


def test_linking_scores_a_few_names_per_lookup(monkeypatch):
    # Counts, not timings: tokens such as "university" and "of" sit in most
    # gazetteer names, and a lookup scoring every name that shares a token
    # with it scores dozens; the rare-token prefixes leave a few.
    records = tuple(load_gazetteers(default_gazetteer_dir()))
    texts = _perturbed_org_strings([r.name for r in records], 250)
    monkeypatch.setattr(orglink, "_LINK_INDEXES", [])
    calls = []
    score = orglink._score

    def counted(*args):
        calls.append(1)
        return score(*args)

    monkeypatch.setattr(orglink, "_score", counted)
    linked = sum(link_org(text, records) is not None for text in texts)
    assert linked >= 200
    assert len(calls) < 5 * len(texts), (len(calls), len(texts))
