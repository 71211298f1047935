"""The id-based mention and sentiment counts against the string-token loops they replaced.

The reference loops below count a day given as a list of token strings, the
way ``extract_mentions`` and ``score_day`` did before days held token ids.
"""

import random
from datetime import date, timedelta

import pytest

from sentimetrics.corpus import (
    TranscriptRecord,
    build_days,
    extract_mentions,
    load_firm_dictionary,
    tokenize,
)
from sentimetrics.sentiment import Lexicon, score_day


def _reference_extract_mentions(tokens, dictionary, min_mentions):
    counts = {}
    for tok in tokens:
        counts[tok] = counts.get(tok, 0) + 1
    mentions = []
    for firm_id, names in dictionary.entries:
        total = sum(counts.get(name, 0) for name in names)
        if total >= min_mentions:
            mentions.append((firm_id, total))
    return mentions


def _reference_score_day(tokens, lexicon):
    n_pos = sum(1 for tok in tokens if tok in lexicon.positive)
    n_neg = sum(1 for tok in tokens if tok in lexicon.negative)
    total = n_pos + n_neg
    score = (n_pos - n_neg) / total if total > 0 else None
    return n_pos, n_neg, score


HAN_NFD = "\u1112\u1161\u11ab"  # NFD of U+D55C, which tokenizes to "\ud55c"
LEXICON = Lexicon(positive={"good", "rally", "\ud55c"}, negative={"bad", "weak", "sun"})
PIECES = [
    "acme", "acme,", "(acme)", "sun", "\u00absun\u00bb", "sun.", "moon", "moon!", "globex",
    "initech?", "good", "good!", "GOOD", "rally", "bad", "\"bad\"", "weak", "weak...",
    HAN_NFD, f"{HAN_NFD},", "\ud55c", "U.S.", "stock-market", "filler", "noise",
    "...", "!!", ",", "\u2014", "\u3001", "(", ")",
]
SPACES = [" ", "  ", "\t", "\n", "\u3000"]


def _records(rng, n_dates=12, n_records=40):
    """Random scripts over a few dates; some texts are empty or pure punctuation."""
    start = date(2022, 8, 1)
    records = []
    for k in range(n_records):
        pieces = rng.choices(PIECES, k=rng.choice([0, 1, 3, 10, 40]))
        text = "".join(p + rng.choice(SPACES) for p in pieces)
        day = start + timedelta(days=rng.randrange(n_dates))
        records.append(TranscriptRecord(f"c{k}", day, text))
    records.append(TranscriptRecord("last", start + timedelta(days=n_dates), "... , !"))
    return records


@pytest.fixture(scope="module")
def dictionary(tmp_path_factory):
    root = tmp_path_factory.mktemp("firms")
    names = root / "names.csv"
    names.write_text(
        "firm_id,name\n"
        "F1,acme\nF1,sun\n"  # 'sun' is shared with F2
        f"F2,sun\nF2,{HAN_NFD}\n"
        "F3,globex\nF3,moon\n"  # 'moon' is excluded
        "F4,ghost\n"  # never in the text
        "F5,moon\n"  # loses its only name
        "F6,initech\n",
        encoding="utf-8",
    )
    excl = root / "excl.txt"
    excl.write_text("moon\n", encoding="utf-8")
    d = load_firm_dictionary(names, excl)
    assert [fid for fid, _ in d.entries] == ["F1", "F2", "F3", "F4", "F6"]
    d.entries.append(("F7", []))  # a hand-built entry with no names
    return d


@pytest.mark.parametrize("seed", range(8))
def test_id_counts_equal_the_string_token_loops(dictionary, seed):
    records = _records(random.Random(seed))
    days = build_days(records)
    by_date = {}
    for rec in records:
        by_date.setdefault(rec.publish_date, []).extend(tokenize(rec.text))
    assert [d.date for d in days] == sorted(by_date)
    firms = dictionary.index(days.vocab)
    polarity = LEXICON.polarity(days.vocab)
    for day in days:
        tokens = by_date[day.date]
        assert len(day.tokens) == len(tokens)
        for min_mentions in range(1, 6):
            got = extract_mentions(day, firms, min_mentions)
            assert got == _reference_extract_mentions(tokens, dictionary, min_mentions)
        obs = score_day(day, polarity)
        n_pos, n_neg, score = _reference_score_day(tokens, LEXICON)
        assert (obs.n_positive, obs.n_negative) == (n_pos, n_neg)
        assert obs.score == score and type(obs.score) is type(score)


def test_the_random_days_cover_the_edge_cases(dictionary):
    seen = set()
    for seed in range(8):
        records = _records(random.Random(seed))
        days = build_days(records)
        firms = dictionary.index(days.vocab)
        polarity = LEXICON.polarity(days.vocab)
        for rec in records:
            seen.add("NFD" if HAN_NFD in rec.text else "")
            seen.add("punctuation only" if rec.text.strip() and not tokenize(rec.text) else "")
        for day in days:
            mentioned = {f for f, _ in extract_mentions(day, firms, 1)}
            seen.add("shared alias" if {"F1", "F2"} <= mentioned else "")
            seen.add("empty day" if len(day.tokens) == 0 else "")
            seen.add("undefined score" if score_day(day, polarity).score is None else "")
    assert seen >= {"NFD", "punctuation only", "shared alias", "empty day", "undefined score"}
