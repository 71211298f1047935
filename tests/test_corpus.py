import csv
from datetime import date

import pytest

from sentimetrics.corpus import (
    FirmDictionary,
    TranscriptRecord,
    build_days,
    extract_mentions,
    load_firm_dictionary,
    load_transcripts,
    tokenize,
)
from sentimetrics.tables import PanelFormatError


def test_tokenize_splits_and_strips_punctuation():
    assert tokenize("alpha beta,  gamma.") == ["alpha", "beta", "gamma"]
    assert tokenize('"quoted" (parens) end!') == ["quoted", "parens", "end"]
    assert tokenize("... !!! ,") == []
    assert tokenize("") == []


def test_tokenize_keeps_duplicates_and_case():
    assert tokenize("Gap gap GAP gap") == ["Gap", "gap", "GAP", "gap"]


def test_tokenize_nfc_normalization():
    # Decomposed Hangul (U+1112 U+1161 U+11AB) must match the precomposed form.
    decomposed = "한"
    assert tokenize(decomposed) == ["한"]


def test_tokenize_interior_punctuation_survives():
    assert tokenize("U.S. stock-market") == ["U.S", "stock-market"]


def _words(days, day):
    """The day's tokens as strings, through the vocabulary of its build_days call."""
    words = list(days.vocab)
    return [words[i] for i in day.tokens]


def _write_transcripts(path, rows):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["content_id", "publish_date", "text"])
        writer.writerows(rows)


def test_load_transcripts_roundtrip(tmp_path):
    p = tmp_path / "t.csv"
    _write_transcripts(
        p,
        [
            ["c1", "2022-08-02", "alpha beta"],
            ["c2", "2022-08-02", "beta, gamma"],
            ["c3", "2022-08-03", ""],
        ],
    )
    records = list(load_transcripts(p))
    assert [r.content_id for r in records] == ["c1", "c2", "c3"]
    assert records[0].publish_date == date(2022, 8, 2)
    assert records[2].text == ""


def test_load_transcripts_empty_file(tmp_path):
    p = tmp_path / "t.csv"
    _write_transcripts(p, [])
    assert list(load_transcripts(p)) == []


def test_load_transcripts_bad_date_names_row(tmp_path):
    p = tmp_path / "t.csv"
    _write_transcripts(p, [["c1", "2022-08-02", "x"], ["c2", "2022-13-01", "y"]])
    with pytest.raises(PanelFormatError, match="row 3.*publish_date"):
        list(load_transcripts(p))


def test_load_transcripts_bad_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("id,when,words\nc1,2022-08-02,x\n", encoding="utf-8")
    with pytest.raises(PanelFormatError, match="header"):
        list(load_transcripts(p))


def test_build_days_concatenates_same_day_in_record_order():
    records = [
        TranscriptRecord("c1", date(2022, 8, 2), "a b"),
        TranscriptRecord("c2", date(2022, 8, 2), "b c"),
    ]
    days = build_days(records)
    assert len(days) == 1
    assert _words(days, days[0]) == ["a", "b", "b", "c"]
    assert days[0].source_count == 2


def test_build_days_sorted_ascending():
    records = [
        TranscriptRecord("c2", date(2022, 8, 5), "later"),
        TranscriptRecord("c1", date(2022, 8, 2), "earlier"),
    ]
    days = build_days(records)
    assert [d.date for d in days] == [date(2022, 8, 2), date(2022, 8, 5)]


def test_build_days_empty():
    assert build_days([]) == []


def test_build_days_matches_per_record_tokenize():
    decomposed = "\u1112\u1161\u11ab"  # NFD of U+D55C
    records = [
        TranscriptRecord("c1", date(2022, 8, 2), f"{decomposed}, acme acme. (acme) ... !!"),
        TranscriptRecord("c2", date(2022, 8, 3), f"--acme-- \u3001 {decomposed}\u3002 U.S."),
        TranscriptRecord("c3", date(2022, 8, 2), f"acme. {decomposed}, acme? \"acme\""),
        TranscriptRecord("c4", date(2022, 8, 4), "... , !"),
    ]
    days = build_days(records)
    by_date = {}
    for rec in records:
        by_date.setdefault(rec.publish_date, []).extend(tokenize(rec.text))
    assert [(d.date, _words(days, d)) for d in days] == sorted(by_date.items())
    assert _words(days, days[0])[:4] == ["\ud55c", "acme", "acme", "acme"]
    assert _words(days, days[2]) == []
    # Equal tokens, however they were spelled raw, share one id.
    first, second = days[0].tokens[0], days[0].tokens[5]
    assert first == second and list(days.vocab).count("\ud55c") == 1


def test_load_firm_dictionary_groups_aliases(tmp_path):
    names = tmp_path / "names.csv"
    names.write_text(
        "firm_id,name\nF1,acme\nF1,acme-corp\nF2,globex\n", encoding="utf-8"
    )
    d = load_firm_dictionary(names)
    assert d.entries == [("F1", ["acme", "acme-corp"]), ("F2", ["globex"])]


@pytest.mark.parametrize("name", ["Samsung Electronics", "Hyundai.", "(acme)", "\u00abkia\u00bb"])
def test_load_firm_dictionary_rejects_names_that_are_not_one_token(tmp_path, name):
    names = tmp_path / "names.csv"
    with names.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["firm_id", "name"], ["F1", "acme"], ["F2", name]])
    with pytest.raises(PanelFormatError, match=r"names\.csv: row 3: firm name"):
        load_firm_dictionary(names)


def test_load_firm_dictionary_excluded_names_need_not_be_one_token(tmp_path):
    names = tmp_path / "names.csv"
    names.write_text("firm_id,name\nF1,acme\nF1,Acme Corp\n", encoding="utf-8")
    excl = tmp_path / "excl.txt"
    excl.write_text("Acme Corp\n", encoding="utf-8")
    assert load_firm_dictionary(names, excl).entries == [("F1", ["acme"])]


def test_load_firm_dictionary_exclusions_win(tmp_path):
    names = tmp_path / "names.csv"
    names.write_text("firm_id,name\nF1,acme\nF1,sun\nF2,sun\n", encoding="utf-8")
    excl = tmp_path / "excl.txt"
    excl.write_text("sun\n", encoding="utf-8")
    d = load_firm_dictionary(names, excl)
    # F2 loses its only name and is dropped entirely.
    assert d.entries == [("F1", ["acme"])]
    assert "sun" in d.exclusions


def _mentions(tokens, dictionary, min_mentions):
    days = build_days([TranscriptRecord("c", date(2022, 8, 2), " ".join(tokens))])
    return extract_mentions(days[0], dictionary.index(days.vocab), min_mentions).mentions


FIRMS = FirmDictionary(entries=[("F1", ["acme", "acmeco"]), ("F2", ["globex"])])


def test_extract_mentions_threshold():
    day = ["acme", "acme", "acme", "globex", "globex"]
    assert _mentions(day, FIRMS, min_mentions=3) == [("F1", 3)]


def test_extract_mentions_sums_aliases():
    day = ["acme", "acmeco", "acme"]
    assert _mentions(day, FIRMS, min_mentions=3) == [("F1", 3)]


def test_extract_mentions_monotone_in_threshold():
    day = ["acme"] * 4 + ["globex"] * 2
    for lo in range(1, 6):
        keep_lo = {f for f, _ in _mentions(day, FIRMS, lo)}
        keep_hi = {f for f, _ in _mentions(day, FIRMS, lo + 1)}
        assert keep_hi <= keep_lo


def test_extract_mentions_excluded_name_never_matches():
    d = FirmDictionary(entries=[("F1", ["acme"])], exclusions={"globex"})
    day = ["globex"] * 10 + ["acme"] * 3
    assert _mentions(day, d, min_mentions=1) == [("F1", 3)]


def test_extract_mentions_rejects_bad_threshold():
    with pytest.raises(ValueError):
        _mentions(["acme"], FIRMS, min_mentions=0)


def test_extract_mentions_counts_a_shared_alias_for_both_firms():
    d = FirmDictionary(entries=[("F1", ["acme", "sun"]), ("F2", ["sun"]), ("F3", ["globex"])])
    day = ["sun", "acme", "sun", "globex"]
    assert _mentions(day, d, min_mentions=1) == [("F1", 3), ("F2", 2), ("F3", 1)]
    assert _mentions(day, d, min_mentions=2) == [("F1", 3), ("F2", 2)]
