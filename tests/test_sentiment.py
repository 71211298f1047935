from datetime import date

import pytest

from sentimetrics.corpus import TranscriptRecord, build_days
from sentimetrics.sentiment import (
    Lexicon,
    LexiconConflictError,
    SentimentObservation,
    build_stock_events,
    load_lexicon,
    score_day,
)
from sentimetrics.tables import SENTIMENT, PanelFormatError, read_table, write_items

LEX = Lexicon(positive={"good", "fine"}, negative={"bad", "poor"})


def _score(tokens, lexicon=LEX):
    days = build_days([TranscriptRecord("c", date(2022, 8, 2), " ".join(tokens))])
    return score_day(days[0], lexicon.polarity(days.vocab))


def test_score_day_basic_ratio():
    obs = _score(["good", "good", "good", "bad"])
    assert (obs.n_positive, obs.n_negative) == (3, 1)
    assert obs.score == 0.5


def test_score_day_duplicates_count_separately():
    obs = _score(["good", "good", "bad"])
    assert obs.n_positive == 2
    assert obs.score == pytest.approx(1 / 3)


def test_score_day_no_matches_is_undefined_not_zero():
    obs = _score(["unrelated", "words"])
    assert (obs.n_positive, obs.n_negative) == (0, 0)
    assert obs.score is None


def test_score_day_balanced_is_exact_zero():
    obs = _score(["good", "bad"])
    assert obs.score == 0.0


def test_score_day_antisymmetric_under_lexicon_swap():
    swapped = Lexicon(positive=LEX.negative, negative=LEX.positive)
    tokens = ["good", "bad", "bad", "fine", "poor", "noise"]
    a = _score(tokens)
    b = _score(tokens, swapped)
    assert a.score == -b.score


def test_score_day_order_invariant():
    tokens = ["good", "bad", "bad", "fine"]
    a = _score(tokens)
    b = _score(list(reversed(tokens)))
    assert (a.n_positive, a.n_negative, a.score) == (b.n_positive, b.n_negative, b.score)


def test_score_day_single_polarity_hits_unit_magnitude():
    assert _score(["good", "fine", "good"]).score == 1.0
    assert _score(["bad"]).score == -1.0


def test_load_lexicon_dedup_and_sets(tmp_path):
    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    pos.write_text("up\nstrong\nup\n", encoding="utf-8")
    neg.write_text("down\nweak\n", encoding="utf-8")
    lex = load_lexicon(pos, neg)
    assert lex.positive == {"up", "strong"}
    assert lex.negative == {"down", "weak"}


def test_lexicon_built_with_a_word_in_both_lists_is_rejected():
    with pytest.raises(LexiconConflictError, match="mixed"):
        Lexicon(positive={"up", "mixed"}, negative={"mixed"})


def test_load_lexicon_conflict_lists_words(tmp_path):
    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    pos.write_text("up\nmixed\n", encoding="utf-8")
    neg.write_text("mixed\ndown\n", encoding="utf-8")
    with pytest.raises(LexiconConflictError, match="mixed"):
        load_lexicon(pos, neg)


@pytest.mark.parametrize("word", ["good.", "very good", "(bad)", "\u00abfine\u00bb", "!!!"])
def test_load_lexicon_rejects_words_that_are_not_one_token(tmp_path, word):
    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    pos.write_text("up\n\nstrong\n", encoding="utf-8")
    neg.write_text(f"down\n{word}\n", encoding="utf-8")
    with pytest.raises(PanelFormatError, match=r"neg\.txt: line 2: lexicon word"):
        load_lexicon(pos, neg)


def test_load_lexicon_normalizes_words_before_the_check(tmp_path):
    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    pos.write_text("\u1112\u1161\u11ab\n", encoding="utf-8")  # NFD of U+D55C
    neg.write_text("  down  \n", encoding="utf-8")
    lex = load_lexicon(pos, neg)
    assert lex.positive == {"\ud55c"}
    assert lex.negative == {"down"}


def _obs(d, score, n_pos=1, n_neg=1):
    return SentimentObservation(date=d, n_positive=n_pos, n_negative=n_neg, score=score)


def test_build_stock_events_polarity_split():
    d1, d2 = date(2022, 8, 2), date(2022, 8, 3)
    mentions = [(d1, "F1", 3), (d2, "F2", 5), (d2, "F3", 4)]
    scores = [_obs(d1, 0.4), _obs(d2, -0.2)]
    events, skipped = build_stock_events(mentions, scores)
    assert [(e.firm_id, e.polarity) for e in events] == [
        ("F1", "positive"),
        ("F2", "negative"),
        ("F3", "negative"),
    ]
    assert events[0].sentiment == 0.4
    assert skipped == []


def test_build_stock_events_zero_and_undefined_days_skip():
    d1, d2, d3 = date(2022, 8, 2), date(2022, 8, 3), date(2022, 8, 4)
    mentions = [(d1, "F1", 3), (d2, "F2", 3), (d3, "F3", 3)]
    scores = [_obs(d1, 0.0), _obs(d2, None, 0, 0)]
    events, skipped = build_stock_events(mentions, scores)
    assert events == []
    reasons = {(s.firm_id, s.reason) for s in skipped}
    assert ("F1", "zero sentiment score") in reasons
    assert ("F2", "undefined sentiment score") in reasons
    assert ("F3", "no sentiment observation") in reasons


def test_event_count_bounded_by_defined_mentions():
    d1, d2 = date(2022, 8, 2), date(2022, 8, 3)
    mentions = [(d1, "F1", 3), (d1, "F2", 3), (d2, "F3", 3)]
    scores = [_obs(d1, 0.5), _obs(d2, 0.0)]
    events, _ = build_stock_events(mentions, scores)
    assert len(events) <= 3
    assert len(events) == 2


def test_sentiment_csv_roundtrip(tmp_path):
    obs = [
        _obs(date(2022, 8, 2), 0.5, 3, 1),
        _obs(date(2022, 8, 3), None, 0, 0),
        _obs(date(2022, 8, 4), -1 / 3, 1, 2),
    ]
    p = tmp_path / "s.csv"
    write_items(p, SENTIMENT, obs)
    back = [SentimentObservation(*row) for row in zip(*read_table(p, SENTIMENT).values())]
    assert back == obs
    header = p.read_text(encoding="utf-8").splitlines()[0]
    assert header == "date,n_positive,n_negative,score"
