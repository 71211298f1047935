from datetime import date

import pytest

from sentimetrics.corpus import MentionSet, TranscriptDay
from sentimetrics.sentiment import (
    Lexicon,
    LexiconConflictError,
    SentimentObservation,
    build_stock_events,
    load_lexicon,
    score_day,
)
from sentimetrics.tables import SENTIMENT, read_table, write_items

LEX = Lexicon(positive={"good", "fine"}, negative={"bad", "poor"})


def _day(tokens, d=date(2022, 8, 2)):
    return TranscriptDay(date=d, tokens=list(tokens), source_count=1)


def test_score_day_basic_ratio():
    obs = score_day(_day(["good", "good", "good", "bad"]), LEX)
    assert (obs.n_positive, obs.n_negative) == (3, 1)
    assert obs.score == 0.5


def test_score_day_duplicates_count_separately():
    obs = score_day(_day(["good", "good", "bad"]), LEX)
    assert obs.n_positive == 2
    assert obs.score == pytest.approx(1 / 3)


def test_score_day_no_matches_is_undefined_not_zero():
    obs = score_day(_day(["unrelated", "words"]), LEX)
    assert (obs.n_positive, obs.n_negative) == (0, 0)
    assert obs.score is None


def test_score_day_balanced_is_exact_zero():
    obs = score_day(_day(["good", "bad"]), LEX)
    assert obs.score == 0.0


def test_score_day_antisymmetric_under_lexicon_swap():
    swapped = Lexicon(positive=LEX.negative, negative=LEX.positive)
    tokens = ["good", "bad", "bad", "fine", "poor", "noise"]
    a = score_day(_day(tokens), LEX)
    b = score_day(_day(tokens), swapped)
    assert a.score == -b.score


def test_score_day_order_invariant():
    tokens = ["good", "bad", "bad", "fine"]
    a = score_day(_day(tokens), LEX)
    b = score_day(_day(list(reversed(tokens))), LEX)
    assert (a.n_positive, a.n_negative, a.score) == (b.n_positive, b.n_negative, b.score)


def test_score_day_single_polarity_hits_unit_magnitude():
    assert score_day(_day(["good", "fine", "good"]), LEX).score == 1.0
    assert score_day(_day(["bad"]), LEX).score == -1.0


def test_load_lexicon_dedup_and_sets(tmp_path):
    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    pos.write_text("up\nstrong\nup\n", encoding="utf-8")
    neg.write_text("down\nweak\n", encoding="utf-8")
    lex = load_lexicon(pos, neg)
    assert lex.positive == {"up", "strong"}
    assert lex.negative == {"down", "weak"}


def test_load_lexicon_conflict_lists_words(tmp_path):
    pos = tmp_path / "pos.txt"
    neg = tmp_path / "neg.txt"
    pos.write_text("up\nmixed\n", encoding="utf-8")
    neg.write_text("mixed\ndown\n", encoding="utf-8")
    with pytest.raises(LexiconConflictError, match="mixed"):
        load_lexicon(pos, neg)


def _obs(d, score, n_pos=1, n_neg=1):
    return SentimentObservation(date=d, n_positive=n_pos, n_negative=n_neg, score=score)


def test_build_stock_events_polarity_split():
    d1, d2 = date(2022, 8, 2), date(2022, 8, 3)
    mentions = [
        MentionSet(date=d1, mentions=[("F1", 3)]),
        MentionSet(date=d2, mentions=[("F2", 5), ("F3", 4)]),
    ]
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
    mentions = [
        MentionSet(date=d1, mentions=[("F1", 3)]),
        MentionSet(date=d2, mentions=[("F2", 3)]),
        MentionSet(date=d3, mentions=[("F3", 3)]),
    ]
    scores = [_obs(d1, 0.0), _obs(d2, None, 0, 0)]
    events, skipped = build_stock_events(mentions, scores)
    assert events == []
    reasons = {(s.firm_id, s.reason) for s in skipped}
    assert ("F1", "zero sentiment score") in reasons
    assert ("F2", "undefined sentiment score") in reasons
    assert ("F3", "no sentiment observation") in reasons


def test_event_count_bounded_by_defined_mentions():
    d1, d2 = date(2022, 8, 2), date(2022, 8, 3)
    mentions = [
        MentionSet(date=d1, mentions=[("F1", 3), ("F2", 3)]),
        MentionSet(date=d2, mentions=[("F3", 3)]),
    ]
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
