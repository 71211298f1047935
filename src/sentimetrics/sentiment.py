"""Dictionary-based daily sentiment scoring and per-stock sentiment events.

The day score is (n_positive - n_negative) / (n_positive + n_negative),
counting duplicate word occurrences separately.  A day with no lexicon hits
has no score (None), never a silent zero.  Each firm mentioned on a day with
a defined nonzero score becomes one signed stock event.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .corpus import MentionSet, TranscriptDay, _norm

POSITIVE = "positive"
NEGATIVE = "negative"


class LexiconConflictError(ValueError):
    """A word appears in both the positive and the negative lexicon."""


@dataclass
class Lexicon:
    positive: set[str]
    negative: set[str]


@dataclass
class SentimentObservation:
    date: date
    n_positive: int
    n_negative: int
    score: float | None


@dataclass
class StockSentimentEvent:
    firm_id: str
    announce_date: date
    sentiment: float
    polarity: str


@dataclass
class SkippedMention:
    firm_id: str
    date: date
    reason: str


def _load_wordlist(path: str | Path) -> set[str]:
    words = set()
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            word = _norm(line.strip())
            if word:
                words.add(word)
    return words


def load_lexicon(positive_path: str | Path, negative_path: str | Path) -> Lexicon:
    """Load the two one-word-per-line polarity files; overlapping words are an error."""
    positive = _load_wordlist(positive_path)
    negative = _load_wordlist(negative_path)
    conflicts = sorted(positive & negative)
    if conflicts:
        raise LexiconConflictError(
            "words present in both polarity files: " + ", ".join(conflicts)
        )
    return Lexicon(positive=positive, negative=negative)


def score_day(day: TranscriptDay, lexicon: Lexicon) -> SentimentObservation:
    """Score one day's tokens; duplicates count separately."""
    n_pos = sum(1 for tok in day.tokens if tok in lexicon.positive)
    n_neg = sum(1 for tok in day.tokens if tok in lexicon.negative)
    total = n_pos + n_neg
    score = (n_pos - n_neg) / total if total > 0 else None
    return SentimentObservation(date=day.date, n_positive=n_pos, n_negative=n_neg, score=score)


def build_stock_events(
    mentions: list[MentionSet], scores: list[SentimentObservation]
) -> tuple[list[StockSentimentEvent], list[SkippedMention]]:
    """Tag each mentioned firm with its day's sentiment.

    Days whose score is undefined or exactly zero yield no events; mentions on
    days without any score observation are skipped and reported.
    """
    score_by_date = {obs.date: obs.score for obs in scores}
    events: list[StockSentimentEvent] = []
    skipped: list[SkippedMention] = []
    for mset in mentions:
        if mset.date not in score_by_date:
            for firm_id, _count in mset.mentions:
                skipped.append(SkippedMention(firm_id, mset.date, "no sentiment observation"))
            continue
        score = score_by_date[mset.date]
        if score is None:
            for firm_id, _count in mset.mentions:
                skipped.append(SkippedMention(firm_id, mset.date, "undefined sentiment score"))
            continue
        if score == 0.0:
            for firm_id, _count in mset.mentions:
                skipped.append(SkippedMention(firm_id, mset.date, "zero sentiment score"))
            continue
        polarity = POSITIVE if score > 0 else NEGATIVE
        for firm_id, _count in mset.mentions:
            events.append(
                StockSentimentEvent(
                    firm_id=firm_id, announce_date=mset.date, sentiment=score, polarity=polarity
                )
            )
    return events, skipped
