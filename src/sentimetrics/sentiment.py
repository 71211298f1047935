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

import numpy as np

from .corpus import MentionSet, TranscriptDay, _one_token, _words
from .tables import NEGATIVE, POSITIVE


class LexiconConflictError(ValueError):
    """A word appears in both the positive and the negative lexicon."""


@dataclass
class Lexicon:
    """Positive and negative words; a word in both is an error, as it would score both ways."""

    positive: set[str]
    negative: set[str]

    def __post_init__(self):
        conflicts = sorted(self.positive & self.negative)
        if conflicts:
            raise LexiconConflictError("words in both polarity lists: " + ", ".join(conflicts))

    def polarity(self, vocab: dict[str, int]) -> np.ndarray:
        """Each token id's polarity on ``vocab``: 1 positive, 2 negative, 0 neither."""
        polarity = np.zeros(len(vocab), np.intp)
        for value, words in ((1, self.positive), (2, self.negative)):
            polarity[[vocab[w] for w in words if w in vocab]] = value
        return polarity


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
    return {_one_token(w, f"{path}: line {lineno}: lexicon word") for lineno, w in _words(path)}


def load_lexicon(positive_path: str | Path, negative_path: str | Path) -> Lexicon:
    """Load the two one-word-per-line polarity files; overlapping words are an error.

    Each word must be one token as ``tokenize`` yields it, or it could never score.
    """
    return Lexicon(positive=_load_wordlist(positive_path), negative=_load_wordlist(negative_path))


def score_day(day: TranscriptDay, polarity: np.ndarray) -> SentimentObservation:
    """Score one day's tokens by ``Lexicon.polarity`` of their vocabulary; duplicates count."""
    _, n_pos, n_neg = np.bincount(polarity[day.tokens], minlength=3).tolist()
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
