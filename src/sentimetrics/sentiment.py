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

from .corpus import TranscriptDay, _one_token, _words
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
    positive, negative = _load_wordlist(positive_path), _load_wordlist(negative_path)
    try:
        return Lexicon(positive=positive, negative=negative)
    except LexiconConflictError as exc:
        raise LexiconConflictError(f"{positive_path} and {negative_path}: {exc}") from None


def score_day(day: TranscriptDay, polarity: np.ndarray) -> SentimentObservation:
    """Score one day's tokens by ``Lexicon.polarity`` of their vocabulary; duplicates count."""
    _, n_pos, n_neg = np.bincount(polarity[day.tokens], minlength=3).tolist()
    total = n_pos + n_neg
    score = (n_pos - n_neg) / total if total > 0 else None
    return SentimentObservation(date=day.date, n_positive=n_pos, n_negative=n_neg, score=score)


def build_stock_events(
    mentions: list[tuple[date, str, int]], scores: list[SentimentObservation]
) -> tuple[list[StockSentimentEvent], list[SkippedMention]]:
    """Tag each mention, a ``(date, firm_id, count)`` row, with its day's sentiment.

    Days whose score is undefined or exactly zero yield no events; mentions on
    days without any score observation are skipped and reported.
    """
    score_by_date = {obs.date: obs.score for obs in scores}
    events: list[StockSentimentEvent] = []
    skipped: list[SkippedMention] = []
    for d, firm_id, _count in mentions:
        score = score_by_date.get(d)
        if d not in score_by_date:
            reason = "no sentiment observation"
        elif score is None:
            reason = "undefined sentiment score"
        elif score == 0.0:
            reason = "zero sentiment score"
        else:
            polarity = POSITIVE if score > 0 else NEGATIVE
            events.append(StockSentimentEvent(firm_id, d, score, polarity))
            continue
        skipped.append(SkippedMention(firm_id, d, reason))
    return events, skipped
