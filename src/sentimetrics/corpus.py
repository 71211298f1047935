"""Transcript ingestion: daily concatenation, tokenization, firm-mention extraction.

Raw transcript rows are merged per calendar day as they are read, split into
tokens held as ids into one vocabulary, and matched against a firm-name
dictionary mapped onto that vocabulary.  Matching is exact token equality
after NFC normalization; common-noun-like names can be suppressed through
an exclusion list.
"""

from __future__ import annotations

import unicodedata
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np

from . import tables

DEFAULT_MIN_MENTIONS = 3


@dataclass
class TranscriptRecord:
    content_id: str
    publish_date: date
    text: str


@dataclass
class TranscriptDay:
    """All of one calendar day's scripts: int32 ids into its ``build_days`` call's vocabulary."""

    date: date
    tokens: np.ndarray
    source_count: int


class Days(list):
    """The days of one ``build_days`` call, ascending; ``vocab`` maps token -> id, in id order."""

    def __init__(self, days: list[TranscriptDay], vocab: dict[str, int]):
        super().__init__(days)
        self.vocab = vocab


@dataclass
class FirmIndex:
    """Firms on one vocabulary: token id -> ``slot_of`` name slot (0: none), firm i -> its slots."""

    firm_ids: list[str]
    slot_of: np.ndarray
    slots: np.ndarray
    starts: np.ndarray


@dataclass
class FirmDictionary:
    """Firm aliases plus an exclusion list; excluded names never match."""

    entries: list[tuple[str, list[str]]]
    exclusions: set[str] = field(default_factory=set)

    def index(self, vocab: dict[str, int]) -> FirmIndex:
        """The entries on one vocabulary; a name two firms share counts for both."""
        entries = [entry for entry in self.entries if entry[1]]  # a firm without names never counts
        slot: dict[str, int] = {}
        slots = [slot.setdefault(n, len(slot) + 1) for _, names in entries for n in names]
        slot_of = np.zeros(len(vocab), np.intp)
        for name in slot.keys() & vocab.keys():
            slot_of[vocab[name]] = slot[name]
        starts = np.cumsum([0] + [len(names) for _, names in entries])[:-1]
        return FirmIndex([fid for fid, _ in entries], slot_of, np.array(slots, np.intp), starts)


@dataclass
class MentionSet:
    date: date
    mentions: list[tuple[str, int]]


def _norm(s: str) -> str:
    return unicodedata.normalize("NFC", s)


def _strip_punct(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


class _PieceIds(dict):
    """raw whitespace-split piece -> token id in ``vocab`` (-1: pure punctuation), memoized."""

    def __init__(self):
        super().__init__()
        self.vocab: dict[str, int] = {}

    def __missing__(self, raw: str) -> int:
        tok = _strip_punct(_norm(raw))
        i = self[raw] = self.vocab.setdefault(tok, len(self.vocab)) if tok else -1
        return i


def tokenize(text: str) -> list[str]:
    """Split on Unicode whitespace, strip edge punctuation, NFC-normalize.

    Tokens that are pure punctuation vanish; duplicates are kept.
    """
    return [tok for tok in (_strip_punct(_norm(raw)) for raw in text.split()) if tok]


def _one_token(word: str, where: str) -> str:
    """``word`` if ``tokenize`` yields it as one token; an error naming ``where`` otherwise."""
    if tokenize(word) != [word]:
        raise tables.PanelFormatError(
            f"{where} {word!r} is not a single token "
            "(matching compares single tokens, so it could never match)"
        )
    return word


def _words(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, NFC word) of each non-blank line of a one-word-per-line file."""
    for lineno, line in enumerate(tables.read_lines(path), start=1):
        if word := _norm(line.strip()):
            yield lineno, word


def load_transcripts(path: str | Path) -> Iterator[TranscriptRecord]:
    """Read a transcript CSV (``content_id,publish_date,text``) row by row, as it is iterated.

    A one-shot iterator, so the text is never held at once: ``list()`` it to
    count or reread the records.  A bad header or row raises when reached.
    """
    for lineno, (content_id, date_str, text) in tables.read_rows(path, tables.TRANSCRIPTS.columns):
        pub = tables._parse_date(date_str, path, lineno, "publish_date")
        yield TranscriptRecord(content_id=content_id, publish_date=pub, text=text)


def build_days(records: Iterable[TranscriptRecord]) -> Days:
    """Concatenate same-day scripts (record order) into tokenized days, ascending by date.

    Records are tokenized as they arrive, so the whole text is never held.
    Each distinct raw piece is normalized once, and each token gets one id.
    """
    piece_ids = _PieceIds()
    by_date: dict[date, list[np.ndarray]] = {}
    for rec in records:
        ids = np.fromiter(map(piece_ids.__getitem__, rec.text.split()), np.int32)
        by_date.setdefault(rec.publish_date, []).append(ids[ids >= 0])
    days = [TranscriptDay(d, np.concatenate(by_date[d]), len(by_date[d])) for d in sorted(by_date)]
    return Days(days, piece_ids.vocab)


def load_firm_dictionary(
    names_path: str | Path, exclusions_path: str | Path | None = None
) -> FirmDictionary:
    """Read firm aliases (``firm_id,name`` CSV) and an optional exclusions file.

    A name listed in the exclusions file is removed from every firm entry;
    firms left with no names are dropped.  Every other name must be one
    token as ``tokenize`` yields it (no whitespace, no edge punctuation).
    """
    names_path = Path(names_path)
    exclusions = set() if exclusions_path is None else {name for _, name in _words(exclusions_path)}
    names: dict[str, list[str]] = {}
    for lineno, row in tables.read_rows(names_path, tables.FIRM_NAMES.columns):
        firm_id, name = row[0].strip(), _norm(row[1].strip())
        if not firm_id or not name:
            raise tables.PanelFormatError(f"{names_path}: row {lineno}: empty firm_id or name")
        firm_names = names.setdefault(firm_id, [])
        if name in exclusions:
            continue
        _one_token(name, f"{names_path}: row {lineno}: firm name")
        if name not in firm_names:
            firm_names.append(name)
    entries = [(fid, firm_names) for fid, firm_names in names.items() if firm_names]
    return FirmDictionary(entries=entries, exclusions=exclusions)


def extract_mentions(
    day: TranscriptDay, firms: FirmIndex, min_mentions: int = DEFAULT_MIN_MENTIONS
) -> MentionSet:
    """Count per-firm name occurrences in one day's tokens, by ``FirmDictionary.index``.

    Counts sum over all aliases of a firm; firms below ``min_mentions`` are
    dropped.  Dictionary entries already exclude suppressed names.
    """
    if min_mentions < 1:
        raise ValueError(f"min_mentions must be >= 1, got {min_mentions}")
    counts = np.bincount(firms.slot_of[day.tokens], minlength=len(firms.slots) + 1)
    totals = np.add.reduceat(counts[firms.slots], firms.starts).tolist()
    mentions = [(fid, n) for fid, n in zip(firms.firm_ids, totals) if n >= min_mentions]
    return MentionSet(date=day.date, mentions=mentions)
