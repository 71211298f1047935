"""Transcript ingestion: daily concatenation, tokenization, firm-mention extraction.

Raw transcript rows are merged per calendar day, split into tokens, and
matched against a firm-name dictionary.  Matching is exact token equality
after NFC normalization; common-noun-like names can be suppressed through
an exclusion list.
"""

from __future__ import annotations

import csv
import unicodedata
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

DEFAULT_MIN_MENTIONS = 3


class TranscriptFormatError(ValueError):
    """Malformed transcript or dictionary input file."""


@dataclass
class TranscriptRecord:
    content_id: str
    publish_date: date
    text: str


@dataclass
class TranscriptDay:
    """All of one calendar day's scripts, concatenated and tokenized."""

    date: date
    tokens: list[str]
    source_count: int


@dataclass
class FirmDictionary:
    """Firm aliases plus an exclusion list; excluded names never match."""

    entries: list[tuple[str, list[str]]]
    exclusions: set[str] = field(default_factory=set)

    def names_by_firm(self) -> dict[str, list[str]]:
        return {firm_id: list(names) for firm_id, names in self.entries}


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


class _TokenMemo(dict):
    """raw whitespace-split piece -> its token ('' for pure punctuation), filled on first sight."""

    def __missing__(self, raw: str) -> str:
        tok = self[raw] = _strip_punct(_norm(raw))
        return tok


def _tokenize(text: str, memo: _TokenMemo) -> list[str]:
    return [tok for tok in map(memo.__getitem__, text.split()) if tok]


def tokenize(text: str) -> list[str]:
    """Split on Unicode whitespace, strip edge punctuation, NFC-normalize.

    Tokens that are pure punctuation vanish; duplicates are kept.
    """
    return _tokenize(text, _TokenMemo())


def load_transcripts(path: str | Path) -> list[TranscriptRecord]:
    """Read a transcript CSV (``content_id,publish_date,text``) in row order."""
    path = Path(path)
    records = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["content_id", "publish_date", "text"]:
            raise TranscriptFormatError(
                f"{path}: expected header 'content_id,publish_date,text', got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise TranscriptFormatError(f"{path}: row {lineno}: expected 3 fields, got {len(row)}")
            content_id, date_str, text = row
            try:
                pub = date.fromisoformat(date_str.strip())
            except ValueError:
                raise TranscriptFormatError(
                    f"{path}: row {lineno}: field 'publish_date': invalid date {date_str!r}"
                ) from None
            records.append(TranscriptRecord(content_id=content_id, publish_date=pub, text=text))
    return records


def build_days(records: list[TranscriptRecord]) -> list[TranscriptDay]:
    """Concatenate same-day scripts (record order) into tokenized days, ascending by date.

    Each distinct raw piece is normalized once per call, and equal tokens
    share one string.
    """
    memo = _TokenMemo()
    by_date: dict[date, TranscriptDay] = {}
    for rec in records:
        day = by_date.get(rec.publish_date)
        if day is None:
            day = TranscriptDay(date=rec.publish_date, tokens=[], source_count=0)
            by_date[rec.publish_date] = day
        day.tokens.extend(_tokenize(rec.text, memo))
        day.source_count += 1
    return [by_date[d] for d in sorted(by_date)]


def load_firm_dictionary(
    names_path: str | Path, exclusions_path: str | Path | None = None
) -> FirmDictionary:
    """Read firm aliases (``firm_id,name`` CSV) and an optional exclusions file.

    A name listed in the exclusions file is removed from every firm entry;
    firms left with no names are dropped.  Every other name must be one
    token as ``tokenize`` yields it (no whitespace, no edge punctuation).
    """
    names_path = Path(names_path)
    exclusions: set[str] = set()
    if exclusions_path is not None:
        with Path(exclusions_path).open(encoding="utf-8") as fh:
            for line in fh:
                name = _norm(line.strip())
                if name:
                    exclusions.add(name)

    order: list[str] = []
    names: dict[str, list[str]] = {}
    with names_path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["firm_id", "name"]:
            raise TranscriptFormatError(
                f"{names_path}: expected header 'firm_id,name', got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise TranscriptFormatError(
                    f"{names_path}: row {lineno}: expected 2 fields, got {len(row)}"
                )
            firm_id, name = row[0].strip(), _norm(row[1].strip())
            if not firm_id or not name:
                raise TranscriptFormatError(f"{names_path}: row {lineno}: empty firm_id or name")
            if firm_id not in names:
                names[firm_id] = []
                order.append(firm_id)
            if name in exclusions:
                continue
            if tokenize(name) != [name]:
                raise TranscriptFormatError(
                    f"{names_path}: row {lineno}: firm name {name!r} is not a single token "
                    "(matching compares single tokens, so it could never match)"
                )
            if name not in names[firm_id]:
                names[firm_id].append(name)

    entries = [(fid, names[fid]) for fid in order if names[fid]]
    return FirmDictionary(entries=entries, exclusions=exclusions)


def extract_mentions(
    day: TranscriptDay, dictionary: FirmDictionary, min_mentions: int = DEFAULT_MIN_MENTIONS
) -> MentionSet:
    """Count per-firm name occurrences in one day's tokens.

    Counts sum over all aliases of a firm; firms below ``min_mentions`` are
    dropped.  Dictionary entries already exclude suppressed names.
    """
    if min_mentions < 1:
        raise ValueError(f"min_mentions must be >= 1, got {min_mentions}")
    counts: dict[str, int] = {}
    for tok in day.tokens:
        counts[tok] = counts.get(tok, 0) + 1
    mentions = []
    for firm_id, names in dictionary.entries:
        total = sum(counts.get(name, 0) for name in names)
        if total >= min_mentions:
            mentions.append((firm_id, total))
    return MentionSet(date=day.date, mentions=mentions)
