"""Phenotype synonym lexicon and multi-pattern term matching.

A lexicon groups synonym phrases under named phenotype categories.  The
matcher compiles every term into one prefix-trie regex that only matches
on token boundaries, scans each normalized sentence with it once, and
reports the owning group(s) of each hit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple

from .bundled import LEXICON, data_path
from .errors import InputError, csv_rows

LEXICON_HEADER = ("group_id", "term")

# Human-readable labels for the groups shipped in the default lexicon.
# User lexicons fall back to the group_id itself.
DEFAULT_DISPLAY_NAMES = {
    "fever_chills": "Fever / chills",
    "taste_smell_change": "Altered or diminished sense of taste or smell",
    "diarrhea": "Diarrhea",
    "gi_upset": "GI upset",
    "wheezing": "Wheezing",
    "respiratory_difficulty": "Respiratory difficulty",
    "respiratory_failure": "Respiratory failure",
    "cough": "Cough",
    "hemoptysis": "Hemoptysis",
    "chest_pain_pressure": "Chest pain/pressure",
    "congestion": "Congestion",
    "rhinitis": "Rhinitis",
    "myalgia_arthralgia": "Myalgia/Arthralgia",
    "generalized_symptoms": "Generalized symptoms",
    "fatigue": "Fatigue",
    "diaphoresis": "Diaphoresis",
    "pharyngitis": "Pharyngitis",
    "headache": "Headache",
    "dry_mouth": "Dry mouth",
    "appetite_change": "Change in appetite/intake",
    "conjunctivitis": "Conjunctivitis",
    "neuro": "Neuro",
    "cardiac": "Cardiac",
    "otitis": "Otitis",
    "dermatitis": "Dermatitis",
    "dysuria": "Dysuria",
}


def is_word_char(ch: str) -> bool:
    """Letters, digits and the apostrophe form tokens; all else separates."""
    return ch.isalnum() or ch == "'"


def normalize_term(raw: str) -> str:
    """Lowercase, collapse internal whitespace, strip surrounding punctuation.

    Idempotent: normalize_term(normalize_term(x)) == normalize_term(x).
    """
    s = " ".join(raw.lower().split())
    start, end = 0, len(s)
    while start < end and not is_word_char(s[start]):
        start += 1
    while end > start and not is_word_char(s[end - 1]):
        end -= 1
    return s[start:end]


def _caps_only(raw: str) -> bool:
    # Short all-uppercase abbreviations ("HA") must appear uppercase in the
    # source text; otherwise ordinary words would trigger them.
    stripped = raw.strip()
    return len(stripped) <= 3 and stripped.isupper()


@dataclass(frozen=True)
class PhenotypeGroup:
    group_id: str
    display_name: str
    terms: tuple[str, ...]  # normalized synonym phrases


class Mention(NamedTuple):
    """One matched synonym inside a sentence."""

    term: str  # normalized form of the matched synonym
    start: int  # character offsets into the original sentence
    end: int
    group_ids: frozenset[str]


class Lexicon:
    """Validated phenotype groups plus the inverted term index."""

    def __init__(
        self,
        groups: Iterable[PhenotypeGroup],
        caps_required: Iterable[str] = (),
    ):
        self.groups: tuple[PhenotypeGroup, ...] = tuple(groups)
        if not self.groups:
            raise InputError("lexicon contains no groups")
        index: dict[str, set[str]] = {}
        for group in self.groups:
            if not group.terms:
                raise InputError(f"group {group.group_id!r} has no terms")
            for term in group.terms:
                if not term or normalize_term(term) != term:
                    raise InputError(
                        f"group {group.group_id!r}: term {term!r} is not normalized"
                    )
                index.setdefault(term, set()).add(group.group_id)
        self.term_index: dict[str, frozenset[str]] = {
            t: frozenset(g) for t, g in index.items()
        }
        self.display_names: dict[str, str] = {
            g.group_id: g.display_name for g in self.groups
        }
        # Terms that must appear uppercase in source text.  A term is
        # caps-restricted only if every raw spelling that produced it was.
        self.caps_required: frozenset[str] = frozenset(caps_required)

    @property
    def group_ids(self) -> tuple[str, ...]:
        return tuple(g.group_id for g in self.groups)


def load_lexicon(source: IO[str] | str) -> Lexicon:
    """Parse a two-column ``group_id,term`` CSV stream into a Lexicon.

    Raises InputError (with the offending line number) for a missing or
    wrong header, blank fields, terms that normalize to nothing, or an
    exactly repeated record.
    """
    order: list[str] = []
    terms_by_group: dict[str, list[str]] = {}
    seen_records: set[tuple[str, str]] = set()
    caps_votes: dict[str, bool] = {}
    for lineno, (raw_group, raw_term) in csv_rows(source, "lexicon", LEXICON_HEADER):
        group_id = raw_group.strip()
        if not group_id:
            raise InputError(f"lexicon line {lineno}: empty group_id")
        term = normalize_term(raw_term)
        if not term:
            raise InputError(f"lexicon line {lineno}: empty term")
        record = (group_id, term)
        if record in seen_records:
            raise InputError(
                f"lexicon line {lineno}: duplicate record {group_id},{term}"
            )
        seen_records.add(record)
        if group_id not in terms_by_group:
            order.append(group_id)
            terms_by_group[group_id] = []
        terms_by_group[group_id].append(term)
        caps = _caps_only(raw_term)
        caps_votes[term] = caps_votes.get(term, True) and caps

    groups = [
        PhenotypeGroup(
            group_id=g,
            display_name=DEFAULT_DISPLAY_NAMES.get(g, g),
            terms=tuple(terms_by_group[g]),
        )
        for g in order
    ]
    return Lexicon(groups, (t for t, caps in caps_votes.items() if caps))


def default_lexicon_path() -> str:
    return data_path(LEXICON)


def load_default_lexicon() -> Lexicon:
    return load_lexicon(default_lexicon_path())


# Maximal runs of is_word_char; "[^\W_]" is exactly str.isalnum.  The
# inner "+" lets the engine take a whole alphanumeric stretch per step.
_WORD_RUN_RE = re.compile(r"(?:[^\W_]+|')+")
_IRREGULAR_SPACE_RE = re.compile(r"[^\S ]|  ")


def token_pattern(words: Iterable[str]) -> str:
    """Regex matching any of ``words`` as a whole is_word_char token run.

    The words form a character trie, so the engine follows one branch
    per character, and each optional tail is greedy: at a given start
    the longest word that ends on a token boundary wins.
    """
    trie: dict = {}
    for word in words:
        node = trie
        for ch in word:
            node = node.setdefault(ch, {})
        node[""] = {}  # a word ends here
    return r"(?<![^\W_])(?<!')" + _trie_pattern(trie) + r"(?![^\W_]|')"


def _trie_pattern(node: dict) -> str:
    branches = [re.escape(ch) + _trie_pattern(child)
                for ch, child in sorted(node.items()) if ch]
    if "" not in node:
        return branches[0] if len(branches) == 1 else "(?:" + "|".join(branches) + ")"
    return "(?:" + "|".join(branches) + ")?" if branches else ""


class TermMatcher:
    """Immutable multi-pattern matcher built from a lexicon.

    Matching is case-insensitive except for caps-restricted terms, runs on
    token boundaries, and resolves overlaps by letting the longest match
    starting earliest win; matches beginning inside a winning span are
    suppressed.  The winning term reports every group that lists it.

    A normalized term starts where a word run starts and ends where one
    ends, so one scan with the lexicon's token_pattern finds exactly the
    winning terms.  When a caps-restricted winner is not uppercase in the
    source, a shorter term may win at that start instead, so that
    sentence is matched again by trying, at each word run, the terms
    indexed under that run in decreasing length.
    """

    def __init__(self, lexicon: Lexicon):
        caps = lexicon.caps_required
        self._terms: dict[str, tuple[frozenset[str], str | None]] = {
            term: (groups, term.upper() if term in caps else None)
            for term, groups in lexicon.term_index.items()
        }
        self._regex = re.compile(token_pattern(self._terms))
        by_first: dict[str, list[str]] = {}
        for term in self._terms:
            by_first.setdefault(_WORD_RUN_RE.match(term).group(), []).append(term)
        for entries in by_first.values():
            entries.sort(key=len, reverse=True)
        self._by_first = by_first

    @property
    def pattern_count(self) -> int:
        return len(self._terms)

    @property
    def terms(self) -> Iterable[str]:
        return self._terms.keys()

    def find_mentions(self, sentence: str) -> list[Mention]:
        norm, positions = _normalize_sentence(sentence)
        terms = self._terms
        mentions: list[Mention] = []
        for match in self._regex.finditer(norm):
            term = match.group()
            groups, upper = terms[term]
            start, end = _orig_span(positions, *match.span())
            if upper is not None and sentence[start:end] != upper:
                return self._find_by_runs(sentence, norm, positions)
            mentions.append(Mention(term, start, end, groups))
        return mentions

    def _find_by_runs(
        self, sentence: str, norm: str, positions: list[int] | None
    ) -> list[Mention]:
        n = len(norm)
        mentions: list[Mention] = []
        consumed = 0
        for run in _WORD_RUN_RE.finditer(norm):
            start = run.start()
            if start < consumed:
                continue
            for term in self._by_first.get(run.group(), ()):
                end = start + len(term)
                if not norm.startswith(term, start):
                    continue
                if end < n and is_word_char(norm[end]):
                    continue
                groups, upper = self._terms[term]
                ostart, oend = _orig_span(positions, start, end)
                if upper is not None and sentence[ostart:oend] != upper:
                    continue
                mentions.append(Mention(term, ostart, oend, groups))
                consumed = end
                break
        return mentions


def _normalize_sentence(sentence: str) -> tuple[str, list[int] | None]:
    """Lowercased, whitespace-collapsed view plus index map to original.

    Returns (normalized, positions); positions is None when the
    normalized text aligns one-to-one with the original.
    """
    if _IRREGULAR_SPACE_RE.search(sentence) is None:
        lowered = sentence.lower()
        if len(lowered) == len(sentence):
            return lowered, None
    chars: list[str] = []
    positions: list[int] = []
    for i, ch in enumerate(sentence):
        if ch.isspace():
            if chars and chars[-1] == " ":
                continue
            chars.append(" ")
            positions.append(i)
        else:
            low = ch.lower()
            chars.append(low if len(low) == 1 else ch)
            positions.append(i)
    return "".join(chars), positions


def _orig_span(positions: list[int] | None, start: int, end: int) -> tuple[int, int]:
    if positions is None:
        return start, end
    return positions[start], positions[end - 1] + 1


def build_matcher(lexicon: Lexicon) -> TermMatcher:
    return TermMatcher(lexicon)
