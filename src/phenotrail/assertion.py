"""Assertion classification of symptom mentions and its evaluation.

Every mention gets one of four labels: YES (present), NO (denied or
absent), MAYBE (suspected), OTHER (family history, education material
and similar).  The classifier seam is a small interface so an external
model can be plugged in through a batch file protocol; the shipped
implementation is a cue-window rule engine whose cue lists live in a
JSON config file.
"""

from __future__ import annotations

import enum
import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Protocol, Sequence

from .bundled import ASSERTION_RULES, data_path
from .errors import InputError, csv_rows, json_value, open_text
from .lexicon import is_word_char, token_pattern


class AssertionLabel(enum.Enum):
    YES = "YES"
    NO = "NO"
    MAYBE = "MAYBE"
    OTHER = "OTHER"


LABELS = tuple(AssertionLabel)


class Classifier(Protocol):
    """Classifies one mention inside one sentence.

    Implementations must be pure functions of ``(sentence, span)``, as
    curation classifies each distinct sentence once and reuses its labels,
    and safe to share between workers once constructed.
    """

    def classify(
        self, sentence: str, span: tuple[int, int]
    ) -> tuple[AssertionLabel, float]: ...


# A word run (as lexicon._WORD_RUN_RE) or a semicolon.
_TOKEN_RE = re.compile(r"(?:[^\W_]+|')+|;")


def _token_tuple(phrase: str) -> tuple[str, ...]:
    return tuple(t.lower() for t in _TOKEN_RE.findall(phrase))


@dataclass(frozen=True)
class RuleConfig:
    window_before: int
    window_after: int
    scope_breakers: frozenset[str]
    negation_cues: tuple[tuple[str, ...], ...]
    uncertainty_cues: tuple[tuple[str, ...], ...]
    attribution_cues: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        for side in ("window_before", "window_after"):
            size = getattr(self, side)
            if size < 0:
                raise InputError(f"{side} must be >= 0, got {size}")

    @classmethod
    def from_dict(cls, raw: dict) -> "RuleConfig":
        def cues(key: str) -> tuple[tuple[str, ...], ...]:
            tokenized = tuple(_token_tuple(c) for c in raw[key])
            for raw_cue, cue in zip(raw[key], tokenized):
                if not cue:
                    raise InputError(f"{key}: cue {raw_cue!r} has no tokens")
            return tokenized

        return cls(
            window_before=int(raw["window_before"]),
            window_after=int(raw["window_after"]),
            scope_breakers=frozenset(s.lower() for s in raw["scope_breakers"]),
            negation_cues=cues("negation_cues"),
            uncertainty_cues=cues("uncertainty_cues"),
            attribution_cues=cues("attribution_cues"),
        )

    @classmethod
    def load(cls) -> "RuleConfig":
        """The bundled rules."""
        with open(data_path(ASSERTION_RULES), "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


class RuleClassifier:
    """Cue-window reference classifier.

    Scans a bounded token window on each side of the mention (a window
    of 0 switches that side off); scope breakers end a window early so
    clauses do not leak cues into each other.  Cue precedence when
    several fire: OTHER > NO > MAYBE > YES.  Confidence is always 1.0.

    A cue can fire only if its first token lies in a window, so an ASCII
    sentence in which no cue's first token occurs labels every mention
    YES without tokenizing it; one regex search of the lowercased
    sentence decides that.  (Lowercasing can change the tokens of other
    text, so its windows are always built.)
    """

    def __init__(self, config: RuleConfig | None = None):
        self._config = cfg = config or RuleConfig.load()
        # A window side is matched as " tok tok ... " text, so a cue
        # occurs in it exactly when " cue tokens " is a substring.
        self._cues = tuple(
            (label, tuple(f" {' '.join(cue)} " for cue in cues))
            for label, cues in ((AssertionLabel.OTHER, cfg.attribution_cues),
                                (AssertionLabel.NO, cfg.negation_cues),
                                (AssertionLabel.MAYBE, cfg.uncertainty_cues))
        )
        # Cue tokens are word runs or ";", which needs no token boundary.
        starts = {cue[0] for cues in (cfg.attribution_cues, cfg.negation_cues,
                                      cfg.uncertainty_cues) for cue in cues}
        words = starts - {";"}
        pattern = token_pattern(words) if words else "(?!)"
        if ";" in starts:
            pattern += "|;"
        self._cue_start_re = re.compile(pattern)

    @property
    def config(self) -> RuleConfig:
        """Read-only, because the cue index is built from it."""
        return self._config

    def classify(
        self, sentence: str, span: tuple[int, int]
    ) -> tuple[AssertionLabel, float]:
        start, end = span
        if not (0 <= start < end <= len(sentence)):
            raise InputError(f"mention span {span} outside sentence bounds")
        if sentence.isascii() and self._cue_start_re.search(sentence.lower()) is None:
            return AssertionLabel.YES, 1.0
        cfg = self._config
        breakers = cfg.scope_breakers

        # Tokens ending at or before the mention, nearest first, up to a
        # scope breaker; the text before the mention also yields the head
        # of a token that the mention starts inside of.
        before = [t.lower() for t in _TOKEN_RE.findall(sentence, 0, start)]
        if start and is_word_char(sentence[start - 1]) and is_word_char(sentence[start]):
            before.pop()
        before = before[-cfg.window_before:] if cfg.window_before else []
        for k in range(len(before) - 1, -1, -1):
            if before[k] in breakers:
                before = before[k + 1:]
                break
        # Tokens starting at or after the mention, likewise.
        after = [t.lower() for t in _TOKEN_RE.findall(sentence, end)]
        if end < len(sentence) and is_word_char(sentence[end - 1]) and is_word_char(sentence[end]):
            del after[0]
        after = after[:cfg.window_after]
        for k, word in enumerate(after):
            if word in breakers:
                after = after[:k]
                break

        # "|" is no token, so no cue can span the two sides.
        window = f" {' '.join(before)} | {' '.join(after)} "
        for label, cues in self._cues:
            if any(cue in window for cue in cues):
                return label, 1.0
        return AssertionLabel.YES, 1.0


# ---------------------------------------------------------------------------
# Evaluation metrics


@dataclass(frozen=True)
class EvalMetrics:
    n_total: int
    accuracy: float
    per_label: dict[AssertionLabel, tuple[float, float, float]]  # P, R, F1
    tpr: float
    fpr: float
    fnr: float


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def evaluate(
    gold: Sequence[AssertionLabel], predicted: Sequence[AssertionLabel]
) -> EvalMetrics:
    """Accuracy, one-vs-rest P/R/F1 per label, and YES-vs-rest rates.

    The binary collapse treats YES as the positive class and NO, MAYBE
    and OTHER together as negative.  Degenerate denominators yield 0.
    """
    if len(gold) != len(predicted):
        raise InputError(
            f"gold and predicted lengths differ: {len(gold)} vs {len(predicted)}"
        )
    if not gold:
        raise InputError("cannot evaluate an empty label sequence")

    n = len(gold)
    pairs = Counter(zip(gold, predicted))  # (gold, predicted) -> how many
    gold_n, pred_n = Counter(), Counter()
    for (g, p), count in pairs.items():
        gold_n[g] += count
        pred_n[p] += count
    correct = sum(count for (g, p), count in pairs.items() if g == p)

    per_label: dict[AssertionLabel, tuple[float, float, float]] = {}
    for lab in LABELS:
        if gold_n[lab] or pred_n[lab]:
            precision = _safe_div(pairs[lab, lab], pred_n[lab])
            recall = _safe_div(pairs[lab, lab], gold_n[lab])
            f1 = _safe_div(2 * precision * recall, precision + recall)
            per_label[lab] = (precision, recall, f1)

    yes = AssertionLabel.YES
    tp = pairs[yes, yes]
    fn = gold_n[yes] - tp
    fp = pred_n[yes] - tp
    tn = n - tp - fn - fp

    return EvalMetrics(
        n_total=n,
        accuracy=correct / n,
        per_label=per_label,
        tpr=_safe_div(tp, tp + fn),
        fpr=_safe_div(fp, fp + tn),
        fnr=_safe_div(fn, tp + fn),
    )


# ---------------------------------------------------------------------------
# External classifier batch protocol and gold-label files


def write_classification_requests(
    tasks: Iterable[tuple[str, int, int]], stream: IO[str]
) -> int:
    """Emit one JSON line per (sentence, span_start, span_end) task."""
    count = 0
    for sentence, span_start, span_end in tasks:
        stream.write(
            json.dumps(
                {"sentence": sentence, "span_start": span_start, "span_end": span_end},
                ensure_ascii=False,
            )
            + "\n"
        )
        count += 1
    return count


def read_classification_responses(
    source: IO[str] | str, expected: int
) -> list[tuple[AssertionLabel, float]]:
    """Parse classifier responses, enforcing ordered 1:1 correspondence."""
    if isinstance(source, str):
        with open_text(source, "responses") as handle:
            return read_classification_responses(handle, expected)
    responses: list[tuple[AssertionLabel, float]] = []
    for lineno, line in enumerate(source, start=1):
        if not line.strip():
            continue
        obj = json_value(line, f"responses line {lineno}")
        try:
            label = AssertionLabel(str(obj["label"]).upper())
        except (KeyError, ValueError):
            raise InputError(
                f"responses line {lineno}: label must be one of "
                f"{[lab.value for lab in LABELS]}"
            ) from None
        try:
            confidence = float(obj["confidence"])
        except (KeyError, TypeError, ValueError):
            raise InputError(f"responses line {lineno}: missing numeric confidence") from None
        if not 0.0 <= confidence <= 1.0:
            raise InputError(f"responses line {lineno}: confidence outside [0,1]")
        responses.append((label, confidence))
    if len(responses) != expected:
        raise InputError(
            f"expected {expected} classifier responses, got {len(responses)}"
        )
    return responses


GOLD_HEADER = ("sentence_id", "mention_index", "label")
_LABEL_OF = {lab.value: lab for lab in LABELS}


def label_rows(
    source: IO[str] | str, what: str
) -> Iterator[tuple[int, tuple[str, int], AssertionLabel]]:
    """(line, (sentence_id, mention_index), label) per row of a
    ``sentence_id,mention_index,label`` CSV; errors name ``what``."""
    for lineno, (sentence_id, raw_index, raw_label) in csv_rows(source, what, GOLD_HEADER):
        try:
            mention_index = int(raw_index.strip())
        except ValueError:
            raise InputError(f"{what} line {lineno}: mention_index must be an integer") from None
        label = _LABEL_OF.get(raw_label) or _LABEL_OF.get(raw_label.strip().upper())
        if label is None:
            raise InputError(
                f"{what} line {lineno}: label must be one of {[lab.value for lab in LABELS]}")
        yield lineno, (sentence_id.strip(), mention_index), label


def load_gold_labels(
    source: IO[str] | str, what: str = "gold"
) -> dict[tuple[str, int], AssertionLabel]:
    """The labels of a ``label_rows`` file by key; a repeated key is refused."""
    labels = {}
    for lineno, key, label in label_rows(source, what):
        if key in labels:
            raise InputError(f"{what} line {lineno}: duplicate key {key}")
        labels[key] = label
    return labels
