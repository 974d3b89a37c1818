"""Assertion classification of symptom mentions and its evaluation.

Every mention gets one of four labels: YES (present), NO (denied or
absent), MAYBE (suspected), OTHER (family history, education material
and similar).  The classifier seam is a small interface so an external
model can be plugged in through a batch file protocol; the shipped
implementation is a cue-window rule engine whose cue lists live in a
JSON config file.
"""

from __future__ import annotations

import csv
import enum
import json
import re
from dataclasses import dataclass
from typing import IO, Iterable, Protocol, Sequence

from .bundled import ASSERTION_RULES, data_path
from .errors import InputError
from .lexicon import Mention


class AssertionLabel(enum.Enum):
    YES = "YES"
    NO = "NO"
    MAYBE = "MAYBE"
    OTHER = "OTHER"


LABELS = tuple(AssertionLabel)


class Classifier(Protocol):
    """Classifies one mention inside one sentence.

    Implementations must be deterministic and safe to share between
    workers once constructed.
    """

    descriptor: str

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
    def load(cls, source: IO[str] | str | None = None) -> "RuleConfig":
        if source is None:
            source = data_path(ASSERTION_RULES)
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                return cls.from_dict(json.load(handle))
        return cls.from_dict(json.load(source))


class RuleClassifier:
    """Cue-window reference classifier.

    Scans a bounded token window on each side of the mention; scope
    breakers end a window early so clauses do not leak cues into each
    other.  Cue precedence when several fire: OTHER > NO > MAYBE > YES.
    Confidence is always 1.0.

    Each sentence is tokenized once for all of its mentions.  A cue can
    fire only if its first token lies in a window, so a sentence holding
    no cue's first token labels every mention YES without a window.
    """

    def __init__(self, config: RuleConfig | None = None):
        self._config = cfg = config or RuleConfig.load()
        self.descriptor = "rule-window/v1"
        self._cue_starts = frozenset(
            cue[0]
            for cues in (cfg.attribution_cues, cfg.negation_cues, cfg.uncertainty_cues)
            for cue in cues
        )
        # (sentence, its (lowercased token, start, end) list or None when
        # no cue can fire); replaced as a whole so sharing stays safe.
        self._last: tuple[str, list[tuple[str, int, int]] | None] = ("", None)

    @property
    def config(self) -> RuleConfig:
        """Read-only, because the cue-start index is built from it."""
        return self._config

    def _tokens(self, sentence: str) -> list[tuple[str, int, int]] | None:
        last_sentence, tokens = self._last
        if sentence != last_sentence:
            if self._cue_starts.isdisjoint(map(str.lower, _TOKEN_RE.findall(sentence))):
                tokens = None
            else:
                tokens = [(m.group().lower(), m.start(), m.end())
                          for m in _TOKEN_RE.finditer(sentence)]
            self._last = (sentence, tokens)
        return tokens

    def classify(
        self, sentence: str, span: tuple[int, int]
    ) -> tuple[AssertionLabel, float]:
        start, end = span
        if not (0 <= start < end <= len(sentence)):
            raise InputError(f"mention span {span} outside sentence bounds")
        tokens = self._tokens(sentence)
        if tokens is None:
            return AssertionLabel.YES, 1.0
        cfg = self._config

        before: list[str] = []
        for text, _t_start, t_end in reversed(tokens):
            if t_end > start:
                continue
            if text in cfg.scope_breakers:
                break
            before.append(text)
            if len(before) >= cfg.window_before:
                break
        before.reverse()

        after: list[str] = []
        for text, t_start, _t_end in tokens:
            if t_start < end:
                continue
            if text in cfg.scope_breakers:
                break
            after.append(text)
            if len(after) >= cfg.window_after:
                break

        window = (tuple(before), tuple(after))
        if _any_cue(window, cfg.attribution_cues):
            return AssertionLabel.OTHER, 1.0
        if _any_cue(window, cfg.negation_cues):
            return AssertionLabel.NO, 1.0
        if _any_cue(window, cfg.uncertainty_cues):
            return AssertionLabel.MAYBE, 1.0
        return AssertionLabel.YES, 1.0

    def classify_mention(
        self, sentence: str, mention: Mention
    ) -> tuple[AssertionLabel, float]:
        return self.classify(sentence, (mention.start, mention.end))


def _any_cue(
    window: tuple[tuple[str, ...], tuple[str, ...]],
    cues: tuple[tuple[str, ...], ...],
) -> bool:
    for side in window:
        for cue in cues:
            width = len(cue)
            if width == 1:
                if cue[0] in side:
                    return True
            else:
                for i in range(len(side) - width + 1):
                    if side[i:i + width] == cue:
                        return True
    return False


def classify_rule_based(
    sentence: str, mention: Mention, config: RuleConfig | None = None
) -> tuple[AssertionLabel, float]:
    """Convenience wrapper around RuleClassifier for one-off calls."""
    return RuleClassifier(config).classify_mention(sentence, mention)


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
    correct = sum(1 for g, p in zip(gold, predicted) if g == p)

    per_label: dict[AssertionLabel, tuple[float, float, float]] = {}
    present = [lab for lab in LABELS if any(g == lab for g in gold)
               or any(p == lab for p in predicted)]
    for lab in present:
        tp = sum(1 for g, p in zip(gold, predicted) if g == lab and p == lab)
        pred_pos = sum(1 for p in predicted if p == lab)
        gold_pos = sum(1 for g in gold if g == lab)
        precision = _safe_div(tp, pred_pos)
        recall = _safe_div(tp, gold_pos)
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_label[lab] = (precision, recall, f1)

    yes = AssertionLabel.YES
    tp = sum(1 for g, p in zip(gold, predicted) if g == yes and p == yes)
    fn = sum(1 for g, p in zip(gold, predicted) if g == yes and p != yes)
    fp = sum(1 for g, p in zip(gold, predicted) if g != yes and p == yes)
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
        with open(source, "r", encoding="utf-8") as handle:
            return read_classification_responses(handle, expected)
    responses: list[tuple[AssertionLabel, float]] = []
    for lineno, line in enumerate(source, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"responses line {lineno}: invalid JSON ({exc.msg})") from None
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


class PrecomputedClassifier:
    """Replays externally produced labels in request order."""

    def __init__(self, responses: Sequence[tuple[AssertionLabel, float]], descriptor: str = "external-batch/v1"):
        self._responses = list(responses)
        self._cursor = 0
        self.descriptor = descriptor

    def classify(
        self, sentence: str, span: tuple[int, int]
    ) -> tuple[AssertionLabel, float]:
        if self._cursor >= len(self._responses):
            raise InputError("classifier response stream exhausted")
        response = self._responses[self._cursor]
        self._cursor += 1
        return response


GOLD_HEADER = ("sentence_id", "mention_index", "label")


def write_gold_labels(
    rows: Iterable[tuple[str, int, AssertionLabel]], stream: IO[str]
) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(GOLD_HEADER)
    for sentence_id, mention_index, label in rows:
        writer.writerow([sentence_id, mention_index, label.value])


def load_gold_labels(source: IO[str] | str) -> dict[tuple[str, int], AssertionLabel]:
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return load_gold_labels(handle)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("gold label file is empty") from None
    if tuple(h.strip() for h in header) != GOLD_HEADER:
        raise InputError(
            f"gold label header must be {','.join(GOLD_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )
    labels: dict[tuple[str, int], AssertionLabel] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise InputError(f"gold line {lineno}: expected 3 fields, got {len(row)}")
        sentence_id, raw_index, raw_label = (f.strip() for f in row)
        try:
            mention_index = int(raw_index)
        except ValueError:
            raise InputError(f"gold line {lineno}: mention_index must be an integer") from None
        try:
            label = AssertionLabel(raw_label.upper())
        except ValueError:
            raise InputError(
                f"gold line {lineno}: label must be one of {[lab.value for lab in LABELS]}"
            ) from None
        key = (sentence_id, mention_index)
        if key in labels:
            raise InputError(f"gold line {lineno}: duplicate key {key}")
        labels[key] = label
    return labels
