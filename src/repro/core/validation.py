"""Answer validation at the aggregator.

Clients are potentially malicious (Section 2.2): besides answering multiple
times (handled by :mod:`repro.core.admission`) they can send structurally
invalid answers — wrong query id, wrong bit-vector length, out-of-range epoch,
or several bits set where the query model expects at most one.  The
:class:`AnswerValidator` centralizes these checks so the aggregator only feeds
well-formed answers into the estimator, and keeps counters so operators can
observe the rejection rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query import Query, QueryAnswer

_BINARY_BITS = frozenset((0, 1))


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validating one answer."""

    valid: bool
    reason: str = "ok"


@dataclass
class AnswerValidator:
    """Structural validation of decrypted answers against their query.

    Parameters
    ----------
    query:
        The query the answers must belong to.
    max_set_bits:
        Maximum number of 1-bits allowed in an answer.  The query model sets
        exactly one bucket for numeric queries, but randomized response can
        legitimately flip extra bits to 1, so the default allows any count;
        deployments whose queries use very small `q` can tighten it.
    max_epoch_drift:
        How far (in epochs) an answer's embedded epoch may differ from the
        epoch it arrived in; answers drifting further are rejected as replays.
    """

    query: Query
    max_set_bits: int | None = None
    max_epoch_drift: int = 2

    def __post_init__(self) -> None:
        self.rejected_by_reason: dict[str, int] = {}
        self.accepted = 0

    def validate(self, answer: QueryAnswer, arrival_epoch: int) -> ValidationResult:
        """Check one decrypted answer."""
        result = self._check(answer, arrival_epoch)
        if result.valid:
            self.accepted += 1
        else:
            self.rejected_by_reason[result.reason] = (
                self.rejected_by_reason.get(result.reason, 0) + 1
            )
        return result

    def validate_batch(self, answers: list[QueryAnswer], arrival_epoch: int) -> list[bool]:
        """Check many answers in one pass; returns one verdict per answer.

        Decision-for-decision and counter-for-counter identical to calling
        :meth:`validate` once per answer, but with the query constants bound
        once and without a :class:`ValidationResult` allocation per answer.
        The aggregator's one ingest path validates loose and undecodable
        block rows through this; :meth:`validate` stays as the per-answer
        reference the tests compare it against.
        """
        query_id = self.query.query_id
        num_buckets = self.query.num_buckets
        max_drift = self.max_epoch_drift
        max_set = self.max_set_bits
        rejected = self.rejected_by_reason
        verdicts = []
        append = verdicts.append
        accepted = 0
        for answer in answers:
            if answer.query_id != query_id:
                reason = "wrong query id"
            elif answer.num_buckets != num_buckets:
                reason = "wrong answer length"
            elif not _BINARY_BITS.issuperset(answer.bits):
                reason = "non-binary answer"
            elif answer.epoch < 0:
                reason = "negative epoch"
            elif abs(answer.epoch - arrival_epoch) > max_drift:
                reason = "epoch drift"
            elif max_set is not None and sum(answer.bits) > max_set:
                reason = "too many set bits"
            else:
                accepted += 1
                append(True)
                continue
            rejected[reason] = rejected.get(reason, 0) + 1
            append(False)
        self.accepted += accepted
        return verdicts

    def validate_uniform(
        self,
        query_id: str,
        num_bits: int,
        epoch: int,
        arrival_epoch: int,
        packed_bits: list[bytes],
    ) -> list[bool]:
        """Check many answers that share their query id, bit count and epoch.

        ``packed_bits`` holds each answer's bits packed eight to a byte (the
        :class:`~repro.core.encryption.AnswerCodec` layout, first bit high).
        Decision-for-decision and counter-for-counter identical to
        :meth:`validate_batch` over the decoded answers, but the shared
        fields are checked once and only a set-bit cap reads the bits —
        unpacked bits are binary by construction.
        """
        count = len(packed_bits)
        if not count:
            return []
        if query_id != self.query.query_id:
            reason = "wrong query id"
        elif num_bits != self.query.num_buckets:
            reason = "wrong answer length"
        elif epoch < 0:
            reason = "negative epoch"
        elif abs(epoch - arrival_epoch) > self.max_epoch_drift:
            reason = "epoch drift"
        elif self.max_set_bits is None:
            self.accepted += count
            return [True] * count
        else:
            reason = None
        if reason is not None:
            self.rejected_by_reason[reason] = self.rejected_by_reason.get(reason, 0) + count
            return [False] * count
        verdicts = []
        for bits in packed_bits:
            set_bits = (int.from_bytes(bits, "big") >> (8 * len(bits) - num_bits)).bit_count()
            verdicts.append(set_bits <= self.max_set_bits)
        accepted = verdicts.count(True)
        self.accepted += accepted
        if accepted < count:
            reason = "too many set bits"
            self.rejected_by_reason[reason] = (
                self.rejected_by_reason.get(reason, 0) + count - accepted
            )
        return verdicts

    def _check(self, answer: QueryAnswer, arrival_epoch: int) -> ValidationResult:
        if answer.query_id != self.query.query_id:
            return ValidationResult(False, "wrong query id")
        if answer.num_buckets != self.query.num_buckets:
            return ValidationResult(False, "wrong answer length")
        if any(bit not in (0, 1) for bit in answer.bits):
            return ValidationResult(False, "non-binary answer")
        if answer.epoch < 0:
            return ValidationResult(False, "negative epoch")
        if abs(answer.epoch - arrival_epoch) > self.max_epoch_drift:
            return ValidationResult(False, "epoch drift")
        if self.max_set_bits is not None and sum(answer.bits) > self.max_set_bits:
            return ValidationResult(False, "too many set bits")
        return ValidationResult(True)

    def total_rejected(self) -> int:
        return sum(self.rejected_by_reason.values())
