"""Answer admission control: duplicate and rate-limit defenses.

Section 3.2.4 notes that "an adversarial client might answer a query many
times in an attempt to distort the query result", and points at the answer
splitting technique of SplitX as a remedy.  The defense implemented here keeps
the synchronization-free property of PrivApprox:

* every client puts a **per-epoch participation token** in its message ``M``:
  16 raw bytes of keyed BLAKE2b over the query id and the epoch, under a
  per-client secret, so it is stable within an epoch, unlinkable across
  epochs, and reveals nothing about the client's identity to the aggregator;
* the aggregator's :class:`AnswerAdmissionController` admits at most one
  answer per (query, epoch, token) and tracks how many duplicates it refused;
* a global per-epoch rate limit bounds the damage of a flood of fabricated
  tokens (Sybil defenses proper are out of scope, as in the paper).

Because the token is derived client-side and checked aggregator-side, no proxy
coordination is required.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: Bytes in a participation token: a 16-byte keyed BLAKE2b, sent raw.
PARTICIPATION_TOKEN_LENGTH = 16


def participation_token(client_secret: bytes, query_id: str, epoch: int) -> bytes:
    """Anonymous, epoch-scoped participation token.

    The token is a MAC over (query id, epoch) — keyed BLAKE2b under the
    client's local secret (at most 64 bytes), the primitive behind every
    client draw (:mod:`repro.core.seeding`): stable for one epoch (so
    duplicates collide), but different and unlinkable across epochs and
    queries (so the aggregator cannot track a client over time).  It is the
    raw 16-byte digest, the form the message ``M`` carries it in.  The
    one-row case of :func:`participation_tokens`.
    """
    return participation_tokens([client_secret], query_id, epoch)[0]


def participation_tokens(client_secrets, query_id: str, epoch: int) -> list[bytes]:
    """Each client secret's :func:`participation_token` for one query and epoch.

    The column form a shard's block takes its tokens in: the inputs are
    checked once, ``f"{query_id}|{epoch}"`` is encoded once, then one keyed
    BLAKE2b runs per secret.
    """
    if not all(client_secrets):
        raise ValueError("client secret must not be empty")
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    message = f"{query_id}|{epoch}".encode("utf-8")
    blake2b = hashlib.blake2b
    return [
        blake2b(message, key=secret, digest_size=PARTICIPATION_TOKEN_LENGTH).digest()
        for secret in client_secrets
    ]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of admitting one answer."""

    admitted: bool
    reason: str = "ok"


@dataclass
class AnswerAdmissionController:
    """Aggregator-side duplicate suppression and rate limiting.

    Parameters
    ----------
    max_answers_per_epoch:
        Optional global cap on admitted answers per (query, epoch); ``None``
        disables the cap.  The cap is a blunt defense against token-forging
        floods — it bounds how much a group of malicious clients can inflate
        the answer count.
    """

    max_answers_per_epoch: int | None = None

    def __post_init__(self) -> None:
        self._seen: dict[tuple[str, int], set[bytes]] = {}
        self._admitted_counts: dict[tuple[str, int], int] = {}
        self.duplicates_rejected = 0
        self.rate_limited = 0

    def admit(self, query_id: str, epoch: int, token: bytes) -> AdmissionDecision:
        """Decide whether to accept one answer for aggregation."""
        if not token:
            return AdmissionDecision(admitted=False, reason="missing token")
        key = (query_id, epoch)
        seen = self._seen.setdefault(key, set())
        if token in seen:
            self.duplicates_rejected += 1
            return AdmissionDecision(admitted=False, reason="duplicate token")
        count = self._admitted_counts.get(key, 0)
        if self.max_answers_per_epoch is not None and count >= self.max_answers_per_epoch:
            self.rate_limited += 1
            return AdmissionDecision(admitted=False, reason="epoch rate limit")
        seen.add(token)
        self._admitted_counts[key] = count + 1
        return AdmissionDecision(admitted=True)

    def admit_batch(
        self, query_id: str, items: list[tuple[int, bytes]]
    ) -> list[bool]:
        """Admit many ``(epoch, token)`` answers in arrival order.

        Decision-for-decision and counter-for-counter identical to calling
        :meth:`admit` once per item, without an :class:`AdmissionDecision`
        per answer.  A batch whose tokens are all for one epoch, non-empty,
        distinct, none seen before and within the cap — a block of honest
        answers — is admitted as a column: one ``set.update``.  Any other
        batch is decided item by item, the per-epoch seen-set and admitted
        count resolved once per distinct epoch.  The aggregator's one
        ingest path admits through this; :meth:`admit` stays as the
        per-answer reference the tests compare it against.
        """
        if not items:
            return []
        max_answers = self.max_answers_per_epoch
        epochs, tokens = zip(*items)
        if epochs.count(epochs[0]) == len(epochs) and all(tokens):
            key = (query_id, epochs[0])
            batch = set(tokens)
            count = self._admitted_counts.get(key, 0) + len(tokens)
            if (
                len(batch) == len(tokens)
                and (max_answers is None or count <= max_answers)
                and batch.isdisjoint(self._seen.get(key, ()))
            ):
                self._seen.setdefault(key, set()).update(batch)
                self._admitted_counts[key] = count
                return [True] * len(tokens)
        seen_cache: dict[tuple[str, int], set[bytes]] = {}
        count_cache: dict[tuple[str, int], int] = {}
        verdicts = []
        append = verdicts.append
        for epoch, token in items:
            if not token:
                append(False)
                continue
            key = (query_id, epoch)
            seen = seen_cache.get(key)
            if seen is None:
                seen = seen_cache[key] = self._seen.setdefault(key, set())
                count_cache[key] = self._admitted_counts.get(key, 0)
            if token in seen:
                self.duplicates_rejected += 1
                append(False)
                continue
            if max_answers is not None and count_cache[key] >= max_answers:
                self.rate_limited += 1
                append(False)
                continue
            seen.add(token)
            count_cache[key] += 1
            append(True)
        for key, count in count_cache.items():
            self._admitted_counts[key] = count
        return verdicts

    def admitted_count(self, query_id: str, epoch: int) -> int:
        return self._admitted_counts.get((query_id, epoch), 0)

    def forget_epoch(self, query_id: str, epoch: int) -> None:
        """Drop the state of an epoch whose window results are finalized."""
        self._seen.pop((query_id, epoch), None)
        self._admitted_counts.pop((query_id, epoch), None)

    def forget_epochs_before(self, query_id: str, epoch: int) -> int:
        """Drop every tracked epoch of ``query_id`` older than ``epoch``.

        Called by the aggregator once an epoch's ingest completes (with a
        small retention window for stragglers), so the per-epoch token sets
        stay bounded in a long-running stream instead of growing forever.
        Returns the number of epochs dropped.
        """
        stale = [
            key for key in self._seen if key[0] == query_id and key[1] < epoch
        ]
        for key in stale:
            del self._seen[key]
            self._admitted_counts.pop(key, None)
        return len(stale)

    def tracked_epochs(self) -> int:
        return len(self._seen)

    def metrics(self) -> dict[str, int]:
        """A snapshot of the rejection counters (scenario accounting)."""
        return {
            "duplicates_rejected": self.duplicates_rejected,
            "rate_limited": self.rate_limited,
            "tracked_epochs": self.tracked_epochs(),
        }
