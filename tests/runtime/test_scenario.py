"""Tests for the scenario sweep layer (repro.runtime.scenario).

Five properties carry the layer:

* **Plan determinism** — the same :class:`ScenarioSpec` expands to the same
  epoch-by-epoch churn/participation/injection plan on every call, and after
  a round trip through its serialized form.  Everything downstream (churn,
  deadlines, injections) inherits determinism from this.
* **Deadline fault injection** — a deliberately slow client population
  (modeled latency above the epoch deadline) is dropped on *every* executor
  without deadlocking, and the outcome records exactly which clients were
  late.
* **Byzantine duplicate accounting** — injected forged answers are admitted
  exactly once each; every extra copy is rejected as a duplicate, with
  counts that are executor-invariant.
* **Hostile edge cases** — empty participation epochs, deadlines below the
  minimum modeled latency, and zero-latency networks neither hang nor skew
  any executor.
* **Ledger determinism** — two same-seed runs on one executor produce the
  same :class:`EpochStats` ledger, wire bytes included: shard boundaries
  depend only on the population size, so only wall-clock may differ.
"""

from __future__ import annotations

import pytest

from repro.core import PrivApproxSystem
from repro.core.encryption import AnswerCodec
from repro.netsim.network import NetworkModel
from repro.runtime import StagedEpochEngine, cli_smoke_matrix
from repro.runtime.scenario import (
    ScenarioSpec,
    build_plan,
    client_latency_seconds,
    find_scenario,
    late_clients_for,
    run_scenario,
    scenario_grid,
)

# serial plus every single-host driver combination.
ALL_EXECUTORS = cli_smoke_matrix()
# The drivers the epoch's late set reaches (they answer here).
IN_PROCESS_EXECUTORS = [e for e in ALL_EXECUTORS if e.endswith("/in-process")]
#: The worker-driver spellings once more, with every emit held back to the
#: end of the epoch and replayed in reverse shard order (``reversed_emits``,
#: conftest.py).
REVERSED_EMITS = {
    spelling: pytest.param(
        spelling, marks=pytest.mark.reversed_emits, id=f"{spelling}+reversed-emits"
    )
    for spelling in ALL_EXECUTORS[1:]
    if not spelling.startswith("inline/")
}
PIPELINED = "pipelined-overlap/in-process"
RESIDENT = "pinned-worker/framed-wire-local"
#: The resident spelling once more, with every pinned worker killed after each
#: epoch (``respawned_workers``, conftest.py).
RESPAWNED_WORKERS = pytest.param(
    RESIDENT, marks=pytest.mark.respawned_workers, id=f"{RESIDENT}+respawned-workers"
)
#: ``ScenarioRun.digest`` of the seeded ``byzantine-churn`` scenario (responses
#: log, encrypted shares, window estimates *and* error bounds, late-drop
#: ledger), re-captured when the t quantile became the stdlib routine in
#: ``repro.core.sampling``, which moves the last bits of error bounds and
#: nothing else (Python 3.11).  A hot-path change
#: that claims to be draw-compatible must leave it alone; one that moves
#: draws or bounds on purpose re-captures it in the same change and says so.
GOLDEN_BYZANTINE_CHURN_DIGEST = (
    "36ca0798a977b5ff00c094d3bd02d334b2d072414b724702a19d485303678c7d"
)


def _run(spec, executor):
    return run_scenario(spec, executor=executor, workers=2, shards=3)


# -- plan determinism ---------------------------------------------------------


class TestPlanDeterminism:
    def test_same_seed_same_plan(self):
        """Two generations from one spec are identical, field for field."""
        for spec in scenario_grid("full"):
            assert build_plan(spec) == build_plan(spec), spec.name

    def test_plan_survives_spec_round_trip(self):
        """Serializing and re-hydrating the spec changes nothing."""
        for spec in scenario_grid("full"):
            revived = ScenarioSpec.from_dict(spec.to_dict())
            assert revived == spec
            assert build_plan(revived) == build_plan(spec), spec.name

    def test_different_seeds_diverge(self):
        spec = find_scenario("churn-heavy")
        other = ScenarioSpec.from_dict({**spec.to_dict(), "seed": spec.seed + 1})
        assert build_plan(other).epochs != build_plan(spec).epochs

    def test_plan_invariants(self):
        """Rosters are sorted, churn edits are consistent, rows are bounded."""
        for spec in scenario_grid("full"):
            plan = build_plan(spec)
            assert len(plan.rows_per_client) == spec.num_clients
            assert all(
                1 <= rows <= spec.max_rows_per_client for rows in plan.rows_per_client
            )
            previous = set(plan.initial_active)
            for epoch_plan in plan.epochs:
                active = set(epoch_plan.active)
                assert list(epoch_plan.active) == sorted(active)
                assert not set(epoch_plan.joins) & set(epoch_plan.leaves)
                assert set(epoch_plan.joins) <= active
                assert not set(epoch_plan.leaves) & active
                assert active == (previous - set(epoch_plan.leaves)) | set(
                    epoch_plan.joins
                )
                previous = active

    def test_zipf_skews_rows_toward_the_head(self):
        plan = build_plan(find_scenario("zipf-tables"))
        assert plan.rows_per_client[0] == max(plan.rows_per_client)
        assert plan.rows_per_client[-1] == 1

    def test_grid_contract(self):
        """The acceptance grid: >= 12 uniquely named scenarios, smoke subset."""
        full = scenario_grid("full")
        assert len(full) >= 12
        names = [spec.name for spec in full]
        assert len(set(names)) == len(names)
        assert any(s.join_rate > 0 for s in full)
        assert any(s.zipf_exponent > 0 for s in full)
        assert any(s.duplicate_rate > 0 for s in full)
        assert any(s.deadline_seconds is not None for s in full)
        smoke = scenario_grid("smoke")
        assert {s.name for s in smoke} <= set(names)
        with pytest.raises(ValueError):
            scenario_grid("bogus")
        with pytest.raises(KeyError):
            find_scenario("no-such-scenario")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", seed=1, num_clients=0, num_epochs=1)
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", seed=1, num_clients=4, num_epochs=1, join_rate=1.5)
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="x", seed=1, num_clients=4, num_epochs=1, deadline_seconds=-1.0
            )
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="x", seed=1, num_clients=4, num_epochs=1, duplicate_copies=0
            )


# -- the deadline model -------------------------------------------------------


class TestEpochDeadline:
    def test_modeled_latency_is_deterministic(self):
        spec = find_scenario("deadline-tight")
        plan = build_plan(spec)
        network = NetworkModel(bandwidth_bytes_per_sec=spec.bandwidth_bytes_per_sec)
        for index in range(spec.num_clients):
            first = client_latency_seconds(plan, index, 1, network)
            assert first == client_latency_seconds(plan, index, 1, network)
            assert first > 0.0

    def test_late_set_is_every_client_over_the_deadline(self):
        spec = find_scenario("deadline-tight")
        plan = build_plan(spec)
        for epoch in range(spec.num_epochs):
            late = late_clients_for(plan, epoch)
            assert late == {
                f"client-{index:06d}"
                for index in range(spec.num_clients)
                if client_latency_seconds(plan, index, epoch) > spec.deadline_seconds
            }
            assert 0 < len(late) < spec.num_clients

    def test_no_deadline_means_no_gate(self):
        plan = build_plan(find_scenario("steady-state"))
        assert late_clients_for(plan, 0) == frozenset()


# -- deadline fault injection across every executor ---------------------------

# Full participation (sampling_fraction=1.0) makes the late set exact: every
# active client answers, so the drop ledger must equal the model's late set —
# not merely be contained in it.
SLOW_SPEC = ScenarioSpec(
    name="test-slow-clients",
    seed=4242,
    num_clients=18,
    num_epochs=2,
    initial_active_fraction=1.0,
    max_rows_per_client=4,
    deadline_seconds=0.002,
    sampling_fraction=1.0,
    p=0.9,
    q=0.5,
)


def _count_encrypted_answers(monkeypatch) -> list[int]:
    """Count the messages ``AnswerCodec.encode_rows`` encodes in this process
    (one per answer a client builds), by answer epoch.  It is the one encode
    entry point: the block builder hands it the packed randomized column,
    and the one-row ``encode_message`` packs and calls it."""
    epochs: list[int] = []
    encode_rows = AnswerCodec.encode_rows

    def counting(self, query_id, epoch, tokens, *args, **kwargs):
        epochs.extend([epoch] * len(tokens))
        return encode_rows(self, query_id, epoch, tokens, *args, **kwargs)

    monkeypatch.setattr(AnswerCodec, "encode_rows", counting)
    return epochs


def _expected_late(spec) -> dict[int, tuple[str, ...]]:
    plan = build_plan(spec)
    network = NetworkModel(bandwidth_bytes_per_sec=spec.bandwidth_bytes_per_sec)
    return {
        epoch_plan.epoch: tuple(
            sorted(
                f"client-{index:06d}"
                for index in epoch_plan.active
                if client_latency_seconds(plan, index, epoch_plan.epoch, network)
                > spec.deadline_seconds
            )
        )
        for epoch_plan in plan.epochs
    }


class TestDeadlineFaultInjection:
    def test_slow_spec_is_discriminating(self):
        """Some clients are late and some are not, so the test means something."""
        expected = _expected_late(SLOW_SPEC)
        for epoch, late in expected.items():
            assert 0 < len(late) < SLOW_SPEC.num_clients, (epoch, late)

    @pytest.mark.parametrize(
        "executor", [*ALL_EXECUTORS, *REVERSED_EMITS.values(), RESPAWNED_WORKERS]
    )
    def test_slow_clients_dropped_and_recorded(self, executor):
        """Every executor drops exactly the modeled-late clients, no deadlock."""
        expected = _expected_late(SLOW_SPEC)
        run = _run(SLOW_SPEC, executor)
        assert len(run.epochs) == SLOW_SPEC.num_epochs  # completed, didn't hang
        for stats in run.epochs:
            assert stats.late_clients == expected[stats.epoch]
            # Active and answering at s=1.0, minus the late: nobody vanished.
            assert stats.responses == stats.active_clients - len(stats.late_clients)

    def test_deadline_run_digest_is_executor_invariant(self):
        digests = {
            executor: _run(SLOW_SPEC, executor).digest for executor in ALL_EXECUTORS
        }
        assert len(set(digests.values())) == 1, digests

    @pytest.mark.parametrize(
        "executor",
        ["serial", *IN_PROCESS_EXECUTORS, REVERSED_EMITS["pipelined-overlap/in-process"]],
    )
    def test_known_late_answers_are_drawn_not_built(self, executor, monkeypatch):
        """The saving cannot silently regress: with the late set known in the
        plan stage an in-process driver builds ``participants - late``
        answers an epoch, and so does serial, which ledgers a late
        participant after its SQL read without building it."""
        built = _count_encrypted_answers(monkeypatch)
        run = _run(SLOW_SPEC, executor)
        for stats in run.epochs:
            participants = stats.active_clients  # sampling_fraction is 1.0
            assert len(stats.late_clients) > 0
            assert built.count(stats.epoch) == participants - len(stats.late_clients)


# -- byzantine duplicate injection -------------------------------------------


class TestDuplicateInjection:
    @pytest.mark.parametrize("executor", ["serial", PIPELINED, RESIDENT])
    def test_copies_rejected_exactly_once_admitted(self, executor):
        spec = find_scenario("byzantine-dupes")
        plan = build_plan(spec)
        run = _run(spec, executor)
        for stats, epoch_plan in zip(run.epochs, plan.epochs):
            injections = len(epoch_plan.injections)
            assert injections > 0  # the scenario actually injects
            # Each injection sends `copies` identically-tokened answers per
            # query: one is admitted, the rest bounce off admission control.
            expected_rejected = injections * (spec.duplicate_copies - 1) * spec.num_queries
            assert stats.duplicates_rejected == expected_rejected
            assert stats.answers_admitted == stats.responses + injections * spec.num_queries
            assert stats.invalid_answers == 0  # forged answers are well-formed

    def test_injection_is_executor_invariant(self, monkeypatch):
        spec = find_scenario("byzantine-churn")
        systems = []
        close = PrivApproxSystem.close

        def remembering_close(system):
            systems.append(system)
            close(system)

        monkeypatch.setattr(PrivApproxSystem, "close", remembering_close)
        runs = {executor: _run(spec, executor) for executor in ALL_EXECUTORS}
        digests = {executor: run.digest for executor, run in runs.items()}
        assert len(set(digests.values())) == 1, digests
        # ... and invariant across commits: see GOLDEN_BYZANTINE_CHURN_DIGEST.
        assert digests["serial"] == GOLDEN_BYZANTINE_CHURN_DIGEST
        # The digest covers what was admitted; the forged records land on a
        # different topic per executor family (slot 0 of the shard topics for
        # every engine flow, the query channel for serial), so what was turned
        # away must agree too, epoch by epoch.
        ledgers = {
            executor: [stats.duplicates_rejected for stats in run.epochs]
            for executor, run in runs.items()
        }
        assert sum(ledgers["serial"]) > 0
        assert all(ledger == ledgers["serial"] for ledger in ledgers.values()), ledgers
        malformed = [
            sum(system.aggregator_for(q).malformed_messages for q in system.query_ids())
            for system in systems
        ]
        assert len(malformed) == len(ALL_EXECUTORS) and set(malformed) == {0}


# -- hostile edge cases -------------------------------------------------------


class TestHostileEdgeCases:
    @pytest.mark.parametrize(
        "executor", [*ALL_EXECUTORS, *REVERSED_EMITS.values(), RESPAWNED_WORKERS]
    )
    def test_empty_participation_epoch(self, executor):
        """Zero active clients: epochs complete with no answers and no hang."""
        spec = find_scenario("ghost-town")
        run = _run(spec, executor)
        assert all(stats.active_clients == 0 for stats in run.epochs)
        assert all(stats.responses == 0 for stats in run.epochs)
        assert run.mean_accuracy_loss is None

    def test_deadline_below_minimum_latency_drops_everyone(self):
        """A deadline no modeled client can meet empties every epoch."""
        spec = find_scenario("deadline-slow-net")
        plan = build_plan(spec)
        network = NetworkModel(bandwidth_bytes_per_sec=spec.bandwidth_bytes_per_sec)
        minimum = min(
            client_latency_seconds(plan, index, 0, network)
            for index in range(spec.num_clients)
        )
        assert spec.deadline_seconds < minimum
        for executor in ("serial", RESIDENT):
            run = _run(spec, executor)
            # Every produced answer was dropped (the sampling coin keeps some
            # clients silent, so the drop ledger tracks participants, not the
            # whole roster) and nothing was delivered.
            assert all(stats.responses == 0 for stats in run.epochs)
            assert all(
                0 < len(stats.late_clients) <= stats.active_clients
                for stats in run.epochs
            )

    def test_zero_latency_network_never_drops(self):
        """An effectively zero-latency network with no jitter misses nothing."""
        spec = ScenarioSpec(
            name="test-fast-net",
            seed=77,
            num_clients=10,
            num_epochs=1,
            deadline_seconds=10.0,
            jitter_seconds=0.0,
            bandwidth_bytes_per_sec=1e15,
            p=0.9,
            q=0.5,
        )
        run = _run(spec, "serial")
        assert run.total_late_dropped == 0

    def test_churned_out_clients_are_absent_from_ground_truth(self):
        """The population rescale and exact counts track the live roster."""
        spec = find_scenario("mass-exodus")
        plan = build_plan(spec)
        run = _run(spec, "serial")
        sizes = [len(epoch_plan.active) for epoch_plan in plan.epochs]
        assert sizes == sorted(sizes, reverse=True) and sizes[-1] < sizes[0]
        for stats, expected in zip(run.epochs, sizes):
            assert stats.active_clients == expected
            assert stats.responses <= expected


# -- ledger determinism -------------------------------------------------------


class TestLedgerDeterminism:
    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    def test_same_seed_runs_give_the_same_ledger(self, executor, monkeypatch):
        """Nothing but wall-clock may differ between two same-seed runs —
        not wire bytes, which a boundary moved on timing noise would change
        by whole state syncs and re-bootstraps — and no engine re-shards."""
        self._assert_same_ledger("kitchen-sink", executor, monkeypatch)

    @pytest.mark.parametrize("executor", ALL_EXECUTORS)
    @pytest.mark.parametrize("scenario", ["zipf-tables", "churn-heavy"])
    def test_skew_and_churn_keep_the_ledger(self, scenario, executor, monkeypatch):
        """Zipf-sized tables make some shards answer far slower than others,
        and heavy churn flips who answers each epoch; neither may move a
        boundary, so neither may change the ledger between same-seed runs."""
        self._assert_same_ledger(scenario, executor, monkeypatch)

    @staticmethod
    def _assert_same_ledger(scenario: str, executor: str, monkeypatch) -> None:
        engines = []
        init = StagedEpochEngine.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            engines.append(self)

        monkeypatch.setattr(StagedEpochEngine, "__init__", recording_init)
        spec = find_scenario(scenario)
        runs = [
            run_scenario(spec, executor=executor, workers=2, shards=7)
            for _ in range(2)
        ]
        ledgers = [
            [
                {k: v for k, v in stats.to_dict().items() if k != "wall_seconds"}
                for stats in run.epochs
            ]
            for run in runs
        ]
        assert ledgers[0] == ledgers[1]
        assert runs[0].digest == runs[1].digest
        assert len(engines) == (0 if executor == "serial" else 2)
        assert all(
            metrics.reshard_events == 0
            for engine in engines
            for metrics in engine.stage_metrics.values()
        )
