"""Threaded soak of the gateway under stage churn.

Many submitter threads hammer two names through one
:class:`ServingGateway` while a mutator thread promotes and rolls back one
of them mid-stream.  The serve stack's concurrency contract says that
however the interleaving lands:

* **no ticket is lost or duplicated** — every submission completes exactly
  once, and no two tickets of a name share a ``(batch_seq, batch_pos)``
  flush slot,
* **FIFO holds per submitter** — a thread's successive submissions to one
  name score in submission order (the batcher's flush-slot witness is
  lexicographically increasing),
* **bit-identity survives churn** — every result equals a direct predict
  by one of the versions that was production at some point during the
  ticket's lifetime (exactly one candidate for the unchurned name).

Bounded to a few seconds: small models, thread counts in the single
digits, no sleeps on the submit path.
"""

import threading

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.serve import ModelRegistry, ServingGateway

pytestmark = [pytest.mark.serve, pytest.mark.gateway]

N_THREADS = 6
N_PER_THREAD = 100
D = 5


def _data(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, D))
    y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2]
    return X, y


@pytest.fixture(scope="module")
def served():
    X, y = _data(500, 0)
    stable = GradientBoostingRegressor(n_estimators=12, max_depth=3, loss="squared").fit(X, y)
    churn_v1 = RandomForestRegressor(n_estimators=12, max_depth=6, random_state=1).fit(X, y)
    churn_v2 = RandomForestRegressor(n_estimators=12, max_depth=6, random_state=2).fit(X, y)
    reg = ModelRegistry()
    reg.register("stable", stable, promote=True)
    v1 = reg.register("churn", churn_v1, promote=True)
    v2 = reg.register("churn", churn_v2)
    return reg, {"stable": (stable,), "churn": (churn_v1, churn_v2)}, (v1, v2)


def test_threaded_soak_fifo_no_loss_bit_identity(served):
    reg, models, (v1, v2) = served
    # unique rows per (thread, submission): a duplicate would legally hit
    # the cache and skip the batcher, which has no flush slot to witness
    all_rows = _data(N_THREADS * N_PER_THREAD, seed=9)[0]

    with ServingGateway(reg, max_batch=24) as gw:
        records = [[] for _ in range(N_THREADS)]  # (name, row_idx, ticket)
        errors: list[Exception] = []
        start = threading.Barrier(N_THREADS + 1)

        def submitter(tid: int) -> None:
            try:
                start.wait(timeout=10.0)
                for j in range(N_PER_THREAD):
                    idx = tid * N_PER_THREAD + j
                    name = "churn" if (tid + j) % 2 else "stable"
                    records[tid].append((name, idx, gw.submit(name, all_rows[idx])))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=submitter, args=(t,)) for t in range(N_THREADS)]
        for t in threads:
            t.start()

        churn = threading.Event()

        def mutator() -> None:
            # promote/rollback churn while submissions are in full flight
            start.wait(timeout=10.0)
            for _ in range(8):
                reg.promote("churn", v2)
                reg.rollback("churn")
            churn.set()

        mut = threading.Thread(target=mutator)
        mut.start()
        for t in threads:
            t.join(timeout=30.0)
        mut.join(timeout=30.0)
        assert not errors, errors
        assert churn.is_set()
        gw.flush()

        # --- no lost tickets: every submission completes exactly once -- #
        results: dict[int, float] = {}
        slots: dict[str, set] = {"stable": set(), "churn": set()}
        order: dict[tuple[int, str], list] = {}
        for tid, recs in enumerate(records):
            assert len(recs) == N_PER_THREAD
            for name, idx, ticket in recs:
                results[idx] = ticket.result(timeout=20.0)
                slot = (ticket.batch_seq, ticket.batch_pos)
                assert slot not in slots[name], "duplicated flush slot"
                slots[name].add(slot)
                assert ticket.batch_seq >= 0 and ticket.batch_pos >= 0
                order.setdefault((tid, name), []).append(slot)
        assert len(results) == N_THREADS * N_PER_THREAD

        # --- FIFO per submitter thread per name ----------------------- #
        for key, seq in order.items():
            assert seq == sorted(seq), f"flush slots out of order for {key}"

        # --- bit-identity under churn --------------------------------- #
        stable_model = models["stable"][0]
        c1, c2 = models["churn"]
        for tid, recs in enumerate(records):
            for name, idx, _ in recs:
                got = results[idx]
                row = all_rows[idx][None, :]
                if name == "stable":
                    assert got == stable_model.predict(row)[0]
                else:
                    candidates = (c1.predict(row)[0], c2.predict(row)[0])
                    assert got in candidates

        # --- counters agree with the ledger --------------------------- #
        stats = gw.stats()
        assert stats.total.requests == N_THREADS * N_PER_THREAD
        assert stats.per_name["stable"].requests == sum(
            1 for recs in records for name, _, _ in recs if name == "stable"
        )

    # quiesced: production is back on v1, answers match it exactly
    assert reg.production_version("churn") == v1
