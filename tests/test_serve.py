"""Tests for the batched inference service (registry, batcher, cache).

The serving layer's contract mirrors the perf layer's: it must change no
number.  Micro-batched results are asserted **bit-identical**
(``np.array_equal``) to per-request predicts, registry freeze must not
perturb predictions, and the cache must never serve across a version
boundary.
"""

import math
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.serve import (
    MicroBatcher,
    ModelRegistry,
    PredictionCache,
    ServingGateway,
    freeze_arrays,
    request_digest,
)

pytestmark = pytest.mark.serve


def _data(n=900, d=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    y = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.05 * rng.normal(0, 1, n)
    return X, y


@pytest.fixture(scope="module")
def data():
    return _data()


@pytest.fixture(scope="module")
def gbm(data):
    X, y = data
    return GradientBoostingRegressor(n_estimators=25, max_depth=4, loss="squared").fit(X, y)


@pytest.fixture(scope="module")
def forest(data):
    X, y = data
    return RandomForestRegressor(n_estimators=30, max_depth=9, random_state=1).fit(X, y)


def _fresh_gbm(data, seed=0, n_estimators=25):
    X, y = data
    return GradientBoostingRegressor(
        n_estimators=n_estimators, max_depth=4, loss="squared", random_state=seed
    ).fit(X, y)


def _fresh_forest(data, seed=1):
    X, y = data
    return RandomForestRegressor(n_estimators=30, max_depth=9, random_state=seed).fit(X, y)


# ---------------------------------------------------------------------- #
class TestModelRegistry:
    def test_versions_increment_per_name(self, data):
        reg = ModelRegistry()
        assert reg.register("m", _fresh_gbm(data)) == 1
        assert reg.register("m", _fresh_gbm(data)) == 2
        assert reg.register("other", _fresh_gbm(data)) == 1
        assert reg.versions("m") == [1, 2]
        assert reg.names() == ["m", "other"]

    def test_register_requires_predict(self):
        with pytest.raises(TypeError):
            ModelRegistry().register("m", object())

    def test_unknown_name_raises(self):
        reg = ModelRegistry()
        with pytest.raises(LookupError):
            reg.get("nope")

    def test_production_requires_promote(self, data):
        reg = ModelRegistry()
        reg.register("m", _fresh_gbm(data))
        with pytest.raises(LookupError):
            reg.get("m")  # staged, not promoted

    def test_promote_and_rollback(self, data):
        reg = ModelRegistry()
        m1, m2 = _fresh_gbm(data, 0), _fresh_gbm(data, 1)
        reg.register("m", m1, promote=True)
        reg.register("m", m2)
        assert reg.get("m") is m1
        reg.promote("m", 2)
        assert reg.get("m") is m2
        assert reg.rollback("m") == 1
        assert reg.get("m") is m1
        assert reg.get("m", version=2) is m2  # explicit versions still there

    def test_rollback_without_history_raises(self, data):
        reg = ModelRegistry()
        reg.register("m", _fresh_gbm(data), promote=True)
        with pytest.raises(LookupError):
            reg.rollback("m")

    def test_promote_unknown_version_raises(self, data):
        reg = ModelRegistry()
        reg.register("m", _fresh_gbm(data))
        with pytest.raises(LookupError):
            reg.promote("m", 7)

    def test_listener_notified_on_stage_changes(self, data):
        reg = ModelRegistry()
        events = []
        reg.add_listener(lambda *a: events.append(a))
        reg.register("m", _fresh_gbm(data, 0), promote=True)
        reg.register("m", _fresh_gbm(data, 1), promote=True)
        reg.rollback("m")
        assert events == [("m", 1, "promote"), ("m", 2, "promote"), ("m", 1, "rollback")]

    def test_freeze_on_register(self, data):
        X, _ = data
        model = _fresh_gbm(data)
        ref = model.predict(X[:50])  # also builds the pack pre-freeze
        reg = ModelRegistry()
        reg.register("m", model, promote=True)
        assert reg.get_version("m").n_frozen_arrays > 0
        nd = model.trees_[0].nodes_
        for arr in (nd.feature, nd.threshold, nd.left, nd.right, nd.value):
            assert not arr.flags.writeable
        pack = model._pack
        for arr in (pack.feature, pack.threshold, pack.left, pack.value, pack.roots):
            assert not arr.flags.writeable
        for edges in model.binner_.edges_:
            assert not edges.flags.writeable
        assert np.array_equal(model.predict(X[:50]), ref)  # freeze changed nothing

    def test_frozen_model_binning_cache_end_to_end(self, data):
        """A registered model + frozen request matrix = one binning pass."""
        model = _fresh_gbm(data)
        ModelRegistry().register("m", model, promote=True)
        Xq = _data(seed=9)[0][:80].copy()  # owned memory: freezing it is real immutability
        Xq.setflags(write=False)
        c1 = model.binner_.transform(Xq)
        c2 = model.binner_.transform(Xq)
        assert c1 is c2  # identity-keyed LRU hit through the frozen artifact

    def test_freeze_arrays_counts_and_idempotent(self, data):
        model = _fresh_gbm(data)
        n1 = freeze_arrays(model)
        assert n1 > 0
        assert freeze_arrays(model) == 0  # second walk finds nothing writable

    def test_registered_model_refuses_refit(self, data):
        """Freeze guards existing arrays; sealing fit guards against the
        rebind-new-arrays refit that would mutate a version in place."""
        model = _fresh_gbm(data)
        X, y = data
        ref = model.predict(X[:20])
        ModelRegistry().register("m", model, promote=True)
        with pytest.raises(RuntimeError, match="registered and immutable"):
            model.fit(X, y)
        assert np.array_equal(model.predict(X[:20]), ref)  # version unchanged

    def test_unregister_retired_version(self, data):
        reg = ModelRegistry()
        reg.register("m", _fresh_gbm(data, 0), promote=True)
        reg.register("m", _fresh_gbm(data, 1), promote=True)
        with pytest.raises(ValueError):
            reg.unregister("m", 2)  # production is refused
        reg.unregister("m", 1)      # retired v1 dropped, history scrubbed
        assert reg.versions("m") == [2]
        with pytest.raises(LookupError):
            reg.rollback("m")       # v1 no longer in the history stack
        with pytest.raises(LookupError):
            reg.unregister("m", 1)

    def test_unregister_notifies_listeners(self, data):
        """Regression: unregister used to skip _notify entirely, so caches
        listening for stage changes never learned a version was dropped."""
        reg = ModelRegistry()
        events = []
        reg.add_listener(lambda *a: events.append(a))
        reg.register("m", _fresh_gbm(data, 0), promote=True)
        reg.register("m", _fresh_gbm(data, 1), promote=True)
        reg.unregister("m", 1)
        assert events[-1] == ("m", 1, "unregister")

    def test_registered_model_pickle_roundtrip(self, data):
        """Regression: _seal_fit assigned a closure to model.fit, which
        broke pickling of every registered model (snapshot/shard flows)."""
        X, y = data
        model = _fresh_gbm(data)
        ref = model.predict(X[:30])
        ModelRegistry().register("m", model, promote=True)
        back = pickle.loads(pickle.dumps(model))
        assert np.array_equal(back.predict(X[:30]), ref)
        with pytest.raises(RuntimeError, match="registered and immutable"):
            back.fit(X, y)  # the seal survives the roundtrip too


# ---------------------------------------------------------------------- #
class TestMicroBatcher:
    def test_concurrent_single_rows_bit_identical_gbm(self, data, gbm):
        X, _ = data
        rows = _data(n=300, seed=3)[0]
        ref = np.array([gbm.predict(r[None, :])[0] for r in rows])
        with MicroBatcher(gbm, max_batch=32, max_delay=0.02) as mb:
            with ThreadPoolExecutor(8) as ex:
                tickets = list(ex.map(mb.submit, rows))
            mb.flush()
            out = np.array([t.result(timeout=10.0) for t in tickets])
        assert np.array_equal(out, ref)

    def test_mixed_kinds_bit_identical_forest(self, data, forest):
        rows = _data(n=120, seed=4)[0]
        ref_p = np.array([forest.predict(r[None, :])[0] for r in rows])
        ref_m = np.array([forest.predict_dist(r[None, :])[0][0] for r in rows])
        ref_v = np.array([forest.predict_dist(r[None, :])[1][0] for r in rows])
        with MicroBatcher(forest, max_batch=48, max_delay=0.02) as mb:
            tp = [mb.submit(r, kind="predict") for r in rows]
            td = [mb.submit(r, kind="predict_dist") for r in rows]
            mb.flush()
            out_p = np.array([t.result(10.0) for t in tp])
            dist = [t.result(10.0) for t in td]
        assert np.array_equal(out_p, ref_p)
        assert np.array_equal(np.array([m for m, _ in dist]), ref_m)
        assert np.array_equal(np.array([v for _, v in dist]), ref_v)

    def test_caller_buffer_reuse_scores_submit_time_bytes(self, data, gbm):
        """Requests are copied at submit: mutating the caller's buffer
        afterwards must not change what the flush scores."""
        rows = _data(n=4, seed=16)[0]
        buf = rows[0].copy()
        with MicroBatcher(gbm, max_batch=10_000, max_delay=600.0) as mb:
            ticket = mb.submit(buf)
            buf[:] = rows[1]  # client reuses its buffer before the flush
            mb.flush()
            assert ticket.result(5.0) == gbm.predict(rows[0][None, :])[0]

    def test_multi_row_blocks(self, data, gbm):
        rng = np.random.default_rng(5)
        blocks = [rng.normal(0, 1, (m, data[0].shape[1])) for m in (1, 3, 7, 2, 5)]
        with MicroBatcher(gbm, max_batch=1000, max_delay=5.0) as mb:
            tickets = [mb.submit(b) for b in blocks]
            mb.flush()
            outs = [t.result(10.0) for t in tickets]
        for b, out in zip(blocks, outs):
            assert np.array_equal(out, gbm.predict(b))

    def test_size_trigger_flushes_without_deadline(self, data, gbm):
        rows = _data(n=16, seed=6)[0]
        with MicroBatcher(gbm, max_batch=8, max_delay=600.0) as mb:
            tickets = [mb.submit(r) for r in rows]
            # 16 rows with max_batch=8 → two size flushes, no deadline wait
            out = np.array([t.result(timeout=5.0) for t in tickets])
            assert mb.counters()["size_flushes"] == 2
            assert mb.counters()["deadline_flushes"] == 0
        assert np.array_equal(out, np.array([gbm.predict(r[None, :])[0] for r in rows]))

    def test_deadline_trigger_flushes_partial_batch(self, data, gbm):
        rows = _data(n=3, seed=7)[0]
        with MicroBatcher(gbm, max_batch=10_000, max_delay=0.03) as mb:
            t0 = time.monotonic()
            tickets = [mb.submit(r) for r in rows]
            out = [t.result(timeout=5.0) for t in tickets]  # no manual flush
            elapsed = time.monotonic() - t0
            assert mb.counters()["deadline_flushes"] >= 1
            assert mb.counters()["size_flushes"] == 0
        assert elapsed < 5.0
        assert np.array_equal(
            np.array(out), np.array([gbm.predict(r[None, :])[0] for r in rows])
        )

    def test_fifo_order_under_concurrent_submitters(self, data, gbm):
        rows = _data(n=400, seed=8)[0]
        with MicroBatcher(gbm, max_batch=64, max_delay=0.02) as mb:
            with ThreadPoolExecutor(8) as ex:
                tickets = list(ex.map(mb.submit, rows))
            mb.flush()
            for t in tickets:
                t.result(timeout=10.0)
        # arrival (seq) order and scoring (batch_seq, batch_pos) order agree
        by_arrival = sorted(tickets, key=lambda t: t.seq)
        positions = [(t.batch_seq, t.batch_pos) for t in by_arrival]
        assert positions == sorted(positions)
        # and every request still got its own row's answer
        by_arrival_rows = sorted(zip(tickets, rows), key=lambda tr: tr[0].seq)
        for t, row in by_arrival_rows:
            assert t.result() == gbm.predict(row[None, :])[0]

    def test_model_error_propagates_and_batcher_survives(self, data, gbm):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("model store down")
            return gbm

        row = _data(n=1, seed=9)[0][0]
        with MicroBatcher(flaky, max_batch=1, max_delay=0.01) as mb:
            with pytest.raises(RuntimeError, match="model store down"):
                mb.submit(row).result(timeout=5.0)
            # the next batch resolves fine
            assert mb.submit(row).result(timeout=5.0) == gbm.predict(row[None, :])[0]

    def test_bad_request_does_not_poison_cobatched_neighbours(self, data, gbm):
        """A wrong-width row must fail alone; the rest of its flush succeeds."""
        rows = _data(n=6, seed=14)[0]
        with MicroBatcher(gbm, max_batch=10_000, max_delay=600.0) as mb:
            good = [mb.submit(r) for r in rows[:3]]
            bad = mb.submit(np.zeros(rows.shape[1] + 2))  # wrong feature count
            good += [mb.submit(r) for r in rows[3:]]
            mb.flush()
            with pytest.raises(ValueError):
                bad.result(timeout=5.0)
            out = np.array([t.result(timeout=5.0) for t in good])
        assert np.array_equal(out, np.array([gbm.predict(r[None, :])[0] for r in rows]))

    def test_unsupported_kind_fails_only_its_tickets(self, data, gbm):
        """predict_dist against a GBM errors those tickets, not the predicts."""
        rows = _data(n=4, seed=15)[0]
        with MicroBatcher(gbm, max_batch=10_000, max_delay=600.0) as mb:
            tp = [mb.submit(r, kind="predict") for r in rows]
            td = mb.submit(rows[0], kind="predict_dist")  # GBM has no predict_dist
            mb.flush()
            with pytest.raises(AttributeError):
                td.result(timeout=5.0)
            out = np.array([t.result(timeout=5.0) for t in tp])
        assert np.array_equal(out, np.array([gbm.predict(r[None, :])[0] for r in rows]))

    def test_close_completes_all_accepted_requests(self, data, gbm):
        """close() waits for in-flight deadline flushes: every accepted
        ticket is done when it returns, even mid-scoring."""
        rows = _data(n=5, seed=17)[0]
        mb = MicroBatcher(gbm, max_batch=10_000, max_delay=0.005)
        tickets = [mb.submit(r) for r in rows]
        time.sleep(0.02)  # let the deadline timer drain and spawn a flusher
        tickets += [mb.submit(r) for r in rows]  # a second, still-pending wave
        mb.close()
        assert all(t.done() for t in tickets)
        out = np.array([t.result() for t in tickets])
        ref = np.array([gbm.predict(r[None, :])[0] for r in rows])
        assert np.array_equal(out, np.concatenate([ref, ref]))

    def test_close_waits_for_inline_size_flush(self, data, gbm):
        """close() must also wait for a size-triggered flush scoring inline
        in another submitter thread, not just the deadline threads."""
        rows = _data(n=2, seed=18)[0]

        class Slow:
            def predict(self, X):
                time.sleep(0.15)
                return gbm.predict(X)

        mb = MicroBatcher(Slow(), max_batch=2, max_delay=600.0)
        tickets: list = []
        worker = threading.Thread(
            target=lambda: tickets.extend(mb.submit(r) for r in rows)
        )
        worker.start()
        time.sleep(0.05)  # worker is now inside the inline size flush
        mb.close()  # must block until that flush finishes scoring
        worker.join(timeout=5.0)
        assert len(tickets) == 2 and all(t.done() for t in tickets)
        assert np.array_equal(
            np.array([t.result() for t in tickets]),
            np.array([gbm.predict(r[None, :])[0] for r in rows]),
        )

    def test_model_failure_gives_each_ticket_its_own_exception(self, data):
        """Regression: a model-resolution failure completed every ticket of
        the flush with the *same* exception instance, so concurrent
        result() callers raced on its __traceback__ mutation."""
        rows = _data(n=3, seed=19)[0]

        def down():
            raise RuntimeError("model store down")

        with MicroBatcher(down, max_batch=10_000, max_delay=600.0) as mb:
            tickets = [mb.submit(r) for r in rows]
            mb.flush()
            for t in tickets:
                with pytest.raises(RuntimeError, match="model store down"):
                    t.result(timeout=5.0)
            errors = [t._error for t in tickets]
            assert len({id(e) for e in errors}) == len(errors)  # all private copies

    def test_an_infinite_max_delay_starts_no_timer(self, gbm):
        """``max_delay=math.inf`` is how an owner that flushes itself (a
        shard worker) opts out of the deadline thread: the ticket stays
        pending until that owner's explicit ``flush()``."""
        row = _data(n=1, seed=22)[0][0]
        with MicroBatcher(gbm, max_batch=10_000, max_delay=math.inf) as mb:
            ticket = mb.submit(row)
            assert mb._timer is None and not ticket.done()
            assert mb.flush() == 1
            assert mb._timer is None
            assert ticket.result(timeout=5.0) == gbm.predict(row[None, :])[0]
            assert mb.counters()["manual_flushes"] == 1

    def test_limits_are_validated_at_construction(self, gbm):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(gbm, max_batch=0)
        with pytest.raises(ValueError, match="max_delay"):
            MicroBatcher(gbm, max_delay=0.0)

    def test_submit_after_close_raises(self, gbm):
        mb = MicroBatcher(gbm, max_batch=4, max_delay=0.01)
        mb.close()
        with pytest.raises(RuntimeError):
            mb.submit(np.zeros(6))

    def test_bad_kind_and_shape_rejected(self, gbm):
        with MicroBatcher(gbm, max_batch=4, max_delay=0.01) as mb:
            with pytest.raises(ValueError):
                mb.submit(np.zeros(6), kind="classify")
            with pytest.raises(ValueError):
                mb.submit(np.zeros((2, 2, 2)))

    def test_result_timeout_abandons_and_counts(self, data, gbm):
        """An expired ``result(timeout=)`` tombstones the ticket: the slot
        frees, later calls fail fast, and the batcher counts it."""
        X, _ = data
        with MicroBatcher(gbm, max_batch=1000, max_delay=600.0) as mb:
            ticket = mb.submit(X[0])
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.01)
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.01)  # fails fast, no re-block
            assert mb.abandoned == 1

    def test_timeout_racing_flush_returns_the_computed_value(self, data, gbm):
        """A flush can complete the ticket between ``result``'s wait
        expiring and the abandon finding it already drained (a no-op).
        The computed, counted, cached value must be handed over — not
        discarded behind a deadline error.  The stand-in owner pins the
        exact interleaving: the flush wins the race window."""
        X, _ = data
        with MicroBatcher(gbm, max_batch=1000, max_delay=600.0) as mb:
            ticket = mb.submit(X[0])
            ref = float(gbm.predict(X[0][None, :])[0])

            class FlushFirst:
                def _abandon(self, t):
                    mb.flush()      # completes the ticket...
                    mb._abandon(t)  # ...so the real abandon is a no-op

            ticket._owner = FlushFirst()
            assert ticket.result(timeout=0.01) == ref
            assert mb.abandoned == 0  # the value was delivered, not dropped


# ---------------------------------------------------------------------- #
class TestPredictionCache:
    def test_lru_eviction_counts(self):
        cache = PredictionCache(max_entries=3)
        for i in range(5):
            cache.put(("m", 1, "predict", bytes([i])), float(i))
        assert len(cache) == 3
        assert cache.evictions == 2
        found, _ = cache.get(("m", 1, "predict", bytes([0])))
        assert not found  # oldest evicted

    def test_invalidate_by_name(self):
        cache = PredictionCache()
        cache.put(("a", 1, "predict", b"x"), 1.0)
        cache.put(("b", 1, "predict", b"x"), 2.0)
        assert cache.invalidate("a") == 1
        assert cache.get(("a", 1, "predict", b"x"))[0] is False
        assert cache.get(("b", 1, "predict", b"x"))[0] is True

    def test_invalidate_ignores_foreign_keys(self):
        """Standalone users may key on anything; name-matching must not
        crash on ints or prefix-match plain strings."""
        cache = PredictionCache()
        cache.put(42, "int-keyed")
        cache.put("model-x", "str-keyed")
        assert cache.invalidate("m") == 0  # no tuple keys match; nothing dropped
        assert cache.get(42)[0] and cache.get("model-x")[0]
        assert cache.invalidate(None) == 2  # full clear still takes everything

    def test_cached_arrays_readonly(self):
        cache = PredictionCache()
        arr = np.zeros(3)
        cache.put(("m", 1, "predict", b"k"), arr)
        assert not arr.flags.writeable

    def test_digest_tells_dtypes_apart_and_matches_equal_blocks(self):
        """Same shape, same (zero) bytes: only the dtype differs.  Two of
        the structured dtypes share an itemsize, where ``dtype.str`` alone
        reads ``|V8`` for both."""
        dtypes = ["<f8", ">f8", "<i8", "<u8", "V8", "M8[s]", "M8[ms]",
                  [("a", "<f8")], [("b", "<f8")], [("a", "<i8")]]
        digests = [request_digest(np.zeros(2, dtype=d)) for d in dtypes]
        assert len(set(digests)) == len(dtypes)
        rows = _data(n=2, seed=23)[0]
        assert request_digest(rows) == request_digest(rows.copy())
        assert request_digest(rows) == request_digest(np.asfortranarray(rows))
        assert request_digest(rows) != request_digest(rows[:1])


class TestInferenceService:
    """One name served through a :class:`ServingGateway`: its batcher,
    cache, version-keyed inserts and stage-change invalidation."""

    def test_duplicate_requests_hit_cache(self, data):
        gbm = _fresh_gbm(data)  # registering freezes+seals: never the shared fixture
        reg = ModelRegistry()
        reg.register("m", gbm, promote=True)
        row = _data(n=1, seed=10)[0][0]
        with ServingGateway(reg, max_batch=4, max_delay=0.01) as gw:
            p1 = gw.predict("m", row, timeout=5.0)
            p2 = gw.predict("m", row, timeout=5.0)
            stats = gw.stats().per_name["m"]
        assert p1 == p2 == gbm.predict(row[None, :])[0]
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1
        assert stats.hit_rate == 0.5

    def test_promote_invalidates_and_switches_model(self, data):
        m1, m2 = _fresh_gbm(data, 0), _fresh_gbm(data, 1, n_estimators=10)
        reg = ModelRegistry()
        reg.register("m", m1, promote=True)
        reg.register("m", m2)
        row = _data(n=1, seed=11)[0][0]
        with ServingGateway(reg, max_batch=4, max_delay=0.01) as gw:
            p1 = gw.predict("m", row, timeout=5.0)
            reg.promote("m", 2)
            assert gw.stats().per_name["m"].cache_invalidations >= 1
            p2 = gw.predict("m", row, timeout=5.0)
            reg.rollback("m")
            p3 = gw.predict("m", row, timeout=5.0)
        assert p1 == m1.predict(row[None, :])[0]
        assert p2 == m2.predict(row[None, :])[0]
        assert p1 != p2  # different models, different answers
        assert p3 == p1  # rollback restores v1 numbers exactly

    def test_promote_between_submit_and_flush_never_caches_stale(self, data):
        """A result scored by a different version than the submit-time key
        must not be cached — otherwise a rollback could hit it later."""
        m1, m2 = _fresh_gbm(data, 0), _fresh_gbm(data, 1, n_estimators=10)
        reg = ModelRegistry()
        reg.register("m", m1, promote=True)
        reg.register("m", m2)
        row = _data(n=1, seed=13)[0][0]
        with ServingGateway(reg, max_batch=10_000, max_delay=600.0) as gw:
            ticket = gw.submit("m", row)  # key carries v1
            reg.promote("m", 2)           # lands before the flush
            gw.flush()                    # scored by v2 (flush-time resolution)
            assert ticket.result(5.0) == m2.predict(row[None, :])[0]
            # v2's number never filed under v1's key
            assert gw.stats().per_name["m"].cache_entries == 0

    def test_close_deregisters_listener(self, data):
        reg = ModelRegistry()
        reg.register("m", _fresh_gbm(data), promote=True)
        gw = ServingGateway(reg, max_batch=4, max_delay=0.01)
        assert len(reg._listeners) == 1
        gw.close()
        assert reg._listeners == []

    def test_unregister_invalidates_dropped_version_cache_entries(self, data):
        """Regression: without the unregister notification, a dropped
        version's cache entries lingered until LRU eviction — a leak in
        exactly the continuous-retrain loops unregister exists for."""
        reg = ModelRegistry()
        reg.register("m", _fresh_gbm(data, 0), promote=True)
        reg.register("m", _fresh_gbm(data, 1), promote=True)
        with ServingGateway(reg, max_batch=4, max_delay=0.01) as gw:
            cache = gw._open("m").cache
            cache.put(("m", 1, "predict", b"retired"), 1.0)
            cache.put(("m", 2, "predict", b"live"), 2.0)
            reg.unregister("m", 1)
            assert cache.get(("m", 1, "predict", b"retired"))[0] is False
            # surgical: the production version's warm entries survive
            assert cache.get(("m", 2, "predict", b"live"))[0] is True

    def test_mean_latency_counts_only_completed_requests(self, data):
        """Regression: total_latency_s only accumulates when a flush
        finishes, but the mean divided by all non-cache-hit submissions —
        pending tickets understated latency under load."""
        gbm = _fresh_gbm(data)
        reg = ModelRegistry()
        reg.register("m", gbm, promote=True)
        rows = _data(n=5, seed=22)[0]
        gw = ServingGateway(reg, max_batch=10_000, max_delay=600.0)
        try:
            done = [gw.submit("m", r) for r in rows[:3]]
            gw.flush()
            for t in done:
                t.result(timeout=5.0)
            gw.submit("m", rows[3])  # still pending at snapshot time
            gw.submit("m", rows[4])
            stats = gw.stats().per_name["m"]
            assert stats.requests == 5
            assert stats.completed == 3
            assert stats.total_latency_s > 0
            assert stats.mean_latency_ms == pytest.approx(1e3 * stats.total_latency_s / 3)
        finally:
            gw.close()

    def test_stats_accumulate(self, data):
        forest = _fresh_forest(data)  # fresh: registering seals the model
        reg = ModelRegistry()
        reg.register("f", forest, promote=True)
        rows = _data(n=40, seed=12)[0]
        with ServingGateway(reg, max_batch=16, max_delay=0.01) as gw:
            tickets = [gw.submit("f", r) for r in rows]
            gw.flush()
            for t in tickets:
                t.result(timeout=5.0)
            stats = gw.stats().per_name["f"]
        assert stats.requests == 40
        assert stats.rows == 40
        assert stats.batches >= 2
        assert stats.mean_batch_rows > 0
        assert stats.total_latency_s > 0
        assert "requests=40" in stats.summary()

    def test_abandoned_flows_into_server_stats(self, data):
        """A result() timeout's tombstone is an operational signal — it
        must reach ServerStats (field + summary), not stay a private
        batcher counter."""
        forest = _fresh_forest(data)
        reg = ModelRegistry()
        reg.register("f", forest, promote=True)
        rows = _data(n=3, seed=13)[0]
        with ServingGateway(reg, max_batch=1000, max_delay=600.0) as gw:
            tickets = [gw.submit("f", r) for r in rows]
            for t in tickets[:2]:
                with pytest.raises(TimeoutError):
                    t.result(timeout=0.01)
            stats = gw.stats().per_name["f"]
            assert stats.abandoned == 2
            assert "abandoned=2" in stats.summary()
            gw.flush()
            assert tickets[2].result(timeout=5.0) == float(
                forest.predict(rows[2][None, :])[0]
            )


# ---------------------------------------------------------------------- #
class TestPackReuseAcrossVersions:
    def test_gbm_truncated_shares_arena(self, data, gbm):
        X, _ = data
        full_pack = gbm._ensure_pack()
        trunc = gbm.truncated(10)
        assert len(trunc.trees_) == 10
        assert trunc._pack.n_trees == 10
        for a, b in (
            (trunc._pack.value, full_pack.value),
            (trunc._pack.left, full_pack.left),
            (trunc._pack.feature, full_pack.feature),
        ):
            assert np.shares_memory(a, b)
        # bit-identical to the staged prediction at that round
        assert np.array_equal(trunc.predict(X[:100]), gbm.staged_predict(X[:100])[9])

    def test_forest_truncated_shares_arena(self, data, forest):
        X, _ = data
        trunc = forest.truncated(12)
        assert np.shares_memory(trunc._pack.value, forest._ensure_pack().value)
        codes = forest.binner_.transform(np.asarray(X[:80], dtype=float))
        ref = np.stack([t.predict(codes) for t in forest.trees_[:12]])
        assert np.array_equal(trunc.predict(X[:80]), ref.mean(axis=0))

    def test_truncated_bounds_checked(self, gbm, forest):
        with pytest.raises(ValueError):
            gbm.truncated(len(gbm.trees_) + 1)
        with pytest.raises(ValueError):
            gbm.truncated(-1)
        with pytest.raises(ValueError):
            forest.truncated(0)  # a forest mean needs at least one tree

    def test_gbm_truncated_to_zero_is_base_score(self, data, gbm):
        """GBM prefix of zero rounds is the base-score model (well-defined)."""
        X, _ = data
        empty = gbm.truncated(0)
        assert np.array_equal(empty.predict(X[:20]), np.full(20, gbm.base_score_))

    def test_registry_of_truncated_versions(self, data):
        """Staged rollout of prefix ensembles: v2 shares v1's arena."""
        X, _ = data
        parent = _fresh_gbm(data)
        reg = ModelRegistry()
        reg.register("m", parent, promote=True)
        v2 = reg.register("m", parent.truncated(8))
        trunc = reg.get("m", version=v2)
        assert np.shares_memory(trunc._pack.value, parent._pack.value)
        assert np.array_equal(trunc.predict(X[:60]), parent.staged_predict(X[:60])[7])
