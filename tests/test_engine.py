"""One engine: ``FuzzyMatcher.build`` / ``open`` / ``save``.

A warehouse records the build-time config its ETI depends on; reopening
it with another one is refused, naming the field, instead of answering
from signatures that cannot hit the stored q-grams.  The record survives
every later checkpoint.  Also here: ``registry=`` and the flag on empty
answers that read a stop q-gram's nulled tid-list.
"""

import csv
import dataclasses
import json

import pytest

from repro.cli import main
from repro.core.config import MatchConfig, SignatureScheme
from repro.core.matcher import BUILD_FIELDS, FuzzyMatcher
from repro.core.reference import ReferenceTable
from repro.data.datasets import DatasetSpec, make_dataset
from repro.data.generator import CUSTOMER_COLUMNS, generate_customers
from repro.db.database import Database
from repro.db.errors import DatabaseError, WarehouseConfigError
from repro.db.snapshot import save_database
from repro.eti.builder import build_eti
from repro.eval.harness import Workbench
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.serve.server import MatchServer, ServeConfig

CONFIG = MatchConfig(q=3)
REBUILD = "rebuild the warehouse from its reference relation"
#: One disagreeing value per build-time field.
MISMATCHES = {
    "q": 4,
    "signature_size": 3,
    "scheme": SignatureScheme.QGRAMS,
    "seed": 7,
    "stop_qgram_threshold": 50,
}


@pytest.fixture(scope="module")
def world():
    customers = generate_customers(300, seed=11, unique=True)
    rows = [(c.tid, c.values) for c in customers]
    dirty = make_dataset(rows, DatasetSpec.preset("D2"), 40, seed=12)
    return rows, [d.values for d in dirty.inputs]


def build(path, rows, config=CONFIG, wal=False):
    return FuzzyMatcher.build(CUSTOMER_COLUMNS, rows, config, path=str(path), wal=wal)


def answers(matcher, inputs, strategy):
    """Every ``(tid, repr(similarity))`` and every counter but the clock."""
    out = []
    for values in inputs:
        result = matcher.match(values, strategy=strategy)
        stats = dataclasses.asdict(result.stats)
        stats.pop("elapsed_seconds")
        out.append(([(m.tid, repr(m.similarity), m.values) for m in result.matches], stats))
    return out


def meta(path):
    with open(f"{path}.meta.json") as handle:
        return json.load(handle)


class TestBuildOpenSave:
    @pytest.mark.parametrize("strategy", ["naive", "basic", "osc"])
    def test_open_answers_bit_identical_to_build(self, tmp_path, world, strategy):
        rows, inputs = world
        path = tmp_path / "wh.pages"
        built = build(path, rows)
        expected = answers(built, inputs, strategy)
        built.database.close()
        opened = FuzzyMatcher.open(str(path), CONFIG)
        try:
            assert opened.build_stats is None
            assert answers(opened, inputs, strategy) == expected
        finally:
            opened.database.close()

    def test_in_memory_build_matches_hand_wiring(self, world):
        rows, inputs = world
        built = FuzzyMatcher.build(CUSTOMER_COLUMNS, rows, CONFIG)
        db = Database.in_memory()
        reference = ReferenceTable(db, "reference", CUSTOMER_COLUMNS)
        reference.load(rows)
        eti, stats = build_eti(db, reference, CONFIG)
        by_hand = FuzzyMatcher(reference, built.weights, CONFIG, eti)
        assert built.build_stats.eti_rows == stats.eti_rows
        assert answers(built, inputs, "osc") == answers(by_hand, inputs, "osc")

    def test_one_hasher_signs_build_and_queries(self, world):
        built = FuzzyMatcher.build(CUSTOMER_COLUMNS, world[0][:20], CONFIG)
        assert built.hasher._memo  # the ETI build signed through it

    def test_build_records_its_config(self, tmp_path, world):
        path = tmp_path / "wh.pages"
        build(path, world[0][:20]).database.close()
        assert meta(path)["build_config"] == {
            "q": 3,
            "signature_size": 2,
            "scheme": "Q+T",
            "seed": 2003,
            "stop_qgram_threshold": 10_000,
            "relation": "reference",
            "columns": list(CUSTOMER_COLUMNS),
        }

    def test_query_time_fields_may_differ(self, tmp_path, world):
        path = tmp_path / "wh.pages"
        build(path, world[0]).database.close()
        config = CONFIG.with_(k=3, min_similarity=0.2, use_osc=False)
        opened = FuzzyMatcher.open(str(path), config)
        try:
            assert len(opened.match(world[1][0]).matches) <= 3
            assert opened.config is config
        finally:
            opened.database.close()

    def test_save_needs_a_warehouse(self, world):
        rows = world[0][:20]
        built = FuzzyMatcher.build(CUSTOMER_COLUMNS, rows, CONFIG)
        with pytest.raises(DatabaseError, match="in-memory"):
            built.save()
        bare = FuzzyMatcher(built.reference, built.weights, CONFIG, built.eti)
        assert bare.database is None
        with pytest.raises(DatabaseError, match="no warehouse"):
            bare.save()


class TestConfigMismatch:
    @pytest.mark.parametrize("field", BUILD_FIELDS)
    def test_open_names_the_field(self, tmp_path, world, field):
        path = tmp_path / "wh.pages"
        build(path, world[0][:50]).database.close()
        with pytest.raises(WarehouseConfigError) as info:
            FuzzyMatcher.open(str(path), CONFIG.with_(**{field: MISMATCHES[field]}))
        assert info.value.field == field
        assert f"{field}=" in str(info.value)

    def test_the_first_disagreeing_field_is_named(self, tmp_path, world):
        path = tmp_path / "wh.pages"
        build(path, world[0][:50]).database.close()
        with pytest.raises(WarehouseConfigError) as info:
            FuzzyMatcher.open(str(path), CONFIG.with_(seed=1, signature_size=1))
        assert info.value.field == "signature_size"

    def test_a_warehouse_without_a_build_config_is_refused(self, tmp_path, world):
        """The hand wiring every warehouse was built with until now."""
        path = tmp_path / "old.pages"
        db = Database.on_disk(str(path))
        reference = ReferenceTable(db, "reference", CUSTOMER_COLUMNS)
        reference.load(world[0][:50])
        build_eti(db, reference, CONFIG)
        save_database(db)
        db.close()
        with pytest.raises(DatabaseError, match=REBUILD):
            FuzzyMatcher.open(str(path), CONFIG, wal=True)


    def test_a_record_that_disagrees_with_the_catalog_is_a_typed_error(self, tmp_path, world):
        path = tmp_path / "wh.pages"
        build(path, world[0][:50]).database.close()
        document = meta(path)
        document["build_config"]["columns"] = ["name", "city"]
        with open(f"{path}.meta.json", "w") as handle:
            json.dump(document, handle)
        with pytest.raises(DatabaseError, match="disagrees with its catalog"):
            FuzzyMatcher.open(str(path), CONFIG)


class TestCliRefusesMismatch:
    @pytest.fixture()
    def csvs(self, tmp_path):
        reference = tmp_path / "reference.csv"
        dirty = tmp_path / "dirty.csv"
        main(["generate", "--count", "150", "--seed", "3", "--out", str(reference)])
        main(["corrupt", "--reference", str(reference), "--count", "10",
              "--preset", "D2", "--seed", "5", "--out", str(dirty)])
        return reference, dirty

    def match(self, tmp_path, csvs, db_path, *flags):
        reference, dirty = csvs
        return main(["match", "--reference", str(reference), "--input", str(dirty),
                     "--db", str(db_path), *flags, "--out", str(tmp_path / "out.csv")])

    @pytest.mark.parametrize(
        "flags, field",
        [(("--q", "3"), "q"), (("--signature-size", "3"), "signature_size"),
         (("--scheme", "Q"), "scheme")],
    )
    def test_match_with_another_build_flag_exits_naming_it(
        self, tmp_path, csvs, flags, field
    ):
        db_path = tmp_path / "wh.pages"
        assert self.match(tmp_path, csvs, db_path) == 0
        with pytest.raises(SystemExit) as info:
            self.match(tmp_path, csvs, db_path, *flags)
        message = info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"{db_path}: warehouse built with {field}=")

    def test_match_on_a_warehouse_of_another_seed_exits_naming_it(self, tmp_path, csvs):
        with open(csvs[0], newline="") as handle:
            records = list(csv.reader(handle))[1:]
        rows = [(int(r[0]), tuple(v or None for v in r[1:])) for r in records]
        db_path = tmp_path / "seed7.pages"
        build(db_path, rows, MatchConfig(seed=7), wal=True).database.close()
        with pytest.raises(SystemExit, match="seed=7, not seed=2003"):
            self.match(tmp_path, csvs, db_path)

    def test_match_on_a_warehouse_without_a_build_config_exits(self, tmp_path, csvs):
        db_path = tmp_path / "wh.pages"
        self.match(tmp_path, csvs, db_path)
        document = meta(db_path)
        del document["build_config"]
        with open(f"{db_path}.meta.json", "w") as handle:
            json.dump(document, handle)
        with pytest.raises(SystemExit, match=REBUILD):
            self.match(tmp_path, csvs, db_path)


class TestBuildConfigSurvivesCheckpoints:
    def test_server_drain(self, tmp_path, world):
        path = tmp_path / "wh.pages"
        matcher = build(path, world[0][:80], wal=True)
        before = meta(path)
        server = MatchServer(engine=matcher, config=ServeConfig(workers=1))
        server.start()
        server.shutdown(drain_budget_s=1.0)
        matcher.database.close()
        after = meta(path)
        assert server.checkpoint_error is None
        assert after["generation"] == before["generation"] + 1
        assert after["build_config"] == before["build_config"]
        FuzzyMatcher.open(str(path), CONFIG, wal=True).database.close()

    def test_repro_recover(self, tmp_path, world, capsys):
        path = tmp_path / "wh.pages"
        matcher = build(path, world[0][:80], wal=True)
        with matcher.database.transaction():
            matcher.reference.insert(10_000, ("late tuple", "austin", "tx", "78701"))
        matcher.database.pool.storage.close()  # a crash: the tail is still in the log
        recorded = meta(path)["build_config"]
        assert main(["recover", str(path)]) == 0
        assert "replayed pages" in capsys.readouterr().out
        assert meta(path)["build_config"] == recorded
        reopened = FuzzyMatcher.open(str(path), CONFIG, wal=True)
        try:
            assert 10_000 in reopened.reference
        finally:
            reopened.database.close()

    def test_matcher_save(self, tmp_path, world):
        path = tmp_path / "wh.pages"
        build(path, world[0][:80], wal=True).database.close()
        opened = FuzzyMatcher.open(str(path), CONFIG, wal=True)
        opened.save()
        opened.database.close()
        assert meta(path)["generation"] == 2
        assert meta(path)["build_config"]["q"] == 3


class TestRegistry:
    def test_the_matcher_publishes_to_the_registry_it_is_given(self, world):
        built = FuzzyMatcher.build(CUSTOMER_COLUMNS, world[0][:50], CONFIG)
        registry = MetricsRegistry()
        matcher = FuzzyMatcher(
            built.reference, built.weights, CONFIG, built.eti, registry=registry
        )
        assert matcher.registry is registry
        matcher.match(world[1][0])
        assert registry.counter("repro_match_queries_total").value() == 1
        assert FuzzyMatcher(built.reference, built.weights).registry is not registry


class TestStopQgramAnswersAreFlagged:
    """An empty answer after reading a nulled tid-list is not "no match"."""

    COLUMNS = ("name", "city")
    STOP = MatchConfig(q=3, stop_qgram_threshold=5)

    @pytest.fixture()
    def matcher(self):
        rows = [(tid, ("acme corp", "seattle")) for tid in range(12)]
        rows.append((12, ("zenith labs", "tacoma")))
        return FuzzyMatcher.build(self.COLUMNS, rows, self.STOP)

    @pytest.mark.parametrize("strategy", ["basic", "osc"])
    def test_empty_answer_from_nulled_lists_is_degraded(self, matcher, strategy):
        with Tracer().trace("q") as root:
            result = matcher.match(("acme corp", "seattle"), strategy=strategy)
        assert result.matches == []
        assert result.stats.degraded
        assert result.stats.degraded_reason == "stop_qgrams"
        (matcher_span,) = root.children
        probe = next(s for s in matcher_span.children if s.name == "matcher.eti_lookups")
        assert probe.annotations["nulled"] == result.stats.eti_lookups
        degraded = matcher.registry.counter(
            "repro_match_degraded_total", {"reason": "stop_qgrams"}
        )
        assert degraded.value() == 1
        # The naive scan shows what the index could not: the tuple is there.
        assert matcher.match(("acme corp", "seattle"), strategy="naive").best.similarity == 1.0

    @pytest.mark.parametrize("strategy", ["basic", "osc"])
    def test_an_answer_found_beside_nulled_lists_is_not_flagged(self, matcher, strategy):
        result = matcher.match(("zenith labs", "seattle"), strategy=strategy)
        assert result.best.tid == 12
        assert not result.stats.degraded

    def test_every_empty_answer_at_scale_is_flagged(self):
        """3 000 tuples, stop threshold 60: six D2 inputs come back empty
        from both indexed strategies, and the naive scan finds the seed
        tuple for five of them."""
        bench = Workbench(
            3000, 200, seed=42, dataset_names=("D2",),
            base_config=MatchConfig(stop_qgram_threshold=60),
        )
        matcher = bench.matcher_for(bench.base_config)
        inputs = bench.datasets["D2"].inputs
        for strategy in ("basic", "osc"):
            empty = [r for r in (matcher.match(d.values, strategy=strategy) for d in inputs)
                     if not r.matches]
            assert len(empty) == 6
            assert all(r.stats.degraded_reason == "stop_qgrams" for r in empty)
