"""The command-line interface: generate → corrupt → match round trips."""

import csv
import re

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    return main(argv)


@pytest.fixture()
def reference_csv(tmp_path):
    path = tmp_path / "reference.csv"
    run_cli(["generate", "--count", "150", "--seed", "3", "--out", str(path)])
    return path


@pytest.fixture()
def dirty_csv(tmp_path, reference_csv):
    path = tmp_path / "dirty.csv"
    run_cli(
        [
            "corrupt",
            "--reference", str(reference_csv),
            "--count", "25",
            "--preset", "D3",
            "--seed", "5",
            "--out", str(path),
        ]
    )
    return path


class TestGenerate:
    def test_writes_header_and_rows(self, reference_csv):
        with open(reference_csv, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["tid", "name", "city", "state", "zipcode"]
        assert len(rows) == 151
        assert rows[1][0] == "0"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["generate", "--count", "50", "--seed", "9", "--out", str(a)])
        run_cli(["generate", "--count", "50", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestCorrupt:
    def test_writes_target_tid(self, dirty_csv):
        with open(dirty_csv, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "target_tid"
        assert len(rows) == 26
        assert all(row[0].isdigit() for row in rows[1:])

    def test_custom_probabilities(self, tmp_path, reference_csv):
        path = tmp_path / "custom.csv"
        run_cli(
            [
                "corrupt",
                "--reference", str(reference_csv),
                "--count", "10",
                "--probabilities", "1.0,0.0,0.0,0.0",
                "--out", str(path),
            ]
        )
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 11

    def test_type2(self, tmp_path, reference_csv):
        path = tmp_path / "t2.csv"
        run_cli(
            [
                "corrupt",
                "--reference", str(reference_csv),
                "--count", "10",
                "--preset", "D2",
                "--method", "type2",
                "--out", str(path),
            ]
        )
        assert path.exists()

    def test_requires_preset_or_probabilities(self, reference_csv):
        with pytest.raises(SystemExit):
            run_cli(["corrupt", "--reference", str(reference_csv), "--count", "5"])


class TestMatch:
    def test_match_output_schema(self, tmp_path, reference_csv, dirty_csv):
        out = tmp_path / "matches.csv"
        run_cli(
            [
                "match",
                "--reference", str(reference_csv),
                "--input", str(dirty_csv),
                "--q", "3",
                "--out", str(out),
            ]
        )
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][-2:] == ["matched_tid", "similarity"]
        assert len(rows) == 26
        matched = [row for row in rows[1:] if row[-2] != ""]
        assert matched, "at least some inputs must match"
        for row in matched:
            assert 0.0 <= float(row[-1]) <= 1.0

    def test_high_accuracy_on_clean_preset(self, tmp_path, reference_csv, dirty_csv):
        out = tmp_path / "matches.csv"
        run_cli(
            [
                "match",
                "--reference", str(reference_csv),
                "--input", str(dirty_csv),
                "--out", str(out),
            ]
        )
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        correct = sum(1 for row in rows if row[0] == row[-2])
        assert correct / len(rows) > 0.75

    def test_strategy_flag(self, tmp_path, reference_csv, dirty_csv):
        for strategy in ("naive", "basic", "osc"):
            out = tmp_path / f"m_{strategy}.csv"
            run_cli(
                [
                    "match",
                    "--reference", str(reference_csv),
                    "--input", str(dirty_csv),
                    "--strategy", strategy,
                    "--out", str(out),
                ]
            )
            assert out.exists()

    def test_column_mismatch_rejected(self, tmp_path, reference_csv):
        bad = tmp_path / "bad.csv"
        bad.write_text("name,city\nfoo,bar\n")
        with pytest.raises(SystemExit, match="attribute columns"):
            run_cli(
                [
                    "match",
                    "--reference", str(reference_csv),
                    "--input", str(bad),
                    "--out", str(tmp_path / "x.csv"),
                ]
            )

    @pytest.mark.parametrize("missing", ["--reference", "--input"])
    def test_missing_file_exits_naming_it(self, tmp_path, reference_csv, dirty_csv, missing):
        paths = {"--reference": str(reference_csv), "--input": str(dirty_csv)}
        paths[missing] = str(tmp_path / "nonexistent.csv")
        argv = ["match", "--out", str(tmp_path / "x.csv")]
        for flag, path in paths.items():
            argv += [flag, path]
        with pytest.raises(SystemExit, match="nonexistent.csv"):
            run_cli(argv)

    @pytest.mark.parametrize("command", ["corrupt", "dedup", "explain"])
    def test_missing_reference_exits_naming_it(self, tmp_path, command):
        argv = [command, "--reference", str(tmp_path / "nonexistent.csv")]
        argv += {"corrupt": ["--preset", "D1"], "dedup": [], "explain": ["a", "b"]}[command]
        with pytest.raises(SystemExit, match="nonexistent.csv"):
            run_cli(argv)


class TestDedup:
    def test_dedup_output(self, tmp_path, reference_csv):
        # Duplicate a few reference rows verbatim, then dedup.
        polluted = tmp_path / "polluted.csv"
        lines = reference_csv.read_text().splitlines()
        header, rows = lines[0], lines[1:]
        extra = [
            f"{1000 + i},{row.split(',', 1)[1]}" for i, row in enumerate(rows[:5])
        ]
        polluted.write_text("\n".join([header] + rows + extra) + "\n")
        out = tmp_path / "dedup.csv"
        run_cli(
            [
                "dedup",
                "--reference", str(polluted),
                "--threshold", "0.99",
                "--out", str(out),
            ]
        )
        with open(out, newline="") as handle:
            result_rows = list(csv.reader(handle))
        assert result_rows[0][-1] == "duplicate_of"
        flagged = [row for row in result_rows[1:] if row[-1] != ""]
        # Each planted exact duplicate pairs with its source.
        assert len(flagged) == 5


class TestExplain:
    def test_explain_traces_and_matches(self, capsys, reference_csv, dirty_csv):
        with open(dirty_csv, newline="") as handle:
            rows = list(csv.reader(handle))
        values = rows[1][1:]  # first dirty tuple's attributes
        run_cli(
            ["explain", "--reference", str(reference_csv)]
            + [v if v else "" for v in values]
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("explain  ")
        assert lines[1].startswith("  matcher  ") and "strategy=osc" in lines[1]
        names = [line.split()[0] for line in lines[2:] if line.startswith("    ")]
        assert names[:2] == ["matcher.signature_build", "matcher.eti_lookups"]
        assert names[-1] == "db"
        assert re.search(r"input_weight=\S+ entries=\d+ threshold=0", lines[2])
        assert re.search(r"lookups=\d+ tids_processed=\d+", lines[3])
        assert any(x.startswith(("match tid=", "no match")) for x in lines)

    def test_explain_wrong_arity(self, reference_csv):
        with pytest.raises(SystemExit, match="columns"):
            run_cli(["explain", "--reference", str(reference_csv), "just-one"])


class TestEvaluate:
    def test_evaluate_fig7_tiny(self, capsys):
        """The evaluate subcommand renders figure tables end-to-end."""
        run_cli(
            [
                "evaluate",
                "--reference-size", "120",
                "--inputs", "6",
                "--figures", "fig7",
                "--seed", "2",
            ]
        )
        output = capsys.readouterr().out
        assert "Figure 7" in output
        assert "Q+T_3" in output


class TestPersistedWarehouse:
    def _match(self, tmp_path, reference_csv, dirty_csv, db_path, extra=()):
        out = tmp_path / "warehouse-matches.csv"
        run_cli(
            [
                "match",
                "--reference", str(reference_csv),
                "--input", str(dirty_csv),
                "--q", "3",
                "--db", str(db_path),
                *extra,
                "--out", str(out),
            ]
        )
        return out

    def test_first_run_builds_second_reuses(
        self, tmp_path, reference_csv, dirty_csv, capsys
    ):
        db_path = tmp_path / "warehouse.pages"
        first = self._match(tmp_path, reference_csv, dirty_csv, db_path)
        assert "built ETI" in capsys.readouterr().err
        assert db_path.exists()
        assert (tmp_path / "warehouse.pages.meta.json").exists()
        assert (tmp_path / "warehouse.pages.wal").exists()

        second = self._match(tmp_path, reference_csv, dirty_csv, db_path)
        assert "reused persisted ETI" in capsys.readouterr().err
        assert first.read_text() == second.read_text()

    def test_no_wal_leaves_no_log(self, tmp_path, reference_csv, dirty_csv):
        db_path = tmp_path / "nolog.pages"
        self._match(tmp_path, reference_csv, dirty_csv, db_path, ("--no-wal",))
        assert db_path.exists()
        assert not (tmp_path / "nolog.pages.wal").exists()

    def test_fsck_clean_warehouse(self, tmp_path, reference_csv, dirty_csv, capsys):
        db_path = tmp_path / "clean.pages"
        self._match(tmp_path, reference_csv, dirty_csv, db_path)
        capsys.readouterr()
        assert run_cli(["fsck", str(db_path), "--eti-name", "eti"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_fsck_flags_corruption(self, tmp_path, reference_csv, dirty_csv, capsys):
        db_path = tmp_path / "damaged.pages"
        self._match(tmp_path, reference_csv, dirty_csv, db_path)
        with open(db_path, "r+b") as handle:  # flip one byte mid-file
            handle.seek(db_path.stat().st_size // 2)
            byte = handle.read(1)
            handle.seek(-1, 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        capsys.readouterr()
        assert run_cli(["fsck", str(db_path)]) == 2
        assert "checksum mismatch" in capsys.readouterr().out

    def test_fsck_warns_on_torn_tail(self, tmp_path, reference_csv, dirty_csv, capsys):
        db_path = tmp_path / "torn.pages"
        self._match(tmp_path, reference_csv, dirty_csv, db_path)
        from repro.db.snapshot import load_database

        db = load_database(str(db_path))
        with db.transaction():
            db.relation("reference").insert((999_999, "Torn", "X", "YY", "00000"))
        db.pool.storage.close()
        with open(str(db_path) + ".wal", "ab") as handle:
            handle.write(b"\x01torn-begin-record-prefix")
        capsys.readouterr()
        assert run_cli(["fsck", str(db_path)]) == 1
        assert "torn tail" in capsys.readouterr().out

    def test_recover_checkpoints_the_log(
        self, tmp_path, reference_csv, dirty_csv, capsys
    ):
        db_path = tmp_path / "recoverable.pages"
        self._match(tmp_path, reference_csv, dirty_csv, db_path)
        from repro.db.snapshot import load_database
        from repro.db.wal import HEADER_SIZE

        db = load_database(str(db_path))
        with db.transaction():
            db.relation("reference").insert((999_998, "Late", "X", "YY", "00000"))
        db.pool.storage.close()
        wal_path = tmp_path / "recoverable.pages.wal"
        assert wal_path.stat().st_size > HEADER_SIZE  # a live tail to replay

        capsys.readouterr()
        assert run_cli(["recover", str(db_path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "committed txns:  1" in out
        assert wal_path.stat().st_size > HEADER_SIZE  # dry run kept the tail

        assert run_cli(["recover", str(db_path)]) == 0
        assert "checkpointed" in capsys.readouterr().out
        assert wal_path.stat().st_size == HEADER_SIZE  # emptied by checkpoint
        assert run_cli(["fsck", str(db_path)]) == 0


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "generate", "corrupt", "match", "dedup", "evaluate", "fsck", "recover"
        ):
            assert command in text

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["frobnicate"])

    def test_executor_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["match", "--reference", "r.csv", "--input", "i.csv", "--executor", "process"]
            )
        assert excinfo.value.code == 2
        assert "--executor" in capsys.readouterr().err
