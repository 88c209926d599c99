"""Tests for the CLI tools and the CSV/JSON export layer."""

import datetime
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import dig_main, scan_main, tables_main
from repro.reporting.export import (
    export_figure_data,
    multi_series_to_csv,
    series_to_csv,
    table_to_csv,
    to_json,
)


class TestExportPrimitives:
    def test_series_csv(self):
        text = series_to_csv([(datetime.date(2023, 5, 8), 20.5)], "pct")
        lines = text.strip().splitlines()
        assert lines[0] == "date,pct"
        assert lines[1].startswith("2023-05-08,20.5")

    def test_multi_series_joins_on_date(self):
        a = [(datetime.date(2023, 5, 8), 1.0), (datetime.date(2023, 5, 9), 2.0)]
        b = [(datetime.date(2023, 5, 9), 3.0)]
        text = multi_series_to_csv({"a": a, "b": b})
        lines = text.strip().splitlines()
        assert lines[0] == "date,a,b"
        assert lines[1].endswith(",")  # b missing on day 1
        assert "3.0" in lines[2]

    def test_table_csv(self):
        text = table_to_csv(["x", "y"], [[1, 2]])
        assert text.strip().splitlines() == ["x,y", "1,2"]

    def test_json_handles_dates_and_bytes(self):
        payload = {"day": datetime.date(2024, 1, 2), "digest": b"\x01\x02", "s": {"b", "a"}}
        decoded = json.loads(to_json(payload))
        assert decoded["day"] == "2024-01-02"
        assert decoded["digest"] == "0102"
        assert decoded["s"] == ["a", "b"]


class TestExportFigureData:
    def test_writes_all_files(self, dataset, tmp_path):
        written = export_figure_data(dataset, str(tmp_path))
        names = {os.path.basename(path) for path in written}
        assert {"fig2_adoption.csv", "fig11_hints.csv", "fig13_ech_share.csv",
                "fig5_signed.csv", "fig4_rotation.json"} <= names
        adoption_csv = (tmp_path / "fig2_adoption.csv").read_text()
        assert adoption_csv.startswith("date,")
        assert len(adoption_csv.strip().splitlines()) == len(dataset.days()) + 1
        rotation = json.loads((tmp_path / "fig4_rotation.json").read_text())
        assert rotation["public_names"] == ["cloudflare-ech.com"]


class TestCli:
    def test_dig_https(self, capsys):
        rc = dig_main(["err.ee", "HTTPS", "--population", "200", "--date", "2023-09-01"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ANSWER" in out
        assert "HTTPS" in out

    def test_dig_nonexistent(self, capsys):
        rc = dig_main([
            "no-such-domain-xyz.com", "A", "--population", "200", "--date", "2023-09-01",
        ])
        assert rc == 1

    def test_dig_bad_type(self):
        with pytest.raises(SystemExit):
            dig_main(["err.ee", "BOGUSTYPE", "--population", "200"])

    def test_tables_table7_only(self, capsys):
        rc = tables_main(["--table", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Split Mode" in out
        assert "Table 6" not in out

    def test_scan_continuous_flags_require_continuous(self, capsys):
        with pytest.raises(SystemExit):
            scan_main(["--max-increments", "2"])
        assert "requires --continuous" in capsys.readouterr().err

    def test_scan_release_dir_requires_release(self, capsys):
        with pytest.raises(SystemExit):
            scan_main(["--release-dir", "out"])
        assert "requires --release" in capsys.readouterr().err

    def test_scan_rejects_bad_release_tag(self, capsys):
        with pytest.raises(SystemExit):
            scan_main(["--release", "v1/beta"])
        assert "invalid release tag" in capsys.readouterr().err


class TestClosedPipe:
    """``repro-tables | head`` and friends: a reader that closes the pipe
    before the output is written ends the run quietly with status 0."""

    @pytest.mark.parametrize(
        "entry, args",
        [
            ("tables_main", []),
            ("scan_main", ["--help"]),
            ("dig_main", ["--help"]),
            ("main", ["tables"]),
        ],
    )
    def test_closed_pipe_exits_zero_without_stderr(self, entry, args):
        # The same call a console script makes: entry() reading sys.argv.
        code = f"import sys; from repro.cli import {entry}; sys.exit({entry}())"
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-c", code, *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        # Close the read end before the interpreter has even started, so
        # every write the entry point makes hits a closed pipe.
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert stderr == b""
