import codecs
import json
import os
import socket
import subprocess
import sys
from importlib.resources import files
from pathlib import Path
from xml.etree import ElementTree

import pytest

import formukit
from formukit import cli
from formukit.cli import AppConfig, main
from formukit.errors import DuplicateTimeError, ParseError, TransportError, ValidationError

SEED_FILE = str(files("formukit") / "data" / "seed_records.json")

REFERENCE_INPUT = {
    "Mean Particle Size, D50": 97.5,
    "Aspect ratio": 1.0,
    "Roundness": 1.0,
    "solubility of drug (mg/mL)": 0.45,
    "Diffusion coefficient of drug (m^2/s)": 7.5e-10,
    "True Density of drug (g/mL)": 1.512,
    "Specific surface area (m^2/g)": 1.07,
    "volume-based equivalent particle size (micrometer)": 1.85,
}


@pytest.fixture
def input_file(tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"Input": REFERENCE_INPUT}))
    return str(path)


def _out(tmp_path, run_id="t"):
    return tmp_path / "out" / run_id


def _run_dir_flags(argv, output_dir, run_id="t"):
    """--output-dir and --run-id, for a command that writes a run directory:
    the store commands write none and take neither."""
    return [] if argv[0] == "store" else ["--output-dir", str(output_dir), "--run-id", run_id]


class TestSimulate:
    def test_reference_input_ten_rows(self, tmp_path, input_file, capsys):
        code = main(["simulate", "--input", input_file,
                     "--output-dir", str(tmp_path / "out"), "--run-id", "t"])
        assert code == 0
        csv_text = (_out(tmp_path) / "profile.csv").read_text()
        lines = csv_text.splitlines()
        assert lines[0] == "time_hr,released_pct"
        assert len(lines) == 11
        out = capsys.readouterr().out
        assert "time_hr,released_pct" in out

    def test_missing_field_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"Aspect ratio": 1.0}))
        code = main(["simulate", "--input", str(bad),
                     "--output-dir", str(tmp_path / "out"), "--run-id", "t"])
        assert code == 2
        assert "d50" in capsys.readouterr().err

    # --ssa is predict's: the solver reads no SSA, and simulate takes no --ssa
    @pytest.mark.parametrize("flags", [["simulate", "--d50", "inf"], ["simulate", "--d50", "nan"],
                                       ["predict", "--strategy", "zs", "--d50", "50",
                                        "--ssa", "inf"],
                                       ["simulate", "--d50", "50", "--medium-volume", "inf"],
                                       ["simulate", "--d50", "50", "--rpm", "inf"],
                                       ["simulate", "--d50", "50", "--geo-sigma", "inf"],
                                       ["simulate", "--d50", "50", "--geo-sigma", "1e300"],
                                       ["simulate", "--d50", "50", "--sink", "--grid", "0,nan"],
                                       ["simulate", "--d50", "50", "--grid", "0,nan"],
                                       ["simulate", "--d50", "50", "--grid", "0,1,inf"]])
    def test_non_finite_feature_exit_2(self, tmp_path, capsys, flags):
        code = main([*flags, "--output-dir", str(tmp_path / "out"), "--run-id", "t"])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate"],
                                         ["predict", "--strategy", "zs", "--backend", "mock"]])
    @pytest.mark.parametrize("d50", ["1e-100", "1e-150", "1e200"])
    def test_size_out_of_range_exit_2(self, tmp_path, capsys, command, d50):
        code = main([*command, "--d50", d50, "--output-dir", str(tmp_path / "out"),
                     "--run-id", "t"])
        assert code == 2
        assert "bin sizes must be" in capsys.readouterr().err

    def test_grid_that_is_not_numbers_exit_2_naming_the_flag(self, tmp_path, capsys):
        code = main(["simulate", "--d50", "50", "--grid", "0,x",
                     "--output-dir", str(tmp_path / "out"), "--run-id", "t"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --grid takes only comma-separated numbers, got '0,x'\n")
        assert not (tmp_path / "out").exists()

    def test_custom_grid(self, tmp_path, input_file):
        code = main(["simulate", "--input", input_file, "--grid", "0,0.5,1",
                     "--output-dir", str(tmp_path / "out"), "--run-id", "t"])
        assert code == 0
        lines = (_out(tmp_path) / "profile.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_flags_instead_of_file(self, tmp_path):
        code = main(["simulate", "--d50", "45", "--geo-sigma", "1.5",
                     "--output-dir", str(tmp_path / "out"), "--run-id", "t", "--svg"])
        assert code == 0
        assert (_out(tmp_path) / "profile.svg").exists()


    @pytest.mark.parametrize("obj", [
        {"input": {"Mean Particle Size, D50": 50}},
        {"Input": {"Mean Particle Size, D50 ": 50}},
        {"id": "r1", "Input": {"Mean Particle Size, D50": 50}, "Output": [[0, 0], [1, 50]],
         "provenance": "experimental", "source": ""},
        {"d50_um": 50, "id": "r1", "profile": [[0, 0], [1, 50]]},
    ], ids=["lowercase-input", "key-with-space", "verbatim-record", "canonical-record"])
    def test_input_read_as_store_ingest_reads_it(self, tmp_path, obj):
        # The same Input shapes that store ingest accepts.
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        assert main(["simulate", "--input", str(path),
                     "--output-dir", str(tmp_path / "out"), "--run-id", "file"]) == 0
        assert main(["simulate", "--d50", "50",
                     "--output-dir", str(tmp_path / "out"), "--run-id", "flag"]) == 0
        csv_text = (_out(tmp_path, "file") / "profile.csv").read_text()
        assert csv_text == (_out(tmp_path, "flag") / "profile.csv").read_text()


    @pytest.mark.parametrize("obj, named", [
        ({"Input": {"Mean Particle Size, D50": 50, "solubility of drug (mg/ml)": 5}},
         "'solubility of drug (mg/ml)'"),
        ({"d50_um": 50, "solubilty_mg_ml": 5}, "'solubilty_mg_ml'"),
        ({"Input": {"d50_um": 50}, "Outptu": [[0, 0]]}, "'Outptu'"),
        ({"d50_um": 50, "Mean Particle Size, D50": 60}, "'d50_um' is named twice"),
        ({"Input": {"Roundness": 1.0, "Roundness ": 0.5, "d50_um": 50}},
         "'roundness' is named twice"),
    ], ids=["misspelt-verbatim-key", "misspelt-canonical-key", "misspelt-record-key",
            "canonical-and-verbatim", "verbatim-twice"])
    def test_input_key_naming_no_feature_or_one_twice_exit_2(self, tmp_path, capsys, obj,
                                                               named):
        # Such a key used to be dropped, or the last of two names to win, without a word.
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        assert main(["simulate", "--input", str(path),
                     "--output-dir", str(tmp_path / "out"), "--run-id", "t"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err

    def test_flags_override_the_input_file(self, tmp_path, input_file):
        common = ["simulate", "--output-dir", str(tmp_path / "out")]
        assert main(common + ["--input", input_file, "--solubility", "5", "--d50", "300",
                              "--run-id", "both"]) == 0
        assert main(common + ["--solubility", "5", "--d50", "300", "--run-id", "flags"]) == 0
        assert main(common + ["--input", input_file, "--run-id", "file"]) == 0
        csv_text = {run: (_out(tmp_path, run) / "profile.csv").read_text()
                    for run in ("both", "flags", "file")}
        assert csv_text["both"] == csv_text["flags"] != csv_text["file"]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--d50", "80", "--roundness", "0.3"],
        ["simulate", "--d50", "80", "--ssa", "9"],
        ["simulate", "--d50", "80", "--vol-eq", "400"],
        ["design", "--target", "t.csv", "--roundness", "0.3"],
        ["design", "--target", "t.csv", "--ssa", "9"],
        ["design", "--target", "t.csv", "--vol-eq", "400"],
        ["design", "--target", "t.csv", "--d50", "80"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_flags_the_solver_never_reads_are_gone(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output-dir", str(tmp_path / "out"), "--run-id", "t"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


class TestDesign:
    def test_round_trip(self, tmp_path, input_file):
        assert main(["simulate", "--input", input_file, "--geo-sigma", "1.5",
                     "--n-bins", "20",
                     "--output-dir", str(tmp_path / "out"), "--run-id", "sim"]) == 0
        target = str(_out(tmp_path, "sim") / "profile.csv")
        code = main(["design", "--target", target, "--start-d50", "130",
                     "--start-sigma", "1.4", "--n-bins", "20", "--n-starts", "1",
                     "--output-dir", str(tmp_path / "out"), "--run-id", "des"])
        assert code == 0
        payload = json.loads((_out(tmp_path, "des") / "design.json").read_text())
        assert payload["residual_mse_pct2"] < 1.0
        assert abs(payload["parameters"]["d50_um"] - 97.5) <= 0.15 * 97.5
        report = (_out(tmp_path, "des") / "design_report.txt").read_text()
        assert "d50:" in report
        assert "specific surface area" in report

    def test_infeasible_bounds_exit_2(self, tmp_path, input_file):
        assert main(["simulate", "--input", input_file,
                     "--output-dir", str(tmp_path / "out"), "--run-id", "sim"]) == 0
        target = str(_out(tmp_path, "sim") / "profile.csv")
        code = main(["design", "--target", target, "--d50-bounds", "500,100",
                     "--output-dir", str(tmp_path / "out"), "--run-id", "des"])
        assert code == 2


    @pytest.mark.parametrize("flag", ["--d50-bounds=0,100", "--d50-bounds=-5,100",
                                      "--d50-bounds=5,inf", "--sigma-bounds=1.05,inf",
                                      "--sigma-bounds=0.5,2", "--d50-bounds=nan,100",
                                      "--d50-bounds=abc", "--d50-bounds=1,2,3",
                                      "--d50-bounds=5"])
    def test_unusable_bounds_exit_2(self, tmp_path, input_file, capsys, flag):
        assert main(["simulate", "--input", input_file,
                     "--output-dir", str(tmp_path / "out"), "--run-id", "sim"]) == 0
        target = str(_out(tmp_path, "sim") / "profile.csv")
        code = main(["design", "--target", target, flag,
                     "--output-dir", str(tmp_path / "out"), "--run-id", "des"])
        assert code == 2
        assert "bound" in capsys.readouterr().err


    def _design(self, tmp_path, run_id, *flags):
        target = tmp_path / "target.csv"
        target.write_text("time_hr,released_pct\n0,0\n1,20\n2,35\n6,70\n")
        assert main(["design", "--target", str(target), "--n-bins", "12", "--n-starts", "1",
                     "--start-d50", "400", *flags,
                     "--output-dir", str(tmp_path / "out"), "--run-id", run_id]) == 0
        return (_out(tmp_path, run_id) / "design.json").read_text()

    def test_feature_flags_apply_without_d50(self, tmp_path):
        # These flags were read only when --d50, itself unread, was also given.
        assert (self._design(tmp_path, "flags", "--solubility", "5", "--aspect-ratio", "2")
                != self._design(tmp_path, "plain"))

    def test_input_without_d50_runs(self, tmp_path):
        # A design reads no d50: it starts from --start-d50.
        path = tmp_path / "powder.json"
        path.write_text(json.dumps({"solubility of drug (mg/mL)": 5, "aspect_ratio": 2}))
        assert (self._design(tmp_path, "file", "--input", str(path))
                == self._design(tmp_path, "flags", "--solubility", "5", "--aspect-ratio", "2"))


#: Backend flags that can make no call, and the error each exits 2 with.
_BACKENDS_THAT_CANNOT_CALL = [
    (["--backend", "live"], "live backend requires the FORMU_API_KEY environment variable"),
    (["--backend", "replay"], "replay backend needs a transcript file"),
    (["--backend", "replay", "--replay", "{tmp}/none.jsonl"],
     "[Errno 2] No such file or directory: '{tmp}/none.jsonl'"),
]


@pytest.mark.parametrize("argv", [["simulate", "--d50", "50"],
                                  ["design", "--target", "t.csv", "--n-starts", "1"]])
def test_more_bins_than_the_bound_exit_2(tmp_path, monkeypatch, capsys, argv):
    # the bound + 1 only: a count far past it would allocate before it is refused
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text("time_hr,released_pct\n0,0\n1,20\n2,35\n6,70\n")
    code = main([*argv, "--n-bins", "10001", "--output-dir", "out"])
    assert code == 2
    assert capsys.readouterr().err == "error: n_bins must be between 1 and 10000\n"
    assert not (tmp_path / "out").exists()


class TestPredict:
    def test_mock_equals_simulate(self, tmp_path, input_file):
        assert main(["simulate", "--input", input_file,
                     "--output-dir", str(tmp_path / "out"), "--run-id", "sim"]) == 0
        assert main(["predict", "--strategy", "zs", "--backend", "mock",
                     "--input", input_file,
                     "--output-dir", str(tmp_path / "out"), "--run-id", "pred"]) == 0
        sim_csv = (_out(tmp_path, "sim") / "profile.csv").read_text()
        pred_csv = (_out(tmp_path, "pred") / "profile.csv").read_text()
        assert sim_csv == pred_csv
        report = json.loads((_out(tmp_path, "pred") / "parse_report.json").read_text())
        assert report["parse"]["clamped_points"] == []
        assert (_out(tmp_path, "pred") / "transcript.jsonl").exists()

    def test_default_llm_config_without_a_config_file(self, tmp_path, input_file):
        assert main(["predict", "--strategy", "zs", "--backend", "mock", "--input", input_file,
                     "--output-dir", str(tmp_path / "out"), "--run-id", "p"]) == 0
        row = json.loads((_out(tmp_path, "p") / "transcript.jsonl").read_text())
        assert sorted(row) == ["backend", "elapsed_s", "error", "model", "prompt",
                               "prompt_sha256", "response", "started_at", "usage"]
        assert (row["model"], row["backend"], row["usage"], row["error"]) == (
            "deepseek-r1", "mock", None, None)

    def test_fs_without_examples_exit_2(self, tmp_path, input_file):
        code = main(["predict", "--strategy", "fs", "--backend", "mock",
                     "--input", input_file,
                     "--output-dir", str(tmp_path / "out"), "--run-id", "t"])
        assert code == 2

    def test_rag_with_seeded_store(self, tmp_path, input_file):
        store = str(tmp_path / "store.jsonl")
        assert main(["store", "ingest", "--file", SEED_FILE, "--store", store]) == 0
        code = main(["predict", "--strategy", "rag", "--backend", "mock",
                     "--input", input_file, "--store", store, "-k", "2",
                     "--output-dir", str(tmp_path / "out"), "--run-id", "rag"])
        assert code == 0
        transcript = (_out(tmp_path, "rag") / "transcript.jsonl").read_text()
        row = json.loads(transcript.splitlines()[0])
        assert "### Example1: ###" in row["prompt"]
        assert '"Mean Particle Size, D50"' in row["prompt"]

    def test_live_without_key_exit_2(self, tmp_path, input_file, monkeypatch, capsys):
        # like a replay with no transcript file, it exits before making the run directory
        monkeypatch.delenv("FORMU_API_KEY", raising=False)
        for backend, expected in _BACKENDS_THAT_CANNOT_CALL:
            backend = [arg.format(tmp=tmp_path) for arg in backend]
            code = main(["predict", "--strategy", "zs", *backend, "--input", input_file,
                         "--output-dir", str(tmp_path / "out"), "--run-id", "t"])
            assert code == 2
            assert capsys.readouterr().err == f"error: {expected.format(tmp=tmp_path)}\n"
            assert not (tmp_path / "out").exists()

    def test_unknown_strategy_exit_2(self, tmp_path, input_file):
        code = main(["predict", "--strategy", "few", "--backend", "mock",
                     "--input", input_file,
                     "--output-dir", str(tmp_path / "out"), "--run-id", "t"])
        assert code == 2


class TestStore:
    def test_ingest_verbatim_seed(self, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        code = main(["store", "ingest", "--file", SEED_FILE, "--store", store])
        assert code == 0
        rows = [json.loads(line) for line in Path(store).read_text().splitlines()]
        assert len(rows) == 3
        assert {row["d50_um"] for row in rows} == {45.0, 200.0, 97.5}
        assert all("solubility_mg_ml" in row for row in rows)

    def test_retrieve_order(self, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        main(["store", "ingest", "--file", SEED_FILE, "--store", store])
        code = main(["store", "retrieve", "--store", store, "--d50", "50", "-k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln and ln[0].isdigit()]
        assert "salish-d50-45" in lines[0]
        assert "salish-d50-97p5" in lines[1]

    def test_list_skips_torn_final_line(self, tmp_path, capsys, caplog):
        store = tmp_path / "store.jsonl"
        assert main(["store", "ingest", "--file", SEED_FILE, "--store", str(store)]) == 0
        assert "3 record(s)" in capsys.readouterr().out
        store.write_text(store.read_text()[:-40])
        assert main(["store", "list", "--store", str(store)]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == "2 record(s)"
        assert f"{store}:3: skipped a truncated final line" in caplog.text

    @pytest.mark.parametrize("start", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
    def test_ingest_keeps_a_last_line_with_no_newline(self, tmp_path, capsys, start):
        # as `printf '%s' "$row" > store.jsonl` writes it, or a spreadsheet with a BOM
        store = tmp_path / "store.jsonl"
        store.write_bytes(start + json.dumps(_RECORD).encode())
        assert main(["store", "ingest", "--file", SEED_FILE, "--store", str(store)]) == 0
        assert main(["store", "list", "--store", str(store)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[0] for line in out[-5:]] == [
            "r1", "salish-d50-45", "salish-d50-200", "salish-d50-97p5", "4"]

    def test_ingest_with_a_nan_feature_exit_2(self, tmp_path, capsys):
        # JSON reads the NaN literal; a NaN d50 that got into the store would
        # make every retrieval score nan.
        rows = [{**_RECORD, "id": f"r{i}", "d50_um": d50}
                for i, d50 in enumerate([float("nan"), 20.0, 30.0, 45.0, 60.0, 97.5, 200.0])]
        records = tmp_path / "records.jsonl"
        records.write_text("".join(json.dumps(row) + "\n" for row in rows))
        store = tmp_path / "store.jsonl"
        code = main(["store", "ingest", "--file", str(records), "--store", str(store)])
        assert code == 2
        assert "d50_um must be a finite number" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize("output", [
        {"columns": ["Time (min)", "Drug Released (%)"], "data": [[0, "x"]]},
        {"columns": "Time (hr)", "data": [[0, 0], [1, 50]]},
        {"columns": ["Time (hr)", "Drug Released (%)"], "data": []},
        {"columns": ["Time (hr)", "Drug Released (%)"]},
        [[0]],
    ])
    def test_ingest_malformed_verbatim_output_exit_2(self, tmp_path, capsys, output):
        # The table reader raises ParseError (exit 4 for a model response);
        # a record file is input, so its errors exit 2.
        records = tmp_path / "records.json"
        records.write_text(json.dumps([{"id": "bad", "Input": REFERENCE_INPUT, "Output": output}]))
        store = tmp_path / "store.jsonl"
        code = main(["store", "ingest", "--file", str(records), "--store", str(store)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: record 'bad': ")
        assert not store.exists()

    def test_ingest_of_an_id_repeated_in_the_file_exit_2_store_absent(self, tmp_path, capsys):
        seed = json.loads(Path(SEED_FILE).read_text())["records"]
        records, store = tmp_path / "dup.json", tmp_path / "s.jsonl"
        records.write_text(json.dumps([seed[0], seed[1], seed[0]]))
        code = main(["store", "ingest", "--file", str(records), "--store", str(store)])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: record id 'salish-d50-45' already earlier in the input\n"
        assert not store.exists()

    def test_ingest_of_an_id_in_the_store_exit_2_store_unchanged(self, tmp_path, capsys):
        seed = json.loads(Path(SEED_FILE).read_text())["records"]
        records, store = tmp_path / "more.json", tmp_path / "s.jsonl"
        records.write_text(json.dumps([{**_RECORD, "id": "new"}, seed[2]]))
        assert main(["store", "ingest", "--file", SEED_FILE, "--store", str(store)]) == 0
        before = store.read_bytes()
        capsys.readouterr()
        code = main(["store", "ingest", "--file", str(records), "--store", str(store)])
        assert code == 2
        assert capsys.readouterr().err == "error: record id 'salish-d50-97p5' already in store\n"
        assert store.read_bytes() == before

    def test_ingest_overwrite_lets_the_later_record_win(self, tmp_path, capsys):
        records, store = tmp_path / "r.json", tmp_path / "s.jsonl"
        records.write_text(json.dumps([_RECORD, {**_RECORD, "id": "r2"},
                                       {**_RECORD, "d50_um": 60.0}]))
        code = main(["store", "ingest", "--file", str(records), "--store", str(store),
                     "--overwrite"])
        assert code == 0
        assert main(["store", "list", "--store", str(store)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert [row.split()[:2] for row in rows[-3:-1]] == [["r1", "60"], ["r2", "50"]]

    def test_ingest_of_an_id_xml_cannot_carry_exit_2_store_unchanged(self, tmp_path, capsys):
        # A lone surrogate (a JSON escape) cannot be written out as UTF-8.
        rec_id, records = "\ud800x", tmp_path / "records.json"
        records.write_text(json.dumps([{**_RECORD, "id": "ok"}, {**_RECORD, "id": rec_id}]))
        store = tmp_path / "store.jsonl"
        assert main(["store", "ingest", "--file", SEED_FILE, "--store", str(store)]) == 0
        before = store.read_bytes()
        capsys.readouterr()
        code = main(["store", "ingest", "--file", str(records), "--store", str(store)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: record id {rec_id!r}: its id and source must be XML 1.0 text\n"
        assert store.read_bytes() == before

    @pytest.mark.parametrize("name, value", [("id", "\ud800x"), ("source", "a\x01b")])
    def test_list_of_a_store_holding_text_xml_cannot_carry_exit_2_before_output(
            self, tmp_path, capsys, name, value):
        store = tmp_path / "store.jsonl"
        store.write_text(json.dumps(_RECORD) + "\n" + json.dumps({**_RECORD, name: value}) + "\n")
        assert main(["store", "list", "--store", str(store)]) == 2
        out, err = capsys.readouterr()
        rec_id = value if name == "id" else _RECORD["id"]
        assert (out, err) == ("", f"error: record id {rec_id!r}: its id and source must be "
                                  f"XML 1.0 text\n")

    def test_list_empty_store(self, tmp_path, capsys):
        code = main(["store", "list", "--store", str(tmp_path / "nothing.jsonl")])
        assert code == 0
        assert "0 record(s)" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["list"], ["ingest", "--file", "r.json"],
                                      ["retrieve", "--d50", "50"]])
    @pytest.mark.parametrize("flag", ["--run-id", "--output-dir"])
    def test_store_commands_take_no_run_directory_flags(self, capsys, argv, flag):
        # they write no run directory, so a flag naming one is an error
        with pytest.raises(SystemExit) as exc:
            main(["store", *argv, flag, "x"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err


def _make_sim_dataset(tmp_path, d50s=(45.0, 97.5, 200.0)):
    from formukit.dissolution import psd_from_lognormal, simulate_dissolution
    from formukit.store import FormulationRecord, RecordStore
    from formukit.types import (
        HYDROCHLOROTHIAZIDE,
        DissolutionConditions,
        FormulationInput,
        ParticleMorphology,
    )

    path = tmp_path / "dataset.jsonl"
    store = RecordStore(path)
    for d50 in d50s:
        profile = simulate_dissolution(
            HYDROCHLOROTHIAZIDE, ParticleMorphology(),
            psd_from_lognormal(d50, 1.5, 50), DissolutionConditions())
        store.ingest(FormulationRecord(
            id=f"sim-{d50:g}", features=FormulationInput(d50_um=d50),
            profile=profile, provenance="simulated", source="sim"))
    return str(path)


class TestBench:
    def test_mock_closure(self, tmp_path):
        dataset = _make_sim_dataset(tmp_path)
        code = main(["bench", "--dataset", dataset, "--backend", "mock",
                     "--output-dir", str(tmp_path / "out"), "--run-id", "b"])
        assert code == 0
        report = json.loads((_out(tmp_path, "b") / "report.json").read_text())
        assert [row["strategy"] for row in report["rows"]] == \
            ["ZS", "ZS_CoT", "FS", "FS_CoT", "RAG"]
        for row in report["rows"]:
            assert row["mse_pct2"] <= 1e-6
            assert row["r_squared"] >= 0.999999
        assert (_out(tmp_path, "b") / "residuals.csv").exists()
        svgs = list(_out(tmp_path, "b").glob("overlay_*.svg"))
        assert len(svgs) == 3

    def test_replay_reproducible(self, tmp_path):
        dataset = _make_sim_dataset(tmp_path, d50s=(45.0, 97.5))
        assert main(["bench", "--dataset", dataset, "--backend", "mock",
                     "--output-dir", str(tmp_path / "out"), "--run-id", "live"]) == 0
        transcripts = str(_out(tmp_path, "live") / "transcripts.jsonl")
        assert main(["bench", "--dataset", dataset, "--backend", "replay",
                     "--replay", transcripts,
                     "--output-dir", str(tmp_path / "out"), "--run-id", "r1"]) == 0
        assert main(["bench", "--dataset", dataset, "--backend", "replay",
                     "--replay", transcripts,
                     "--output-dir", str(tmp_path / "out"), "--run-id", "r2"]) == 0
        r1 = (_out(tmp_path, "r1") / "report.json").read_text()
        r2 = (_out(tmp_path, "r2") / "report.json").read_text()
        assert r1 == r2
        assert (_out(tmp_path, "r1") / "report.csv").read_text() == \
            (_out(tmp_path, "r2") / "report.csv").read_text()

    def test_ids_name_one_well_formed_overlay_each(self, tmp_path, capsys):
        # "/" and " " are quoted out of the file name, "<" and "&" escaped inside the SVG
        ids = ("lot 7/2024", "a<b & c")
        dataset = tmp_path / "ids.json"
        dataset.write_text(json.dumps({"records": [
            {"id": rec_id, "Input": REFERENCE_INPUT, "profile": [[0, 0], [1, 50], [2, 80]]}
            for rec_id in ids]}))
        code = main(["bench", "--dataset", str(dataset), "--backend", "mock",
                     "--output-dir", str(tmp_path / "out"), "--run-id", "b"])
        assert code == 0
        assert "RAG" in capsys.readouterr().out
        svgs = sorted(_out(tmp_path, "b").glob("*.svg"))
        assert [p.name for p in svgs] == ["overlay_a%3Cb%20%26%20c.svg",
                                          "overlay_lot%207%2F2024.svg"]
        titles = [ElementTree.parse(p).getroot().find("{http://www.w3.org/2000/svg}text").text
                  for p in svgs]
        assert titles == [f"record {rec_id}" for rec_id in sorted(ids)]

    @pytest.mark.parametrize("rec_id", ["a\x01b", "/" * 90, "lone \ud800"])
    def test_id_that_names_no_overlay_exit_2_before_any_call(self, tmp_path, capsys, rec_id):
        # XML 1.0 holds no "\x01" or lone surrogate, even escaped, and 90 "/" quote to a
        # 282-byte file name: each is found before the run directory and its transcript.
        dataset = tmp_path / "ids.json"
        dataset.write_text(json.dumps({"records": [
            {"id": i, "Input": REFERENCE_INPUT, "profile": [[0, 0], [1, 50], [2, 80]]}
            for i in ("plain", rec_id)]}))
        code = main(["bench", "--dataset", str(dataset), "--backend", "mock",
                     "--output-dir", str(tmp_path / "out"), "--run-id", "b"])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and f"record id {rec_id!r}" in err
        assert not (tmp_path / "out").exists()
        assert list(tmp_path.rglob("transcripts.jsonl")) == []

    def test_reused_run_id_exit_2_keeps_first_run(self, tmp_path, capsys):
        args = ["bench", "--dataset", SEED_FILE, "--backend", "mock",
                "--output-dir", str(tmp_path / "out"), "--run-id", "same"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "not empty" in err and len(err.strip().splitlines()) == 1
        transcript = _out(tmp_path, "same") / "transcripts.jsonl"
        assert len(transcript.read_text().splitlines()) == 15

    def test_unscorable_reference_exit_2(self, tmp_path, capsys):
        # A reference no prediction can be scored against is bad input, not a failed parse.
        dataset = tmp_path / "one.json"
        dataset.write_text(json.dumps({"records": [
            {"id": "one", "Input": REFERENCE_INPUT, "profile": [[3.5, 20]]}]}))
        code = main(["bench", "--dataset", str(dataset), "--backend", "mock",
                     "--output-dir", str(tmp_path / "out"), "--run-id", "b"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "record 'one'" in err[0]
        assert not (_out(tmp_path, "b") / "transcripts.jsonl").exists()

    def test_live_without_key_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("FORMU_API_KEY", raising=False)
        dataset = _make_sim_dataset(tmp_path, d50s=(45.0, 97.5))
        for backend, expected in _BACKENDS_THAT_CANNOT_CALL:
            backend = [arg.format(tmp=tmp_path) for arg in backend]
            code = main(["bench", "--dataset", dataset, *backend,
                         "--output-dir", str(tmp_path / "out"), "--run-id", "b"])
            assert code == 2
            assert capsys.readouterr().err == f"error: {expected.format(tmp=tmp_path)}\n"
            assert not (tmp_path / "out").exists()


class TestParseFailureExitCodes:
    def test_predict_unparseable_response_exit_4(self, tmp_path, input_file):
        # build a replay transcript whose stored response is not a table
        out = str(tmp_path / "out")
        assert main(["predict", "--strategy", "zs", "--backend", "mock",
                     "--input", input_file, "--output-dir", out, "--run-id", "m"]) == 0
        transcript_path = _out(tmp_path, "m") / "transcript.jsonl"
        row = json.loads(transcript_path.read_text().splitlines()[0])
        row["response"] = "I cannot provide a table."
        garbled = tmp_path / "garbled.jsonl"
        garbled.write_text(json.dumps(row) + "\n")
        code = main(["predict", "--strategy", "zs", "--backend", "replay",
                     "--replay", str(garbled), "--input", input_file,
                     "--output-dir", out, "--run-id", "r"])
        assert code == 4

    def test_bench_all_strategies_unevaluable_exit_4(self, tmp_path):
        dataset = _make_sim_dataset(tmp_path, d50s=(45.0, 97.5))
        out = str(tmp_path / "out")
        assert main(["bench", "--dataset", dataset, "--backend", "mock",
                     "--output-dir", out, "--run-id", "m"]) == 0
        rows = [json.loads(line) for line in
                (_out(tmp_path, "m") / "transcripts.jsonl").read_text().splitlines()]
        for row in rows:
            row["response"] = "nothing numeric here"
        garbled = tmp_path / "garbled.jsonl"
        garbled.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        code = main(["bench", "--dataset", dataset, "--backend", "replay",
                     "--replay", str(garbled), "--output-dir", out, "--run-id", "r"])
        assert code == 4
        report = json.loads((_out(tmp_path, "r") / "report.json").read_text())
        assert all(row["mse_pct2"] is None for row in report["rows"])


class TestMockDeterminism:
    def test_predict_mock_identical_across_runs(self, tmp_path, input_file):
        out = str(tmp_path / "out")
        assert main(["predict", "--strategy", "zs", "--backend", "mock",
                     "--input", input_file, "--output-dir", out, "--run-id", "a"]) == 0
        assert main(["predict", "--strategy", "zs", "--backend", "mock",
                     "--input", input_file, "--output-dir", out, "--run-id", "b"]) == 0
        assert (_out(tmp_path, "a") / "profile.csv").read_text() == \
            (_out(tmp_path, "b") / "profile.csv").read_text()


class TestEval:
    def test_metrics_on_two_files(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("time_hr,released_pct\n0,0\n1,50\n2,100\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("time_hr,released_pct\n0,0\n1,40\n2,100\n")
        code = main(["eval", "--reference", str(ref), "--predicted", str(pred),
                     "--output-dir", str(tmp_path / "out"), "--run-id", "e"])
        assert code == 0
        metrics = json.loads((_out(tmp_path, "e") / "eval.json").read_text())
        assert metrics["mse_pct2"] == pytest.approx(100 / 3)
        assert metrics["r_squared"] == pytest.approx(0.98)

    def test_taken_default_run_id_gets_a_suffix(self, tmp_path, monkeypatch):
        import formukit.cli as cli

        monkeypatch.setattr(cli.time, "strftime", lambda fmt, t: "run-fixed")
        ref = tmp_path / "ref.csv"
        ref.write_text("time_hr,released_pct\n0,0\n1,50\n2,100\n")
        for _ in range(2):
            assert main(["eval", "--reference", str(ref), "--predicted", str(ref),
                         "--output-dir", str(tmp_path / "out")]) == 0
        runs = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert runs == ["run-fixed", "run-fixed-1"]

    def test_json_profile_input(self, tmp_path):
        ref = tmp_path / "ref.csv"
        ref.write_text("time_hr,released_pct\n0,0\n1,50\n2,100\n")
        pred = tmp_path / "pred.json"
        pred.write_text('{"columns": ["Time (hr)", "Drug Released (%)"], '
                        '"data": [[0, 0], [1, 50], [2, 100]]}')
        code = main(["eval", "--reference", str(ref), "--predicted", str(pred),
                     "--output-dir", str(tmp_path / "out"), "--run-id", "e"])
        assert code == 0
        metrics = json.loads((_out(tmp_path, "e") / "eval.json").read_text())
        assert metrics["mse_pct2"] == 0.0


    def test_deeply_nested_prediction_exit_4(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("time_hr,released_pct\n0,0\n1,50\n2,100\n")
        pred = tmp_path / "nested.txt"
        pred.write_text("{" * 1000 + "}" * 1000)
        code = main(["eval", "--reference", str(ref), "--predicted", str(pred),
                     "--output-dir", str(tmp_path / "out"), "--run-id", "e"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("parse error:")
        assert len(err.strip().splitlines()) == 1


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, input_file):
        config = tmp_path / "app.json"
        config.write_text(json.dumps({
            "conditions": {"dose_mg": 25.0, "paddle_rpm": 75.0},
            "output_dir": str(tmp_path / "configured_out"),
            "seed": 3,
        }))
        code = main(["simulate", "--input", input_file, "--config", str(config),
                     "--run-id", "t"])
        assert code == 0
        assert (tmp_path / "configured_out" / "t" / "profile.csv").exists()

    def test_config_sink_override_stands_without_the_flag(self, tmp_path):
        # An absent --sink leaves the config's value; a given flag overrides it.
        config = tmp_path / "app.json"
        config.write_text(json.dumps({"conditions": {"sink_override": True}}))
        common = ["simulate", "--d50", "120", "--dose", "600", "--output-dir", str(tmp_path)]
        assert main(common + ["--config", str(config), "--run-id", "config"]) == 0
        assert main(common + ["--sink", "--run-id", "flag"]) == 0
        assert main(common + ["--run-id", "coupled"]) == 0
        profile = {run: (tmp_path / run / "profile.csv").read_text()
                   for run in ("config", "flag", "coupled")}
        assert profile["config"] == profile["flag"] != profile["coupled"]

    def test_readme_config_loads(self, tmp_path, monkeypatch, capsys):
        # The README's example config is read as written, and the misspelt key
        # it warns of is named in the error.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("--config app.json", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "app.json").write_text(block)
        config = AppConfig.load("app.json")
        assert (config.llm.model, config.conditions.dose_mg) == ("deepseek-r1", 10.0)
        assert main(["simulate", "--d50", "50", "--config", "app.json", "--run-id", "t"]) == 0
        assert (tmp_path / config.output_dir / "t" / "profile.csv").exists()
        (tmp_path / "app.json").write_text(block.replace('"dose_mg"', '"dose"'))
        capsys.readouterr()
        assert main(["simulate", "--d50", "50", "--config", "app.json", "--run-id", "u"]) == 2
        assert "'dose'" in capsys.readouterr().err

    def test_help_mentions_units(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        for unit in ("um", "mg/mL", "m^2/s", "g/mL", "m^2/g", "hr"):
            assert unit in help_text


@pytest.mark.parametrize("given, expected", [([], 5), (["--seed", "3"], 3)])
def test_seed_reaches_the_design_and_the_client(tmp_path, monkeypatch, given, expected):
    import formukit.inverse
    import formukit.llm

    seeds = []
    design_psd, client_init = formukit.inverse.design_psd, formukit.llm.LLMClient.__init__

    def spy_design(spec, *, seed, **kwargs):
        seeds.append(("design", seed))
        return design_psd(spec, seed=seed, **kwargs)

    def spy_client(self, *args, seed, **kwargs):
        seeds.append(("client", seed))
        client_init(self, *args, seed=seed, **kwargs)

    monkeypatch.setattr(formukit.inverse, "design_psd", spy_design)
    monkeypatch.setattr(formukit.llm.LLMClient, "__init__", spy_client)
    (tmp_path / "c.json").write_text('{"seed": 5}')
    (tmp_path / "t.csv").write_text("time_hr,released_pct\n0,0\n1,50\n2,80\n")
    for i, argv in enumerate((["design", "--target", str(tmp_path / "t.csv"), "--n-starts", "1",
                               "--n-bins", "4"],
                              ["predict", "--strategy", "zs", "--d50", "50"],
                              ["bench", "--dataset", SEED_FILE])):
        assert main([*argv, *given, "--config", str(tmp_path / "c.json"),
                     "--output-dir", str(tmp_path / "out"), "--run-id", str(i)]) == 0
    assert seeds == [("design", expected), ("client", expected), ("client", expected)]


@pytest.mark.parametrize("argv", [["simulate", "--d50", "50"],
                                  ["eval", "--reference", "r.csv", "--predicted", "p.csv"],
                                  ["store", "list"], ["store", "ingest", "--file", "r.json"],
                                  ["store", "retrieve", "--d50", "50"]])
def test_seed_only_on_the_commands_that_draw(argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "3"])
    assert exc.value.code == 2


_RECORD = {"id": "r1", "d50_um": 50.0, "aspect_ratio": 1.0, "roundness": 1.0,
           "solubility_mg_ml": 0.45, "diffusivity_m2_s": 7.5e-10, "true_density_g_ml": 1.512,
           "ssa_m2_g": 1.0, "vol_eq_um": 1.0, "profile": [[0, 0], [1, 50]]}
_REPEATED_TIME_CSV = "time_hr,released_pct\n0,0\n1,50\n1,60\n2,80\n"
_REPEATED_TIME_JSON = json.dumps({"columns": ["Time (hr)", "Drug Released (%)"],
                                  "data": [[0, 0], [1, 50], [1, 60], [2, 80]]})


@pytest.mark.parametrize("argv, name, text", [
    pytest.param(["simulate", "--input"], "f.json", "[1, 2]", id="simulate-list"),
    pytest.param(["simulate", "--input"], "f.json", '{"Input": [1, 2]}', id="simulate-input-list"),
    pytest.param(["store", "ingest", "--store", "s.jsonl", "--file"], "f.json", "[[1, 2]]",
                 id="ingest-list-of-lists"),
    pytest.param(["store", "ingest", "--store", "s.jsonl", "--file"], "f.json", "[1, 2]",
                 id="ingest-list-of-numbers"),
    pytest.param(["store", "list", "--store"], "s.jsonl", "5\n", id="list-number-line"),
    pytest.param(["store", "ingest", "--store", "s.jsonl", "--file"], "r.jsonl",
                 json.dumps({**_RECORD, "profile": [[0, 0], [1, 50], [1, 60]]}) + "\n",
                 id="ingest-repeated-time"),
    pytest.param(["store", "ingest", "--store", "s.jsonl", "--file"], "r.json",
                 json.dumps([{"id": "dup", "Input": REFERENCE_INPUT, "Output": {
                     "columns": ["Time (hr)", "Drug Released (%)"],
                     "data": [[0, 0], [1, 50], [1, 60]]}}]), id="ingest-verbatim-repeated-time"),
    pytest.param(["bench", "--backend", "mock", "--dataset"], "d.jsonl",
                 json.dumps({**_RECORD, "profile": [[0, 0], [1, 50], [1, 60]]}) + "\n",
                 id="bench-dataset-repeated-time"),
    pytest.param(["design", "--n-starts", "1", "--target"], "t.csv", _REPEATED_TIME_CSV,
                 id="design-target-repeated-time"),
    pytest.param(["eval", "--predicted", "ok.csv", "--reference"], "t.csv", _REPEATED_TIME_CSV,
                 id="eval-reference-repeated-time"),
    pytest.param(["eval", "--reference", "ok.csv", "--predicted"], "t.csv", _REPEATED_TIME_CSV,
                 id="eval-predicted-repeated-time"),
    pytest.param(["design", "--n-starts", "1", "--target"], "t.json", _REPEATED_TIME_JSON,
                 id="design-target-json-repeated-time"),
    pytest.param(["eval", "--predicted", "ok.csv", "--reference"], "t.json", _REPEATED_TIME_JSON,
                 id="eval-reference-json-repeated-time"),
    pytest.param(["store", "ingest", "--store", "s.jsonl", "--file"], "r.jsonl",
                 json.dumps({**_RECORD, "sorce": "lab"}) + "\n", id="ingest-unknown-record-key"),
    pytest.param(["store", "ingest", "--store", "s.jsonl", "--file"], "r.json",
                 json.dumps([{"Input": REFERENCE_INPUT, "Output": [[0, 0]], "sorce": "lab"}]),
                 id="ingest-verbatim-unknown-record-key"),
    pytest.param(["store", "ingest", "--store", "s.jsonl", "--file"], "r.jsonl",
                 json.dumps({**_RECORD, "ssa_m2_g ": 2.0}) + "\n", id="ingest-feature-twice"),
    pytest.param(["store", "list", "--store"], "s.jsonl",
                 json.dumps({**_RECORD, "profile": 5}) + "\n", id="list-number-profile"),
    pytest.param(["store", "list", "--store"], "s.jsonl",
                 json.dumps({**_RECORD, "profile": [[0], [1]]}) + "\n", id="list-short-points"),
    pytest.param(["store", "list", "--store"], "s.jsonl",
                 json.dumps({**_RECORD, "d50_um": [1]}) + "\n", id="list-list-feature"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json", "[1]", id="config-list"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json", '{"conditions": 5}',
                 id="config-number-conditions"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"llm": {"max_inflight": "x"}}', id="config-string-max-inflight"),
    pytest.param(["store", "list", "--config"], "c.json", '{"store_path": 5}',
                 id="config-number-store-path"),
    pytest.param(["store", "list", "--store"], "s.jsonl",
                 json.dumps({**_RECORD, "d50_um": float("nan")}) + "\n", id="list-nan-feature"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"conditions": {"sink_override": [1]}}', id="config-list-sink-override"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"conditions": {"sink_override": "no"}}', id="config-string-sink-override"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"conditions": {"sink_override": 1}}', id="config-number-sink-override"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"conditions": {"dose_mg": true}}', id="config-bool-dose"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"conditions": {"paddle_rpm": "50"}}', id="config-string-rpm"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"conditions": {"dose_mg": NaN}}', id="config-nan-dose"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"llm": {"max_inflight": 2.5}}', id="config-float-max-inflight"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"llm": {"max_inflight": true, "max_retries": 1.5}}',
                 id="config-bool-max-inflight"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"llm": {"model": 5}}', id="config-number-model"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"llm": {"max_tokens": -5}}', id="config-negative-max-tokens"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"llm": {"timeout_s": -1}}', id="config-negative-timeout"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"llm": {"timeout_s": NaN}}', id="config-nan-timeout"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"llm": {"timeout_s": 1e10}}', id="config-timeout-past-socket-max"),
    pytest.param(["design", "--target", "ok.csv", "--config"], "c.json",
                 '{"seed": -1}', id="config-negative-seed-design"),
    pytest.param(["design", "--target", "ok.csv", "--seed", "-1", "--config"], "c.json",
                 '{}', id="negative-seed-flag-design"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"seed": 1.7}', id="config-float-seed"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"seed": true}', id="config-bool-seed"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"conditions": {"dose": 600}}', id="config-unknown-conditions-key"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"llm": {"modle": "x"}}', id="config-unknown-llm-key"),
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json",
                 '{"seeds": 1}', id="config-unknown-key"),
    # the llm section is read whenever a config is given, even by commands that build no client
    *(pytest.param([*argv, "--config"], "c.json", '{"llm": {"bogus": 1}}',
                   id=f"config-unknown-llm-key-{argv[-1]}")
      for argv in (["store", "list"], ["store", "ingest", "--file", "ok.csv"],
                   ["store", "retrieve", "--d50", "50"],
                   ["eval", "--reference", "ok.csv", "--predicted", "ok.csv"],
                   ["simulate", "--d50", "50"], ["design", "--target", "ok.csv"],
                   ["predict", "--strategy", "zs", "--d50", "50"],
                   ["bench", "--dataset", "ok.csv"])),
])
def test_json_of_the_wrong_shape_exit_2(tmp_path, monkeypatch, capsys, argv, name, text):
    monkeypatch.chdir(tmp_path)               # the ingest and eval cases name relative files
    (tmp_path / "ok.csv").write_text("time_hr,released_pct\n0,0\n1,50\n2,80\n")
    path = tmp_path / name
    path.write_text(text)
    code = main([*argv, str(path), *_run_dir_flags(argv, tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    unknown = [key for key in ("bogus", "dose", "modle", "seeds", "sorce") if f'"{key}"' in text]
    assert all(f"'{key}'" in err for key in unknown), err
    assert "seed" in err or not ("seed" in text or "--seed" in argv), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, name, text", [
    *(pytest.param(argv, "absent.jsonl", None, id=f"missing-{argv[-1]}")
      for argv in (["store", "ingest", "--store", "s.jsonl", "--file"],
                   ["bench", "--backend", "mock", "--dataset"],
                   ["predict", "--strategy", "fs", "--d50", "50", "--examples"])),
    *(pytest.param(argv, "bad.json", '{"id": ', id=f"undecodable-{argv[-1]}")
      for argv in (["simulate", "--d50", "50", "--config"], ["simulate", "--input"],
                   ["store", "ingest", "--store", "s.jsonl", "--file"],
                   ["bench", "--backend", "mock", "--dataset"],
                   ["predict", "--strategy", "fs", "--d50", "50", "--examples"])),
])
def test_unreadable_file_exit_2_naming_it(tmp_path, monkeypatch, capsys, argv, name, text):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    code = main([*argv, str(path), *_run_dir_flags(argv, "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err, err


_PREDICT = ["predict", "--strategy", "zs", "--d50", "50"]
_BENCH = ["bench", "--dataset", SEED_FILE]


@pytest.mark.parametrize("argv, flag", [
    pytest.param([*_PREDICT, "--backend", "mock"], "--replay", id="predict-replay-mock"),
    pytest.param([*_PREDICT, "--backend", "live"], "--replay", id="predict-replay-live"),
    pytest.param(_BENCH, "--replay", id="bench-replay-mock"),
    *(pytest.param(["predict", "--strategy", s, "--d50", "50"], "--examples",
                   id=f"examples-{s}") for s in ("zs", "zs-cot", "rag")),
    *(pytest.param(["predict", "--strategy", s, "--d50", "50"], "--store",
                   id=f"store-{s}") for s in ("zs", "zs-cot", "fs", "fs-cot")),
])
def test_a_flag_the_run_never_reads_exit_2(tmp_path, monkeypatch, capsys, argv, flag):
    # named before any file is read: the flag's file need not exist
    monkeypatch.delenv("FORMU_API_KEY", raising=False)
    code = main([*argv, flag, str(tmp_path / "missing.jsonl"),
                 "--output-dir", str(tmp_path / "out"), "--run-id", "t"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} is read only with ")
    assert not (tmp_path / "out").exists()


def test_predict_names_the_first_unread_flag(tmp_path, capsys):
    code = main([*_PREDICT, "--backend", "mock", "--examples", "missing.json",
                 "--store", "missing.jsonl", "--replay", "missing.jsonl",
                 "--output-dir", str(tmp_path / "out"), "--run-id", "t"])
    assert code == 2
    assert capsys.readouterr().err == "error: --replay is read only with --backend replay\n"


def test_csv_rows_with_a_blank_first_cell_are_skipped(tmp_path, capsys):
    ref = tmp_path / "ref.csv"
    ref.write_text("time_hr,released_pct\n0,0\n,99\n1,40\n  ,x\n2,70\n")
    pred = tmp_path / "pred.csv"
    pred.write_text("time_hr,released_pct\n0,0\n1,35\n2,75\n")
    assert main(["eval", "--reference", str(ref), "--predicted", str(pred),
                 "--output-dir", str(tmp_path / "out"), "--run-id", "t"]) == 0
    assert json.loads((_out(tmp_path) / "eval.json").read_text())["n"] == 3


_PROFILE_CSV = "time_hr,released_pct\n0,0\n0.5,40\n1,60\n2,80\n"


@pytest.mark.parametrize("argv, name, text", [
    (["eval", "--predicted", "ok.csv", "--reference"], "r.csv", _PROFILE_CSV),
    (["design", "--n-starts", "1", "--n-bins", "4", "--target"], "t.csv", _PROFILE_CSV),
    (["simulate", "--d50", "50", "--config"], "c.json",
     json.dumps({"conditions": {"dose_mg": 25.0}})),
], ids=["eval-reference-csv", "design-target-csv", "config"])
def test_a_byte_order_mark_is_not_read_as_text(tmp_path, monkeypatch, argv, name, text):
    # spreadsheet programs save "CSV UTF-8" with a BOM
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.csv").write_text(_PROFILE_CSV)
    for run, start in (("plain", b""), ("bom", codecs.BOM_UTF8)):
        (tmp_path / run).mkdir()
        (tmp_path / run / name).write_bytes(start + text.encode())
        assert main([*argv, str(Path(run, name)), "--output-dir", "out", "--run-id", run]) == 0
    outputs = [{p.name: p.read_bytes() for p in (tmp_path / "out" / run).iterdir()}
               for run in ("plain", "bom")]
    assert outputs[0] == outputs[1]


def _fresh_env():
    src = str(Path(formukit.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_runs_at_the_end_of_the_float_range_finish(tmp_path):
    # A dose or dose/V so large that C_sat is lost next to it once hung the
    # saturation root (simulate, design and the mock predict all reach it), and
    # so did one whose root slope overflows; a clock too slow to hold in a float
    # ended in a traceback. The unresolvable runs exit 2, the last one has a
    # root. One fresh interpreter runs them all under a timeout, so a hang fails.
    (tmp_path / "target.csv").write_text("time_hr,released_pct\n0,0\n1,50\n2,80\n")
    cases = [(["simulate", "--d50", "100", "--dose", "1e308"], 2),
             (["simulate", "--d50", "100", "--medium-volume", "1e-300"], 2),
             (["simulate", "--d50", "100", "--solubility", "1e-300"], 2),
             (["simulate", "--d50", "100", "--diffusivity", "1e-300", "--solubility", "1e-10"], 2),
             (["design", "--target", "target.csv", "--dose", "1e308", "--n-starts", "1"], 2),
             (["predict", "--strategy", "zs", "--backend", "mock", "--d50", "100",
               "--solubility", "1e-300"], 2),
             (["simulate", "--d50", "0.01", "--solubility", "1e285", "--dose", "1e300"], 0)]
    code = ("import contextlib, io, json, sys; from formukit.cli import main\n"
            "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stderr(err):\n"
            "        code = main([*argv, '--output-dir', 'out', '--run-id', str(i)])\n"
            "    print(json.dumps([code, err.getvalue()]))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps([argv for argv, _ in cases])],
                         cwd=tmp_path, env=_fresh_env(), capture_output=True, text=True,
                         timeout=60)
    results = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("[")]
    assert len(results) == len(cases), out.stderr
    for (argv, expected), (exit_code, err) in zip(cases, results):
        assert exit_code == expected, (argv, err)
        assert err.startswith("error: ") if expected else err == "", (argv, err)


def test_a_path_that_is_not_a_regular_file_exit_2(tmp_path):
    # /dev/zero once grew one line until memory ran out, and a FIFO blocked the
    # read. One fresh interpreter runs every case under an address-space cap and
    # a timeout, so a read that grows fails with MemoryError and a hang times out.
    resource = pytest.importorskip("resource")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    (tmp_path / "dir").mkdir()
    (tmp_path / "ok.csv").write_text("time_hr,released_pct\n0,0\n1,50\n2,80\n")
    flags = {"--config": ["store", "list"], "--input": ["simulate"],
             "--target": ["design"], "--reference": ["eval", "--predicted", "ok.csv"],
             "--predicted": ["eval", "--reference", "ok.csv"],
             "--examples": ["predict", "--strategy", "fs", "--d50", "50"],
             "--dataset": ["bench"], "--file": ["store", "ingest", "--store", "s.jsonl"],
             "--replay": ["predict", "--strategy", "zs", "--d50", "50", "--backend", "replay"],
             "--store": ["store", "list"]}
    paths = ["/dev/zero", str(fifo), str(tmp_path / "dir")]
    cases = [([*argv, flag, path], path) for flag, argv in flags.items() for path in paths]
    code = ("import contextlib, io, json, sys; from formukit.cli import main\n"
            "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stderr(err):\n"
            "        run_dir = [] if argv[0] == 'store' else ['--output-dir', 'out', '--run-id', str(i)]\n"
            "        code = main([*argv, *run_dir])\n"
            "    print(json.dumps([code, err.getvalue()]), flush=True)")
    limit = 400 * 2**20
    out = subprocess.run([sys.executable, "-c", code, json.dumps([argv for argv, _ in cases])],
                         cwd=tmp_path, env={**_fresh_env(), "OPENBLAS_NUM_THREADS": "1"},
                         capture_output=True, text=True, timeout=60,
                         preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    results = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("[")]
    assert len(results) == len(cases), out.stderr
    for (argv, path), (exit_code, err) in zip(cases, results):
        assert exit_code == 2 and err == f"error: {path}: not a regular file\n", (argv, err)


def test_import_loads_no_scipy(tmp_path):
    # No command loads scipy, which only the tests use. Importing the CLI
    # loads none of it, and neither do simulating, designing, retrieving,
    # predicting, benchmarking with the mock backend or scoring, each in a
    # fresh interpreter.
    env = _fresh_env()
    code = ("import sys, formukit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"

    store = tmp_path / "store.jsonl"             # 6 records: adapt_weights ranks them
    store.write_text("".join(
        json.dumps({**_RECORD, "id": f"r{i}", "d50_um": 20.0 * (i + 1), "ssa_m2_g": 3.0 - 0.4 * i,
                    "profile": [[0, 0], [1, 90 - 12 * i], [2, 95 - 10 * i]]}) + "\n"
        for i in range(6)))
    (tmp_path / "input.json").write_text(json.dumps({"Input": REFERENCE_INPUT}))
    for name, values in (("ref.csv", (0, 40, 70)), ("pred.csv", (0, 35, 75)),
                         ("target.csv", (0, 50, 80))):
        (tmp_path / name).write_text("time_hr,released_pct\n" + "".join(
            f"{t},{v}\n" for t, v in zip((0, 1, 2), values)))
    code = ("import json, sys; from formukit.cli import main; code = main(sys.argv[1:]); "
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('scipy'))]))")
    for argv in (["simulate", "--d50", "50", "--sink"],
                 ["simulate", "--d50", "50", "--dose", "600"],
                 ["simulate", "--d50", "50", "--n-bins", "200"],
                 ["design", "--target", "target.csv", "--n-bins", "12"],
                 ["store", "retrieve", "--store", str(store), "--d50", "50"],
                 ["predict", "--strategy", "rag", "--backend", "mock", "--input", "input.json",
                  "--store", str(store)],
                 ["bench", "--dataset", SEED_FILE, "--backend", "mock"],
                 ["eval", "--reference", "ref.csv", "--predicted", "pred.csv"]):
        run_dir = [] if argv[0] == "store" else ["--output-dir", "out"]
        out = subprocess.run([sys.executable, "-c", code, *argv, *run_dir],
                             cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert json.loads(out.stdout.splitlines()[-1]) == [0, []], (argv, out.stderr)


def test_commands_that_compute_no_array_load_no_numpy(tmp_path):
    # Ingesting, listing, an eval whose predicted file holds no table (exit 4) and a
    # replayed zero-shot predict compute nothing with arrays, so none loads numpy,
    # which is half the start-up of a fresh process; nor does importing the modules.
    from formukit.llm import prompt_sha256
    from formukit.prompts import PromptStrategy, build_prompt
    from formukit.types import FormulationInput

    code = ("import sys, formukit.types, formukit.store, formukit.prompts, formukit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"

    (tmp_path / "ref.csv").write_text("time_hr,released_pct\n0,0\n1,40\n2,70\n")
    (tmp_path / "prose.txt").write_text("The release reaches 85% within the hour.\n")
    digest = prompt_sha256(build_prompt(PromptStrategy.ZS, FormulationInput(d50_um=50.0)))
    (tmp_path / "replay.jsonl").write_text(json.dumps({"prompt_sha256": digest, "response": (
        '{"columns": ["Time (hr)", "Drug Released (%)"], "data": [[0, 0], [1, 90]]}')}) + "\n")
    code = ("import json, sys; from formukit.cli import main; code = main(sys.argv[1:]); "
            "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')]))")
    for argv, expected in ((["store", "ingest", "--file", SEED_FILE, "--store", "s.jsonl"], 0),
                           (["store", "list", "--store", "s.jsonl"], 0),
                           (["eval", "--reference", "ref.csv", "--predicted", "prose.txt",
                             "--output-dir", "out"], 4),
                           (["predict", "--strategy", "zs", "--d50", "50", "--backend", "replay",
                             "--replay", "replay.jsonl", "--output-dir", "replayed"], 0)):
        out = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path,
                             env=_fresh_env(), capture_output=True, text=True, timeout=60)
        assert json.loads(out.stdout.splitlines()[-1]) == [expected, []], (argv, out.stderr)
        assert out.stderr.startswith("parse error: ") and len(out.stderr.splitlines()) == 1 \
            if expected else out.stderr == "", (argv, out.stderr)
    assert not (tmp_path / "out").exists() and (tmp_path / "replayed").is_dir()


def test_commands_that_compute_load_no_numpy_ma(tmp_path):
    # numpy's median and plain unique import numpy.ma, which costs a fresh process
    # 10-13 ms. Retrieving, predicting with RAG, benchmarking on the mock, designing
    # and a saturating simulate use neither, each in a fresh interpreter.
    store = tmp_path / "store.jsonl"             # 6 records: adapt_weights ranks them
    store.write_text("".join(
        json.dumps({**_RECORD, "id": f"r{i}", "d50_um": 20.0 * (i + 1), "ssa_m2_g": 3.0 - 0.4 * i,
                    "profile": [[0, 0], [1, 90 - 12 * i], [2, 95 - 10 * i]]}) + "\n"
        for i in range(6)))
    (tmp_path / "input.json").write_text(json.dumps({"Input": REFERENCE_INPUT}))
    (tmp_path / "target.csv").write_text("time_hr,released_pct\n0,0\n1,50\n2,80\n")
    code = ("import json, sys; from formukit.cli import main; code = main(sys.argv[1:]); "
            "print(json.dumps([code, 'numpy' in sys.modules, 'numpy.ma' in sys.modules]))")
    for argv in (["store", "retrieve", "--store", str(store), "--d50", "50"],
                 ["predict", "--strategy", "rag", "--backend", "mock", "--input", "input.json",
                  "--store", str(store), "--output-dir", "out"],
                 ["bench", "--dataset", SEED_FILE, "--backend", "mock", "--output-dir", "out"],
                 ["design", "--target", "target.csv", "--n-bins", "12", "--output-dir", "out"],
                 ["simulate", "--d50", "50", "--dose", "600", "--output-dir", "out"]):
        out = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path,
                             env=_fresh_env(), capture_output=True, text=True, timeout=60)
        assert json.loads(out.stdout.splitlines()[-1]) == [0, True, False], (argv, out.stderr)


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    # Each case runs in a fresh interpreter and lists the formukit modules
    # loaded once main returns: the solver, the design loop, the LLM client
    # and the evaluator load only for the commands that call them.
    for name, values in (("ref.csv", (0, 40, 70)), ("pred.csv", (0, 35, 75)),
                         ("t.csv", (0, 50, 80))):
        (tmp_path / name).write_text("time_hr,released_pct\n" + "".join(
            f"{t},{v}\n" for t, v in zip((0, 1, 2), values)))
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "prose.txt").write_text("no table here\n")
    (tmp_path / "c.json").write_text(json.dumps({"llm": {"model": "m", "temperature": 0.5}}))
    base = {"errors", "types", "prompts"}
    solver = base | {"store", "dissolution"}
    cases = [(["store", "list", "--store", "s.jsonl"], base | {"store"}),
             (["eval", "--reference", "ref.csv", "--predicted", "pred.csv"], base | {"evaluate"}),
             (["eval", "--reference", "ref.csv", "--predicted", "prose.txt"], base),
             (["store", "list", "--store", "s.jsonl", "--config", "empty.json"],
              base | {"store"}),
             (["simulate", "--d50", "50"], solver),
             (["simulate", "--d50", "50", "--config", "c.json"], solver),
             (["simulate", "--d50", "50", "--svg"], solver | {"svgplot"}),
             (["design", "--target", "t.csv", "--n-starts", "1", "--n-bins", "4"],
              solver | {"inverse"}),
             (["predict", "--strategy", "zs", "--backend", "mock", "--d50", "50"],
              solver | {"llm"})]
    code = ("import json, sys; from formukit.cli import main; code = main(sys.argv[1:]); "
            "print(json.dumps([code, sorted(m.split('.', 1)[1] for m in sys.modules "
            "if m.startswith('formukit.') and m != 'formukit.cli')]))")
    for argv, modules in cases:
        run_dir = [] if argv[0] == "store" else ["--output-dir", "out"]
        out = subprocess.run([sys.executable, "-c", code, *argv, *run_dir],
                             cwd=tmp_path, env=_fresh_env(), capture_output=True, text=True,
                             timeout=60)
        exit_code = 4 if "prose.txt" in argv else 0         # a file with no table
        assert json.loads(out.stdout.splitlines()[-1]) == [exit_code, sorted(modules)], \
            (argv, out.stderr)


@pytest.mark.parametrize("error, code, kind", [
    (ValidationError, 2, "error"), (ParseError, 4, "parse error"),
    (DuplicateTimeError, 4, "parse error"), (TransportError, 3, "transport error")])
def test_each_error_class_has_its_exit_code(monkeypatch, capsys, error, code, kind):
    def failing(config, args):
        raise error("the message")

    monkeypatch.setattr(cli, "cmd_store_list", failing)
    assert main(["store", "list"]) == code
    assert capsys.readouterr().err == f"{kind}: the message\n"


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv, name, text", [
    pytest.param(["simulate", "--d50", "50", "--config"], "c.json", _DEEP, id="deep-config"),
    pytest.param(["simulate", "--input"], "i.json", _DEEP, id="deep-input"),
    pytest.param(["store", "ingest", "--store", "s.jsonl", "--file"], "r.json", _DEEP,
                 id="deep-file"),
    pytest.param(["store", "list", "--store"], "s.jsonl", _DEEP + "\n", id="deep-store"),
    pytest.param(["store", "list", "--store"], "s.jsonl",
                 json.dumps(_RECORD) + "\n" + _DEEP + "\n", id="deep-second-store-line"),
    pytest.param(["store", "list", "--store"], "s.jsonl", "9" * 5000 + "\n",
                 id="store-line-int-past-the-digit-limit"),
    *(pytest.param(argv, name, b"\xff\xfe{}\n", id=f"not-utf8-{name}")
      for argv, name in ((["simulate", "--d50", "50", "--config"], "c.json"),
                         (["store", "list", "--store"], "s.jsonl"),
                         (["store", "ingest", "--store", "s.jsonl", "--file"], "r.jsonl"),
                         (["design", "--n-starts", "1", "--target"], "t.csv"),
                         (["design", "--n-starts", "1", "--target"], "t.json"),
                         (["eval", "--reference", "ok.csv", "--predicted"], "p.txt"))),
    *(pytest.param(argv, "t.csv", text, id=f"{argv[0]}-csv-{case}")
      for argv in (["design", "--n-starts", "1", "--n-bins", "4", "--target"],
                   ["eval", "--predicted", "ok.csv", "--reference"])
      for case, text in (("non-numeric-cell", "time_hr,released_pct\n0,0\n1,abc\n2,80\n"),
                         ("one-cell-row", "time_hr,released_pct\n0,0\n1\n2,80\n"),
                         ("blank-line", "time_hr,released_pct\n0,0\n\n2,80\n"),
                         ("no-rows", "time_hr,released_pct\n"))),
])
def test_hostile_file_exit_2_naming_it(tmp_path, monkeypatch, capsys, argv, name, text):
    # JSON nested past the recursion limit, bytes that are not UTF-8, and CSV
    # profiles whose rows do not make a table
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.csv").write_text("time_hr,released_pct\n0,0\n1,50\n2,80\n")
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = main([*argv, str(path), *_run_dir_flags(argv, "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1, err[:300]
    if name == "s.jsonl" and not isinstance(text, bytes):
        assert err == f"error: {path}:{text.count(chr(10))}: invalid JSON line\n"


def _live_config(tmp_path, base_url, **llm_fields):
    path = tmp_path / "live.json"
    path.write_text(json.dumps({"llm": {"base_url": base_url, **llm_fields}}))
    return str(path)


@pytest.mark.parametrize("body", [
    json.dumps({"choices": [{"message": {"content": None}}]}),
    json.dumps({"choices": [{"message": {"content": 5}}]}),
    "[" * 100_000,
    '{"choices": [{"message": {"content": "x"}}], "usage": ' + "9" * 5000 + "}",
], ids=["null-content", "number-content", "deep-body", "int-past-the-digit-limit"])
@pytest.mark.parametrize("argv", [_PREDICT, _BENCH], ids=["predict", "bench"])
def test_live_body_without_a_string_answer_exit_3(tmp_path, monkeypatch, capsys, endpoint,
                                                 argv, body):
    monkeypatch.setenv("FORMU_API_KEY", "offline")
    endpoint.replies.extend([(200, body)] * 15)        # one for each call bench may make
    code = main([*argv, "--backend", "live", "--config", _live_config(tmp_path, endpoint.url),
                 "--output-dir", str(tmp_path), "--run-id", "t"])
    assert code == 3
    err = capsys.readouterr().err
    assert err == f"transport error: unexpected response body: {body[:200]}\n"


def test_live_bench_on_a_loopback_endpoint_matches_mock(tmp_path, monkeypatch, endpoint):
    # acceptance criterion 9's sequence, against an endpoint that answers as the mock does
    monkeypatch.setenv("FORMU_API_KEY", "sk-loopback")
    store, out = str(tmp_path / "store.jsonl"), str(tmp_path / "out")
    assert main(["store", "ingest", "--file", SEED_FILE, "--store", store]) == 0
    config = _live_config(tmp_path, endpoint.url, model="m-1", max_tokens=512)
    for backend in ("live", "mock"):
        assert main(["bench", "--dataset", store, "--backend", backend, "--config", config,
                     "--output-dir", out, "--run-id", backend]) == 0
    live, mock = (_out(tmp_path, backend) / "report.json" for backend in ("live", "mock"))
    assert live.read_bytes() == mock.read_bytes()
    prompts = sorted(json.loads(line)["prompt"] for line in
                     (_out(tmp_path, "mock") / "transcripts.jsonl").read_text().splitlines())
    assert len(endpoint.requests) == len(prompts) == 15
    for path, headers, payload in endpoint.requests:
        assert path == "/v1/chat/completions"
        assert headers["Authorization"] == "Bearer sk-loopback"
        assert headers["Content-Type"] == "application/json"
        assert headers["User-Agent"] == f"formukit/{formukit.__version__}"
        assert payload.keys() == {"model", "messages", "temperature", "max_tokens"}
        assert (payload["model"], payload["temperature"], payload["max_tokens"]) == ("m-1", 0.0, 512)
    assert sorted(payload["messages"][0]["content"]
                  for _, _, payload in endpoint.requests) == prompts
    assert all(payload["messages"][0]["role"] == "user" for _, _, payload in endpoint.requests)


def _closed_port_url():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}/v1/chat/completions"


@pytest.mark.parametrize("reply, expected", [
    ((429, "slow down"), "retries exhausted after 0 retries: HTTP 429: slow down"),
    ((500, "boom"), "retries exhausted after 0 retries: HTTP 500: boom"),
    ((400, "bad request"), "HTTP 400: bad request"),
    ((302, "moved", {"Location": "/v1/other"}), "unexpected response body: moved"),
    ((307, "moved", {"Location": "/v1/other"}), "unexpected response body: moved"),
    ("slow", "retries exhausted after 0 retries: transport failure: timed out"),
    ("closed", "retries exhausted after 0 retries: transport failure: <urlopen error"),
], ids=["429", "500", "400", "302-not-followed", "307-not-followed", "timeout", "closed-port"])
def test_live_failure_exit_3_with_one_line(tmp_path, monkeypatch, capsys, endpoint, reply,
                                          expected):
    monkeypatch.setenv("FORMU_API_KEY", "offline")
    url = _closed_port_url() if reply == "closed" else endpoint.url
    if reply == "slow":
        endpoint.delay_s = 30.0
    elif reply != "closed":
        endpoint.replies.append(reply)
    code = main([*_PREDICT, "--backend", "live", "--output-dir", str(tmp_path), "--run-id", "t",
                 "--config", _live_config(tmp_path, url, max_retries=0, timeout_s=0.3)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"transport error: {expected}") and err.count("\n") == 1, err
    assert len(endpoint.requests) == (0 if reply == "closed" else 1)


@pytest.mark.parametrize("template", [
    "file://{answer}", "ftp://{host}/answer.json", "{host}/v1", "http://{hostname}:abc/v1",
    "http://{hostname}:99999/v1", "http:///v1", "http://{host}/v 1", "http://{host}/caf\u00e9",
], ids=["file", "ftp", "no-scheme", "port-not-a-number", "port-out-of-range", "no-host",
        "space-in-path", "non-ascii"])
def test_live_base_url_that_is_not_http_exit_2(tmp_path, monkeypatch, capsys, endpoint, template):
    # a file that holds a well-formed answer, which urllib's default opener would read
    monkeypatch.setenv("FORMU_API_KEY", "offline")
    answer = tmp_path / "answer.json"
    answer.write_text(json.dumps({"choices": [{"message": {"content": "{}"}}]}))
    host = endpoint.url.split("/")[2]
    base_url = template.format(answer=answer, host=host, hostname=host.split(":")[0])
    code = main([*_PREDICT, "--backend", "live", "--output-dir", str(tmp_path), "--run-id", "t",
                 "--config", _live_config(tmp_path, base_url)])
    assert code == 2
    err = capsys.readouterr().err
    if not template.startswith("http:"):
        assert err == f"error: llm base_url must be an http or https URL, got {base_url!r}\n"
    assert err.startswith("error: llm base_url ") and err.count("\n") == 1, err
    assert endpoint.requests == []
    assert not (tmp_path / "t").exists()


def test_live_infinite_temperature_exit_2(tmp_path, monkeypatch, capsys, endpoint):
    monkeypatch.setenv("FORMU_API_KEY", "offline")
    code = main([*_PREDICT, "--backend", "live", "--output-dir", str(tmp_path), "--run-id", "t",
                 "--config", _live_config(tmp_path, endpoint.url, temperature=float("inf"))])
    assert code == 2
    assert capsys.readouterr().err == "error: temperature must be finite and >= 0\n"
    assert endpoint.requests == []
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("argv", [_PREDICT, _BENCH], ids=["predict", "bench"])
def test_replay_response_that_is_not_a_string_exit_2(tmp_path, capsys, argv):
    # each line keeps its prompt's real digest, so only the response is wrong
    out = str(tmp_path / "out")
    assert main([*argv, "--backend", "mock", "--output-dir", out, "--run-id", "m"]) == 0
    recorded = next(_out(tmp_path, "m").glob("transcript*.jsonl")).read_text()
    replay = tmp_path / "replay.jsonl"
    replay.write_text("".join(json.dumps({**json.loads(line), "response": 5}) + "\n"
                              for line in recorded.splitlines()))
    capsys.readouterr()
    code = main([*argv, "--backend", "replay", "--replay", str(replay),
                 "--output-dir", out, "--run-id", "r"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {replay}: a transcript response is not a string or null\n")
