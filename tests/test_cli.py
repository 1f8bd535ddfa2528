import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import uncertainty_lab as ul
from uncertainty_lab import _floatrepr, cli, state_sets
from uncertainty_lab.cli import main, make_parser
from helpers import pauli_pair, rand_hermitian, scan_csv_rows


@pytest.fixture
def files(tmp_path, l3, l4):
    sx, sz = pauli_pair()
    paths = {}
    for name, obs in (("l3", l3), ("l4", l4), ("sx", sx), ("sz", sz)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(ul.observable_to_json_dict(obs)))
        paths[name] = str(p)
    for name, state in (
        ("phi2", ul.uniform_superposition(3)),
        ("phi1", ul.two_level_state(1, 1)),
        ("qubit", ul.StateVector([1.0, 0.0])),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(ul.state_to_json_dict(state)))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def _huge_pair(tmp_path) -> list[str]:
    """1e155 lambda_3 and lambda_4: valid input whose squared sizes leave the float range."""
    paths = []
    for k in (3, 4):
        path = tmp_path / f"huge{k}.json"
        path.write_text(json.dumps(ul.observable_to_json_dict(1e155 * ul.su3_lambda(k))))
        paths.append(str(path))
    return paths


def _random_pair(tmp_path, rng, dim) -> list[str]:
    paths = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}{dim}.json"
        path.write_text(json.dumps(ul.observable_to_json_dict(rand_hermitian(rng, dim))))
        paths.append(str(path))
    return paths


def _temp_files(directory) -> list[str]:
    return [name for name in os.listdir(directory) if name.endswith(".tmp")]


def _module_env() -> dict:
    """The environment under which `python -m uncertainty_lab.cli` finds this tree."""
    src = os.path.dirname(os.path.dirname(ul.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestEval:
    def test_uniform_state_golden(self, files, capsys):
        assert main(["eval", files["l3"], files["l4"], files["phi2"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["uncertainty"]["general_bound"] == pytest.approx(1 / 3, abs=1e-12)
        assert doc["uncertainty"]["hr_bound"] <= 1e-12
        assert doc["classification"]["in_s_comm"] is True
        assert doc["correlation"]["pearson"] == pytest.approx(0.8660254037844386, abs=1e-12)
        assert doc["manifest"]["command"] == "eval"

    def test_two_level_state_membership(self, files, capsys):
        assert main(["eval", files["l3"], files["l4"], files["phi1"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"]["in_s_ab"] is True

    def test_commuting_pair_reports_null_classification(self, files, capsys):
        assert main(["eval", files["l3"], files["l3"], files["phi2"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classification"] is None
        assert doc["uncertainty"]["tight"] is True

    @pytest.mark.parametrize("amps, flags", [([1, 0, 0], "1,1,0,0,0"), (None, "0,0,0,0,0")])
    def test_commuting_pair_csv_row_keeps_the_eigen_flags(
        self, files, tmp_path, capsys, amps, flags
    ):
        # lambda_3 and lambda_8 commute: no state is in a set, but (1, 0, 0) is
        # an eigenstate of both, and the Pearson field is blank exactly then
        l8 = tmp_path / "l8.json"
        l8.write_text(json.dumps(ul.observable_to_json_dict(ul.su3_lambda(8))))
        state = files["phi2"]
        if amps is not None:
            state = str(tmp_path / "e1.json")
            Path(state).write_text(json.dumps(ul.state_to_json_dict(ul.StateVector(amps))))
        assert main(["eval", files["l3"], str(l8), state, "--format", "csv"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert ",".join(row[-5:]) == flags
        assert (row[7] == "") == (flags[0] == "1")
        assert main(["eval", files["l3"], str(l8), state]) == 0
        assert json.loads(capsys.readouterr().out)["classification"] is None

    def test_dimension_mismatch_exits_2(self, files, capsys):
        assert main(["eval", files["sx"], files["l4"], files["phi2"]]) == 2
        assert "dimension mismatch" in capsys.readouterr().err

    def test_missing_file_exits_2(self, files, capsys):
        assert main(["eval", "no-such-file.json", files["l4"], files["phi2"]]) == 2
        assert "not found" in capsys.readouterr().err

    def test_directory_input_exits_2_without_traceback(self, files, capsys):
        assert main(["eval", str(files["dir"]), files["l4"], files["phi2"]]) == 2
        err = capsys.readouterr().err
        assert "cannot read input path" in err
        assert "Traceback" not in err

    def test_schema_violation_exits_2(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 3, "entries": "nope"}')
        assert main(["eval", str(bad), files["l4"], files["phi2"]]) == 2
        assert "schema violation" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, files, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["eval", str(bad), files["l4"], files["phi2"]]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_huge_integer_exits_2(self, files, tmp_path, capsys):
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps({"dim": 2, "amps": [[10**400, 0], [0, 0]]}))
        assert main(["eval", files["sx"], files["sz"], str(bad)]) == 2
        err = capsys.readouterr().err
        assert "schema violation" in err and "Traceback" not in err

    def test_integer_literal_past_the_digit_limit_exits_2(self, files, tmp_path, capsys):
        bad = tmp_path / "digits.json"
        bad.write_text('{"dim": 2, "amps": [[1' + "0" * 5000 + ", 0], [0, 0]]}")
        assert main(["eval", files["sx"], files["sz"], str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"invalid JSON in {bad}" in err and "Traceback" not in err

    def test_too_deeply_nested_json_exits_2(self, files, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100000 + "]" * 100000)
        assert main(["eval", str(bad), files["l4"], files["phi2"]]) == 2
        err = capsys.readouterr().err
        assert "invalid JSON" in err and "Traceback" not in err

    def test_non_hermitian_input_exits_2(self, files, tmp_path, capsys):
        bad = tmp_path / "nonherm.json"
        bad.write_text(json.dumps({
            "dim": 2,
            "entries": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
        }))
        assert main(["eval", str(bad), str(bad), files["qubit"]]) == 2

    def test_internal_check_failure_exits_4(self, files, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ArithmeticError("correlation: moment form = deviation form fails")

        monkeypatch.setattr(ul, "evaluate", broken)
        assert main(["eval", files["l3"], files["l4"], files["phi2"]]) == 4
        err = capsys.readouterr().err
        assert "moment form = deviation form" in err
        assert "Traceback" not in err

    def test_json_keys_in_field_order(self, files, capsys):
        assert main(["eval", files["l3"], files["l4"], files["phi2"]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["uncertainty", "correlation", "classification", "manifest"]
        assert list(doc["uncertainty"]) == [
            "delta_a", "delta_b", "product", "hr_bound", "schrodinger_bound",
            "general_bound", "slack_hr", "slack_general", "tight"]
        assert list(doc["correlation"]) == [
            "c", "cov_real", "imag_part", "pearson", "transition_prob"]
        assert list(doc["classification"]) == [
            "eigen_a", "eigen_b", "in_s_ab", "in_s_comm", "in_s_anti", "pearson",
            "tolerances_used"]
        assert list(doc["classification"]["tolerances_used"]) == [
            "tol_herm", "tol_norm", "tol_zero", "eps_spread"]

    def test_large_entries_pass_the_internal_checks(self, files, tmp_path, capsys):
        # the bound chain's residuals at entries of 1e3 are ~1e-10, tiny next
        # to ||A phi|| ||B phi|| ~ 1e6
        paths = []
        for k in (2, 3):
            path = tmp_path / f"big{k}.json"
            path.write_text(json.dumps(ul.observable_to_json_dict(1e3 * ul.su3_lambda(k))))
            paths.append(str(path))
        assert main(["eval", *paths, files["phi2"]]) == 0, capsys.readouterr().err

    def test_csv_format(self, files, capsys):
        assert main(["eval", files["l3"], files["l4"], files["phi2"], "--format", "csv"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("dim,seed,delta_a")
        fields = out[1].split(",")
        assert float(fields[4]) == pytest.approx(2 / (3 * np.sqrt(3)), abs=1e-12)

    def test_output_file(self, files, tmp_path):
        out = tmp_path / "report.json"
        assert main(["eval", files["l3"], files["l4"], files["phi2"], "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["uncertainty"]["general_bound"] == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_pair_past_the_float_range_exits_2_and_writes_nothing(
        self, files, tmp_path, capsys, fmt
    ):
        # before the check, this printed Infinity / NaN tokens and exited 0
        before = sorted(os.listdir(tmp_path))
        argv = ["eval", *_huge_pair(tmp_path), files["phi2"], "--format", fmt]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "left the float range" in err and "||A||_F^2" in err
        assert sorted(os.listdir(tmp_path)) == sorted(before + ["huge3.json", "huge4.json"])

    @pytest.mark.parametrize("fmt, written", [
        ("json", ["report"]), ("csv", ["report", "report.manifest.json"]),
    ])
    def test_outputs_and_manifests_share_the_write_path(
        self, files, tmp_path, monkeypatch, fmt, written
    ):
        calls = []
        real_write = cli._write

        def recording_write(path, chunks):
            calls.append(os.path.basename(path))
            real_write(path, chunks)

        monkeypatch.setattr(cli, "_write", recording_write)
        out = tmp_path / "report"
        argv = ["eval", files["l3"], files["l4"], files["phi2"], "--format", fmt]
        assert main(argv + ["--out", str(out)]) == 0
        assert calls == written
        assert all((tmp_path / name).exists() for name in written)
        assert _temp_files(tmp_path) == []


class TestFind:
    def test_gell_mann_pair(self, files, capsys):
        assert main(["find", files["l3"], files["l4"], "--seed", "7"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["converged"] is True
        state = ul.state_from_json_dict(doc["result"]["state"])
        l3 = ul.observable_from_json_dict(json.loads(Path(files["l3"]).read_text()))
        l4 = ul.observable_from_json_dict(json.loads(Path(files["l4"]).read_text()))
        assert abs(ul.correlation(l3, l4, state)) <= 1e-10

    def test_emitted_state_accepted_by_eval(self, files, tmp_path, capsys):
        assert main(["find", files["l3"], files["l4"], "--seed", "7"]) == 0
        doc = json.loads(capsys.readouterr().out)
        state_path = tmp_path / "found.json"
        state_path.write_text(json.dumps(doc["result"]["state"]))
        assert main(["eval", files["l3"], files["l4"], str(state_path)]) == 0
        eval_doc = json.loads(capsys.readouterr().out)
        assert eval_doc["classification"]["in_s_ab"] is True

    def test_dimension_two_exits_2(self, files, capsys):
        assert main(["find", files["sx"], files["sz"]]) == 2
        assert "dimension" in capsys.readouterr().err

    def test_commuting_pair_exits_2(self, files, capsys):
        assert main(["find", files["l3"], files["l3"]]) == 2
        assert "commutes" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--spread-floor", "nan")])
    def test_non_finite_setting_exits_2(self, files, capsys, flag, value):
        assert main(["find", files["l3"], files["l4"], flag, value]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_a_value_past_the_float_range_exits_2(self, files, capsys):
        # (floor - dA)^2 overflows in the objective: not an internal check
        assert main(["find", files["l3"], files["l4"], "--spread-floor", "1e300"]) == 2
        err = capsys.readouterr().err
        assert "left the float range" in err
        assert "cross-check" not in err and "Traceback" not in err

    def test_unconverged_exits_3(self, files, capsys):
        code = main(["find", files["l3"], files["l4"],
                     "--restarts", "1", "--max-iters", "2", "--seed", "0"])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["converged"] is False

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(ul.FinderConfig) if f.name != "seed"]
    )
    def test_flag_defaults_follow_the_finder(self, name):
        args = make_parser().parse_args(["find", "a", "b"])
        default = getattr(ul.FinderConfig(), name)
        assert (type(getattr(args, name)), getattr(args, name)) == (type(default), default)

    def test_removed_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(["find", "a", "b", "--step-rule", "gauss-newton"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--penalty-weight", "--converge-tol"])
    def test_deleted_setting_flag_is_a_usage_error(self, flag):
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(["find", "a", "b", flag, "1"])
        assert exc.value.code == 2

    def test_readme_lists_exactly_the_finder_flags(self):
        # the flags make_parser builds from FinderConfig: find's options less the
        # common ones, which basis also takes
        subcommands = next(a for a in make_parser()._actions if a.choices and "find" in a.choices)
        options = {
            name: {s for action in subcommands.choices[name]._actions for s in action.option_strings}
            for name in ("find", "basis")
        }
        built = options["find"] - options["basis"]
        assert built == {"--" + f.name.replace("_", "-")
                         for f in dataclasses.fields(ul.FinderConfig) if f.name != "seed"}
        readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
        listed = re.search(r"`find` also exposes (.*?);", readme)
        assert listed is not None
        assert set(re.findall(r"`(--[a-z-]+)`", listed.group(1))) == built

    def test_reproducible_state_digits(self, files, capsys):
        main(["find", files["l3"], files["l4"], "--seed", "11"])
        first = json.loads(capsys.readouterr().out)["result"]["state"]
        main(["find", files["l3"], files["l4"], "--seed", "11"])
        second = json.loads(capsys.readouterr().out)["result"]["state"]
        assert first == second


class TestScan:
    def test_rows_and_pearson_bound(self, files, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["scan", files["l3"], files["l4"],
                     "--samples", "1000", "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1001
        header = lines[0].split(",")
        p_idx = header.index("pearson")
        for line in lines[1:]:
            field = line.split(",")[p_idx]
            if field:
                assert float(field) <= 1.0 + 1e-10

    def test_dimension_two_pearson_is_one(self, files, tmp_path):
        out = tmp_path / "scan2.csv"
        assert main(["scan", files["sx"], files["sz"],
                     "--samples", "1000", "--seed", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        p_idx = lines[0].split(",").index("pearson")
        defined = [float(l.split(",")[p_idx]) for l in lines[1:] if l.split(",")[p_idx]]
        assert defined  # spreads are generically positive at d = 2
        assert min(defined) >= 1.0 - 1e-6

    def test_byte_identical_bodies_for_same_seed(self, files, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["scan", files["l3"], files["l4"],
                         "--samples", "200", "--seed", "9", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_body_prefix_independent_of_sample_count(self, files, tmp_path):
        bodies = {}
        for samples in (30, 70):
            out = tmp_path / f"scan{samples}.csv"
            assert main(["scan", files["l3"], files["l4"],
                         "--samples", str(samples), "--seed", "4", "--out", str(out)]) == 0
            bodies[samples] = out.read_text().splitlines()
        assert len(bodies[70]) == 71
        assert bodies[30] == bodies[70][:31]

    def test_manifest_sidecar(self, files, tmp_path):
        out = tmp_path / "scan.csv"
        main(["scan", files["l3"], files["l4"],
              "--samples", "10", "--seed", "3", "--out", str(out)])
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        assert manifest["command"] == "scan"
        assert manifest["seed"] == 3
        assert manifest["samples"] == 10
        assert manifest["tolerances"]["tol_zero"] == 1e-10

    def test_zero_samples_exits_2(self, files, tmp_path, capsys):
        code = main(["scan", files["l3"], files["l4"],
                     "--samples", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_missing_out_exits_2(self, files, capsys):
        assert main(["scan", files["l3"], files["l4"], "--samples", "5"]) == 2

    def test_partitioned_scan_matches_the_whole_scan(self, tmp_path, rng):
        # 1365-row blocks at d = 3: [0, 1400) crosses a block boundary, the
        # cuts fall inside blocks, and [700, 701) is a one-row range.  A
        # random pair, because products with the 0/1 entries of lambda_3 and
        # lambda_4 round alike by any route.
        paths = []
        for name in ("a", "b"):
            paths.append(str(tmp_path / f"{name}.json"))
            obs = rand_hermitian(rng, 3)
            (tmp_path / f"{name}.json").write_text(json.dumps(ul.observable_to_json_dict(obs)))

        def body(*extra):
            out = tmp_path / "part.csv"
            assert main(["scan", *paths, "--seed", "6", "--out", str(out), *extra]) == 0
            return out.read_bytes()

        whole = body("--samples", "1400")
        header, _, rows = whole.partition(b"\n")
        parts = [body("--samples", "700"), body("--start", "700", "--samples", "1"),
                 body("--start", "701", "--samples", "665"),
                 body("--start", "1366", "--samples", "34")]
        assert all(part.partition(b"\n")[0] == header for part in parts)
        assert b"".join(part.partition(b"\n")[2] for part in parts) == rows
        assert parts[1].split(b"\n")[1].startswith(b"700,")

    def test_negative_start_or_seed_exits_2(self, files, tmp_path, capsys):
        for flag, value in (("--start", "-1"), ("--seed", "-1")):
            assert main(["scan", files["l3"], files["l4"], "--samples", "5", flag, value,
                         "--out", str(tmp_path / "x.csv")]) == 2
            assert "error:" in capsys.readouterr().err

    def test_manifest_records_the_range_and_rng_scheme(self, files, tmp_path):
        out = tmp_path / "scan.csv"
        main(["scan", files["l3"], files["l4"], "--samples", "5", "--start", "9",
              "--out", str(out)])
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        assert (manifest["start"], manifest["samples"]) == (9, 5)
        assert manifest["rng"]["generator"].startswith("Philox-4x64")
        assert manifest["rng"]["counter_stride"] == 2  # ceil(2 * 3 / 4)
        assert manifest["tool_version"] == ul.__version__ == "0.10.2"

    def test_manifest_counts_and_hashes_the_written_body(self, files, tmp_path):
        # a loose tol_zero puts many rows in s_comm and s_anti, some in s_ab;
        # 3000 samples span three blocks at d = 3
        out = tmp_path / "scan.csv"
        assert main(["scan", files["l3"], files["l4"], "--samples", "3000", "--seed", "5",
                     "--tol-zero", "0.05", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        body = out.read_bytes()
        assert manifest["body_sha256"] == hashlib.sha256(body).hexdigest()
        header, *rows = (line.split(",") for line in body.decode().splitlines())
        columns = ["eigen_a", "eigen_b", "s_ab", "s_comm", "s_anti"]
        assert list(manifest["class_counts"]) == columns == header[-5:]
        counts = {name: sum(int(row[header.index(name)]) for row in rows) for name in columns}
        assert manifest["class_counts"] == counts
        assert counts["s_ab"] > 0 and counts["s_comm"] > counts["s_ab"]

    def test_memory_does_not_grow_with_samples(self, tmp_path, rng):
        # the body streams to disk block by block: 1280 rows at d = 64 (~3.5 MB
        # of CSV) peak no higher than 128 rows
        paths = _random_pair(tmp_path, rng, 64)
        out = str(tmp_path / "scan.csv")
        assert main(["scan", *paths, "--samples", "1", "--out", out]) == 0  # warm-up
        peaks = []
        for samples in (128, 1280):
            tracemalloc.start()
            try:
                assert main(["scan", *paths, "--samples", str(samples), "--out", out]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.5e6, peaks
        # and the formatter's working set stays small (0.10.0 peaked at ~1.2 MB)
        assert peaks[1] <= 1.6e6, peaks

    @pytest.mark.parametrize("dim", [3, 64])
    def test_one_formatter_call_per_block(self, tmp_path, rng, monkeypatch, dim):
        rows, calls = 4096 // dim, []
        real = _floatrepr.write_reprs

        def counted(values, out):
            calls.append(values.shape)
            real(values, out)

        monkeypatch.setattr(_floatrepr, "write_reprs", counted)
        samples = 2 * rows + 5  # three blocks, the last of 5 rows
        assert main(["scan", *_random_pair(tmp_path, rng, dim), "--samples", str(samples),
                     "--out", str(tmp_path / "scan.csv")]) == 0
        assert calls == [(rows, 2 * dim + 3), (rows, 2 * dim + 3), (5, 2 * dim + 3)]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap trimming")
    def test_a_repeated_scan_does_not_refault_each_block(self, tmp_path, rng):
        # each block frees its formatter scratch, one allocation of ~0.6 MB at
        # d = 64, which raises glibc's trim threshold (mallopt(3)) above what a
        # block leaves free on the heap, so the blocks of a call reuse it
        # (before: ~3300 faults per call).  What remains, ~330, is the JSON
        # input and one regrowth after the heap is trimmed as a call ends.
        script = (
            "import resource, sys\n"
            "from uncertainty_lab.cli import main\n"
            "argv = ['scan', *sys.argv[1:3], '--samples', '1000', '--out', sys.argv[3]]\n"
            "faults = []\n"
            "for seed in ('1', '2'):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    assert main(argv + ['--seed', seed]) == 0\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(faults[1])\n"
        )
        env = {**_module_env(), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", script, *_random_pair(tmp_path, rng, 64),
             str(tmp_path / "scan.csv")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 500, proc.stdout

    @pytest.mark.parametrize(
        "dim, scale, samples, start, eps_spread",
        [
            (2, 1.0, 300, 0, None),
            (2, 1.0, 2100, 0, None),  # a full 2048-row block, the largest call, and more
            (3, 1.0, 300, 0, None),
            (8, 1.0, 600, 0, None),  # two blocks of 512 rows
            (64, 1.0, 100, 0, None),  # two blocks of 64 rows
            (3, 1e9, 200, 0, None),  # re_c and im_c ~1e18: exponent form, through repr
            (3, 1e-9, 200, 0, None),  # ~1e-18, likewise
            (3, 1.0, 500, 1000, None),  # cuts the first 1365-row block
            (3, 1.0, 5, 10**19, None),  # indices past int64
            (3, 1.0, 300, 0, 1.0),  # a third of the rows have no pearson
        ],
    )
    def test_body_matches_the_per_row_formatter(
        self, tmp_path, rng, dim, scale, samples, start, eps_spread
    ):
        paths = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.json"
            obs = scale * rand_hermitian(rng, dim)
            path.write_text(json.dumps(ul.observable_to_json_dict(obs)))
            paths.append(str(path))
        out = tmp_path / "scan.csv"
        tol = ul.Tolerances() if eps_spread is None else ul.Tolerances(eps_spread=eps_spread)
        assert main(["scan", *paths, "--samples", str(samples), "--start", str(start),
                     "--seed", "8", "--eps-spread", repr(tol.eps_spread), "--out", str(out)]) == 0
        a, b = (ul.observable_from_json_dict(json.loads(Path(p).read_text())) for p in paths)
        config = ul.ScanConfig(samples=samples, seed=8, start=start, tolerances=tol)
        blocks = list(state_sets._scan_blocks(a, b, config))
        expected = (cli._scan_header(dim) + "\n").encode()
        expected += b"".join(scan_csv_rows(block) for block in blocks)
        body = out.read_bytes()
        assert body == expected
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        assert manifest["body_sha256"] == hashlib.sha256(expected).hexdigest()
        # every number reads back as the block's double, bit for bit
        rows = [line.split(",") for line in body.decode().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(range(start, start + samples))
        numbers = np.array([[float(field) for field in row[1 : 2 * dim + 3]] for row in rows])
        phis = np.concatenate([block.phis for block in blocks]).view(float)
        c = np.concatenate([block.c for block in blocks]).view(float).reshape(-1, 2)
        assert numbers.tobytes() == np.concatenate((phis, c), axis=1).tobytes()
        # a blank Pearson field reads as NaN, as the block holds it on every eigen row
        pearson = np.array([float(row[2 * dim + 3] or "nan") for row in rows])
        assert pearson.tobytes() == np.concatenate([block.pearson for block in blocks]).tobytes()
        blank = [not row[2 * dim + 3] for row in rows]
        eigen = np.concatenate([block.flags[:, :2].any(axis=1) for block in blocks])
        assert blank == eigen.tolist()
        assert eps_spread is None or any(blank)

    @pytest.mark.parametrize("dim", [3, 64])
    def test_samples_past_the_philox_counters_exit_2(self, tmp_path, rng, capsys, dim):
        # Philox-4x64 counts to 2^256 and then wraps: a block past that would
        # repeat the samples at counter 0 under other indices
        paths = _random_pair(tmp_path, rng, dim)
        rows, steps = 4096 // dim, -(-2 * dim // 4)
        last = 2**256 // (rows * steps) * rows - 1  # the last sample of the last whole block
        out = tmp_path / "scan.csv"
        assert main(["scan", *paths, "--start", str(last), "--samples", "1",
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith(f"{last},")
        before = sorted(os.listdir(tmp_path))
        for start, samples in ((last, 2), (last + 1, 1), (2**255, 2)):
            assert main(["scan", *paths, "--start", str(start), "--samples", str(samples),
                         "--out", str(tmp_path / "past.csv")]) == 2
            assert "2^256" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    def test_failing_check_in_a_late_block_keeps_the_old_out(
        self, files, tmp_path, capsys, monkeypatch
    ):
        # each block runs six row checks; the 13th call is block 3's first
        real_check, calls = state_sets._check_rows, []

        def failing_check(identity, *args, **kwargs):
            calls.append(identity)
            if len(calls) == 13:
                raise ArithmeticError(f"{identity} fails: injected")
            real_check(identity, *args, **kwargs)

        out = tmp_path / "scan.csv"
        argv = ["scan", files["l3"], files["l4"], "--samples", "4000", "--out", str(out)]
        assert main(argv) == 0
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        monkeypatch.setattr(state_sets, "_check_rows", failing_check)
        assert main(argv[:-2] + ["--seed", "1", "--out", str(out)]) == 4
        assert "injected" in capsys.readouterr().err
        assert len(calls) == 13
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
        # with no earlier output, none is left at all
        fresh = tmp_path / "fresh.csv"
        calls.clear()
        assert main(argv[:-2] + ["--out", str(fresh)]) == 4
        assert sorted(os.listdir(tmp_path)) == sorted(before)

    def test_interrupt_leaves_no_temp_file(self, files, tmp_path, monkeypatch):
        real_blocks = state_sets._scan_blocks

        def interrupted(*args):
            blocks = real_blocks(*args)
            yield next(blocks)
            raise KeyboardInterrupt

        monkeypatch.setattr(state_sets, "_scan_blocks", interrupted)
        out = tmp_path / "scan.csv"
        with pytest.raises(KeyboardInterrupt):
            main(["scan", files["l3"], files["l4"], "--samples", "3000", "--out", str(out)])
        assert not out.exists() and _temp_files(tmp_path) == []

    def test_past_the_float_range_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # without the check, the rows held nan / -inf for re_c, im_c and pearson
        paths = _huge_pair(tmp_path)
        out = tmp_path / "scan.csv"
        assert main(["scan", *paths, "--samples", "10", "--out", str(out)]) == 2
        assert "left the float range" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["huge3.json", "huge4.json"]

    def test_env_var_provides_seed(self, files, tmp_path, monkeypatch):
        monkeypatch.setenv("UNCERTAINTY_LAB_SEED", "77")
        out = tmp_path / "scan.csv"
        main(["scan", files["l3"], files["l4"], "--samples", "5", "--out", str(out)])
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        assert manifest["seed"] == 77


class TestWrite:
    """Every ``--out`` file is written whole or not at all, through one path."""

    def test_mode_follows_the_umask(self, files, tmp_path):
        old = os.umask(0o027)
        try:
            assert main(["basis", "--dim", "3", "--out", str(tmp_path / "basis.json")]) == 0
            assert main(["scan", files["l3"], files["l4"], "--samples", "5",
                         "--out", str(tmp_path / "scan.csv")]) == 0
        finally:
            os.umask(old)
        for name in ("basis.json", "scan.csv", "scan.csv.manifest.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~0o027

    @pytest.mark.parametrize("where", ["missing/out.json", "l3.json/out.json", "."])
    def test_unwritable_out_exits_2(self, files, tmp_path, capsys, where):
        # a missing directory, a file in place of one, and a directory as --out
        before = sorted(os.listdir(tmp_path))
        assert main(["basis", "--dim", "3", "--out", str(tmp_path / where)]) == 2
        err = capsys.readouterr().err
        assert "cannot write output path" in err and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == before

    def test_replaces_an_existing_file(self, tmp_path):
        out = tmp_path / "basis.json"
        out.write_text("old")
        assert main(["basis", "--dim", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["dim"] == 3
        assert os.listdir(tmp_path) == ["basis.json"]

    def test_a_symlinked_out_writes_its_target(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old")
        link.symlink_to(target)
        assert main(["basis", "--dim", "3", "--out", str(link)]) == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["dim"] == 3

    def test_a_stale_temporary_file_is_skipped_and_kept(self, tmp_path, monkeypatch):
        # a killed run left the next temporary name, and this process has its id
        monkeypatch.setattr(cli, "_TEMP_IDS", itertools.count())
        out, stale = tmp_path / "x.json", tmp_path / f".x.json.{os.getpid()}.0.tmp"
        stale.write_bytes(b"left by a killed run")
        assert main(["basis", "--dim", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["dim"] == 2
        assert stale.read_bytes() == b"left by a killed run"
        assert _temp_files(tmp_path) == [stale.name]

    def test_a_pipe_is_written_directly(self, files, tmp_path):
        # a pipe (like /dev/null or /dev/stdout) cannot be replaced by a file
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
        reader.start()
        try:
            code = main(["eval", files["l3"], files["l4"], files["phi2"], "--out", str(pipe)])
        finally:
            reader.join(timeout=60)
        assert code == 0
        assert json.loads(received[0])["manifest"]["command"] == "eval"
        assert pipe.is_fifo()


_STARTUP_PROBE = """
import json, sys
{code}
print(json.dumps(sorted(sys.modules)))
"""
# Entry path -> (the code it runs, the package's submodules it loads, other modules it
# must not load).  Each loads only the modules it runs.
_ENTRY_PATHS = {
    "import": ("import uncertainty_lab", "", "hashlib numpy.random"),
    "import-cli": ("import uncertainty_lab.cli", "cli core moments", "hashlib numpy.random"),
    "find": (
        "import uncertainty_lab as ul\n"
        "assert ul.find(ul.su3_lambda(3), ul.su3_lambda(4)).converged",
        "core finder gellmann moments", "",
    ),
    "cli-find": (
        "from uncertainty_lab.cli import main\n"
        "assert main(['find', {l3!r}, {l4!r}, '--out', {out!r}]) == 0",
        "cli core finder moments", "",
    ),
    "report": (
        "import uncertainty_lab.cli\n"
        "import uncertainty_lab as ul\n"
        "a, b, phi = ul.su3_lambda(3), ul.su3_lambda(4), ul.uniform_superposition(3)\n"
        "ul.evaluate(a, b, phi); ul.correlation_record(a, b, phi)\n"
        "ul.classify(a, b, phi); ul.sum_relations(a, b, phi)",
        "cli core correlations gellmann moments relations state_sets", "hashlib numpy.random",
    ),
    "cli-eval": (
        "from uncertainty_lab.cli import main\n"
        "assert main(['eval', {l3!r}, {l4!r}, {phi2!r}, '--out', {out!r}]) == 0",
        "cli core correlations finder moments relations state_sets", "hashlib numpy.random",
    ),
    "cli-scan": (
        "from uncertainty_lab.cli import main\n"
        "assert main(['scan', {l3!r}, {l4!r}, '--samples', '10', '--out', {out!r}]) == 0",
        "_floatrepr cli core finder moments state_sets", "",
    ),
    "cli-basis": (
        "from uncertainty_lab.cli import main\n"
        "assert main(['basis', '--dim', '3', '--out', {out!r}]) == 0",
        "cli core finder gellmann moments", "hashlib numpy.random",
    ),
    "cli-demo": (
        "from uncertainty_lab.cli import main\n"
        "assert main(['demo']) == 0",
        "cli core correlations finder gellmann moments relations state_sets",
        "hashlib numpy.random",
    ),
}


class TestStartUp:
    """A call loads only the modules its command runs, each path in a fresh interpreter."""

    @pytest.mark.parametrize("path", sorted(_ENTRY_PATHS))
    def test_an_entry_path_loads_only_its_modules(self, files, tmp_path, path):
        code, loaded, absent = _ENTRY_PATHS[path]
        code = code.format(l3=files["l3"], l4=files["l4"], phi2=files["phi2"],
                           out=str(tmp_path / "out"))
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_PROBE.format(code=code)],
            capture_output=True, text=True, env=_module_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        modules = set(json.loads(proc.stdout.splitlines()[-1]))
        package = {m.removeprefix("uncertainty_lab.") for m in modules
                   if m.startswith("uncertainty_lab.")}
        assert "uncertainty_lab" in modules and package == set(loaded.split())
        assert modules.isdisjoint(absent.split())

    def test_a_scan_loads_the_formatter_before_its_first_block(self, files, tmp_path):
        # loaded by the first block's formatting, its compile buffers would land above
        # that block's arrays on the heap and raise the peak
        code = (
            "import sys\n"
            "from uncertainty_lab import cli, state_sets\n"
            "real, seen = state_sets._gaussian_rows, []\n"
            "def rows(*args):\n"
            "    seen.append('uncertainty_lab._floatrepr' in sys.modules)\n"
            "    return real(*args)\n"
            "state_sets._gaussian_rows = rows\n"
            f"argv = ['scan', {files['l3']!r}, {files['l4']!r}, '--samples', '10', "
            f"'--out', {str(tmp_path / 'scan.csv')!r}]\n"
            "assert cli.main(argv) == 0\n"
            "assert seen == [True], seen\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_module_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("name", ["evaluate", "classify", "gell_mann", "FinderConfig"])
    def test_a_command_name_resolves_before_any_call_binds_it(self, name):
        value = getattr(cli, name)
        assert getattr(sys.modules[value.__module__], name) is value
        assert name not in vars(cli)  # read through the package, never held as a stale copy

    def test_every_public_name_of_the_package_is_its_object_on_cli(self):
        # the benchmark's tracer reads ``uncertainty_lab.cli.classify``
        for name in ul.__all__:
            assert getattr(cli, name) is getattr(ul, name), name

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'uncertainty_lab.cli' has no attribute"):
            cli.no_such_name
        assert not hasattr(cli, "__path__")  # the package's names only, not its module attributes


class TestDemo:
    def test_golden_lines_and_exit_code(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "C(phi2) = 0.333333333333" in out
        assert "HR bound(phi2) = 0" in out
        assert "product(phi2) = 0.38490017946" in out
        assert "FAIL" not in out

    def test_runs_as_module(self):
        # `python -m uncertainty_lab.cli` must run the CLI, not just import it
        proc = subprocess.run(
            [sys.executable, "-m", "uncertainty_lab.cli", "demo"],
            capture_output=True, text=True, env=_module_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("[PASS]") == 6
        assert "FAIL" not in proc.stdout


class TestBasis:
    def test_round_trip_through_own_reader(self, capsys):
        assert main(["basis", "--dim", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["matrices"]) == 8
        mats = [ul.observable_from_json_dict(m) for m in doc["matrices"]]
        assert all(m.dim == 3 for m in mats)
        lam5 = ul.su3_lambda(5)
        assert any(np.array_equal(m.matrix, lam5.matrix) for m in mats)

    def test_reader_closing_the_pipe_exits_5_without_traceback(self):
        # ~600 kB of JSON: far more than a pipe buffers, so the writer is
        # still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "uncertainty_lab.cli", "basis", "--dim", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
        )
        assert proc.stdout.readline().strip() == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 5, err
        assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["basis", "--dim", "3"], ["demo"]])
def test_a_failed_write_to_stdout_exits_5_with_one_error_line(argv):
    # every write to /dev/full fails with ENOSPC
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "uncertainty_lab.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=_module_env(), timeout=120,
        )
    assert proc.returncode == 5, proc.stderr
    assert [line.startswith("error: ") for line in proc.stderr.splitlines()] == [True]
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


_RERUN_AFTER_A_FAILED_WRITE = """
import os, sys
from uncertainty_lab.cli import main

def stdout_to(path, flags):
    fd = os.open(path, flags)
    os.dup2(fd, 1)
    os.close(fd)

before = sorted(os.listdir("/proc/self/fd"))
stdout_to("/dev/full", os.O_WRONLY)
codes = [main(["basis", "--dim", "2"]), main(["basis", "--dim", "2"])]
stdout_to(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
codes.append(main(["basis", "--dim", "2"]))
print(codes, sorted(os.listdir("/proc/self/fd")) == before, file=sys.stderr)
"""


@pytest.mark.skipif(not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")),
                    reason="needs /dev/full and /proc/self/fd")
def test_main_writes_again_after_a_failed_write_to_stdout(tmp_path, capsys):
    # each failed call drops what stdout did not take, puts fd 1 back and closes
    # every fd it opened, so the next call fails or writes on its own
    out = tmp_path / "basis.json"
    proc = subprocess.run(
        [sys.executable, "-c", _RERUN_AFTER_A_FAILED_WRITE, str(out)],
        stderr=subprocess.PIPE, text=True, env=_module_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[-1] == "[5, 5, 0] True"
    assert [line.startswith("error: cannot write to stdout: ") for line in lines[:-1]] == [True] * 2
    assert main(["basis", "--dim", "2"]) == 0
    written, fresh = (json.loads(text) for text in (out.read_text(), capsys.readouterr().out))
    for doc in (written, fresh):
        del doc["manifest"]["timestamp"]
    assert written == fresh


class TestOutOfMemory:
    """A MemoryError exits 2 with one ``error:`` line and leaves no output file.

    The builders are patched to raise it: no test asks numpy for a size it
    would have to refuse."""

    def test_basis(self, tmp_path, capsys, monkeypatch):
        def refused(dim):
            raise MemoryError(f"Unable to allocate 149. GiB for the basis of dimension {dim}")

        monkeypatch.setattr(ul, "gell_mann", refused)
        out = tmp_path / "basis.json"
        assert main(["basis", "--dim", "100000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 149. GiB for the basis of " \
                      "dimension 100000\n"
        assert os.listdir(tmp_path) == []

    def test_scan_in_a_late_block(self, files, tmp_path, capsys, monkeypatch):
        # the first block is written to the temporary file before the second fails
        real_rows, calls = state_sets._gaussian_rows, []

        def refused_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise MemoryError()
            return real_rows(*args)

        monkeypatch.setattr(state_sets, "_gaussian_rows", refused_second)
        out = tmp_path / "scan.csv"
        assert main(["scan", files["l3"], files["l4"], "--samples", "3000",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"
        assert len(calls) == 2
        assert not out.exists() and _temp_files(tmp_path) == []
        assert not (tmp_path / "scan.csv.manifest.json").exists()


class TestInProcess:
    """``main`` called repeatedly in one process: one parser, independent calls."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts the parsers built from here on."""
        real, built = cli.make_parser, []

        def counted():
            built.append(real())
            return built[-1]

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "make_parser", counted)
        yield built
        cli._parser.cache_clear()

    @staticmethod
    def _manifest(capsys) -> dict:
        return json.loads(capsys.readouterr().out)["manifest"]

    def test_the_parser_is_built_once(self, files, tmp_path, capsys, builds):
        assert main(["basis", "--dim", "2"]) == 0
        with pytest.raises(SystemExit) as usage:
            main(["eval", files["l3"], "--no-such-flag"])
        assert usage.value.code == 2
        assert main(["eval", files["l3"], files["l4"], files["phi2"]]) == 0
        assert main(["scan", files["l3"], files["l4"], "--samples", "5",
                     "--out", str(tmp_path / "scan.csv")]) == 0
        assert len(builds) == 1
        assert cli.make_parser() is not cli.make_parser()  # the public builder stays fresh

    def test_no_flag_carries_into_the_next_call(self, files, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("UNCERTAINTY_LAB_SEED", raising=False)
        triple = [files["l3"], files["l4"], files["phi2"]]
        assert main(["eval", *triple, "--tol-zero", "0.5", "--seed", "9"]) == 0
        first = self._manifest(capsys)
        assert (first["tolerances"]["tol_zero"], first["seed"]) == (0.5, 9)
        assert main(["eval", *triple]) == 0
        second = self._manifest(capsys)
        assert (second["tolerances"]["tol_zero"], second["seed"]) == (1e-10, 0)

        assert main(["eval", *triple, "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("dim,")
        assert main(["eval", *triple]) == 0
        assert self._manifest(capsys)["command"] == "eval"  # JSON again

        out = str(tmp_path / "scan.csv")
        manifests = []
        for extra in (["--start", "9", "--seed", "4"], []):
            assert main(["scan", files["l3"], files["l4"], "--samples", "5", "--out", out,
                         *extra]) == 0
            manifests.append(json.loads((tmp_path / "scan.csv.manifest.json").read_text()))
        assert [(m["start"], m["seed"]) for m in manifests] == [(9, 4), (0, 0)]

    def test_the_seed_variable_is_read_on_each_call(self, files, capsys, monkeypatch):
        triple = [files["l3"], files["l4"], files["phi2"]]
        seeds = []
        for value in ("77", "78", None):
            if value is None:
                monkeypatch.delenv("UNCERTAINTY_LAB_SEED")
            else:
                monkeypatch.setenv("UNCERTAINTY_LAB_SEED", value)
            assert main(["eval", *triple]) == 0
            seeds.append(self._manifest(capsys)["seed"])
        assert seeds == [77, 78, 0]
        monkeypatch.setenv("UNCERTAINTY_LAB_SEED", "x")
        assert main(["eval", *triple]) == 2
        assert "UNCERTAINTY_LAB_SEED must be an integer" in capsys.readouterr().err

    def test_threads_share_the_parser_and_keep_their_own_flags(self, files, tmp_path):
        # 4 threads on 2 cores, switching every 10 us: each call's manifest
        # must carry the flags of that call
        triple = [files["l3"], files["l4"], files["phi2"]]
        codes, interval = {}, sys.getswitchinterval()

        def calls(worker):
            for k in range(10):
                seed = 100 * worker + k
                out = str(tmp_path / f"eval{seed}.json")
                codes[seed] = main(["eval", *triple, "--seed", str(seed),
                                    "--tol-zero", f"{seed + 1}e-12", "--out", out])

        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=calls, args=(w,)) for w in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(codes) == 40 and set(codes.values()) == {0}
        for seed in codes:
            manifest = json.loads((tmp_path / f"eval{seed}.json").read_text())["manifest"]
            assert manifest["seed"] == seed
            assert manifest["tolerances"]["tol_zero"] == float(f"{seed + 1}e-12")

    def test_a_scan_after_other_subcommands_writes_a_fresh_process_bytes(
        self, files, tmp_path, capsys
    ):
        l3, l4 = files["l3"], files["l4"]
        assert main(["demo"]) == 0
        assert main(["basis", "--dim", "3"]) == 0
        assert main(["eval", l3, l4, files["phi2"], "--format", "csv", "--tol-zero", "0.5"]) == 0
        assert main(["find", l3, l4, "--seed", "3", "--restarts", "2"]) == 0
        assert main(["scan", l3, l4, "--samples", "300", "--seed", "2", "--start", "5",
                     "--tol-zero", "0.05", "--out", str(tmp_path / "other.csv")]) == 0
        capsys.readouterr()
        argv = ["scan", l3, l4, "--samples", "3000", "--seed", "1"]
        assert main([*argv, "--out", str(tmp_path / "warm.csv")]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "uncertainty_lab.cli", *argv, "--out", str(tmp_path / "cold.csv")],
            capture_output=True, text=True, env=_module_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
        warm, cold = (json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())
                      for name in ("warm", "cold"))
        for manifest in (warm, cold):
            del manifest["timestamp"], manifest["output"]
        assert warm == cold


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_TOKENS = ["NaN", "Infinity", "-Infinity", "1e400", str(10**400), "true", "null", '"0.5"', "[]"]
# each flag's values: about half of the draws valid, the rest NaN, +-inf, 0,
# negative, huge or no number at all; no count that scales the work is huge
_FLOATS = st.sampled_from(["1e-10", "1e-3", "0.2"]) | st.sampled_from(
    ["nan", "inf", "-inf", "0", "-0", "-1", "1e308", "1e-320", "x"])
_COUNTS = st.sampled_from(["1", "3", "40"]) | st.sampled_from(["0", "-1", "nan", "inf", "1.5", "x"])
_INTS = st.sampled_from(["0", "7", str(10**30)]) | st.sampled_from(
    ["-1", "nan", "inf", "1.5", "x", str(2**256), str(10**400)])
_FLAGS = {
    "eval": {"--format": st.sampled_from(["json", "csv", "xml"])},
    "find": {"--spread-floor": _FLOATS, "--restarts": _COUNTS, "--max-iters": _COUNTS},
    "scan": {"--samples": _COUNTS, "--start": _INTS},
}
_COMMON = {"--tol-zero": _FLOATS, "--eps-spread": _FLOATS, "--seed": _INTS}


@st.composite
def _input(draw, kind, dim):
    """The bytes of one input file, valid or mutated, or None for a directory."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    how = draw(st.just("valid") | st.sampled_from(
        ["other_dim", "token", "dim", "shape", "type", "bytes", "empty", "dir"]))
    if how == "other_dim":
        dim = draw(st.integers(2, 8))
    doc = (ul.observable_to_json_dict(rand_hermitian(rng, dim)) if kind == "observable"
           else ul.state_to_json_dict(ul.haar_state(dim, rng)))
    key = "entries" if kind == "observable" else "amps"
    if how == "dim":
        doc["dim"] = draw(st.sampled_from([-1, 0, 1, dim + 1, 10**30, 2.5, "3", None, True]))
    elif how == "shape":
        doc[key] = draw(st.sampled_from(
            [doc[key][:-1], [doc[key]], [[*pair, 0.0] for pair in doc[key]], doc[key][0]]))
    elif how == "type":
        doc = draw(st.sampled_from([[], {}, "x", 3, None, {"dim": dim}, {key: doc[key]}]))
    text = json.dumps(doc)
    if how == "token":
        numbers = list(_NUMBER.finditer(text))
        hit = numbers[draw(st.integers(0, len(numbers) - 1))]
        text = text[: hit.start()] + draw(st.sampled_from(_TOKENS)) + text[hit.end():]
    data = text.encode()
    if how == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\x80\x80"])) + data[at:]
    return {"empty": b"", "dir": None}.get(how, data)


@st.composite
def _runs(draw):
    """(subcommand, the contents of its input files, its flags)."""
    command = draw(st.sampled_from(["eval", "find", "scan"]))
    dim = draw(st.integers(2, 8))
    inputs = [draw(_input("observable", dim)) for _ in range(2)]
    if command == "eval":
        inputs.append(draw(_input("state", dim)))
    flags = []
    for flag, values in {**_FLAGS[command], **_COMMON}.items():
        if flag == "--samples" or draw(st.booleans()):
            flags += [flag, draw(values)]
    return command, inputs, flags


@given(_runs())
@settings(max_examples=150, deadline=None)  # a stall of the machine is no failure
def test_every_run_ends_in_a_documented_exit_code(run):
    command, inputs, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, data in enumerate(inputs):
            path = os.path.join(tmp, f"in{k}.json")
            if data is None:
                os.mkdir(path)
            else:
                Path(path).write_bytes(data)
            paths.append(path)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([command, *paths, *flags, "--out", out])
            except SystemExit as exc:  # a usage error, from argparse
                code = exc.code
        # 3 is find's own: a search that did not converge still writes its result
        assert code in ((0, 2, 3, 4) if command == "find" else (0, 2, 4)), err.getvalue()
        assert "Traceback" not in err.getvalue()
        left = sorted(os.listdir(tmp))
        assert not [name for name in left if name.endswith(".tmp")]
        if code not in (0, 3):
            assert left == sorted(f"in{k}.json" for k in range(len(inputs)))
