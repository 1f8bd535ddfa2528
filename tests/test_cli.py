import json
import os
import subprocess
import sys

import numpy as np
import pytest

import uncertainty_lab as ul
from uncertainty_lab import finder
from uncertainty_lab.cli import main, make_parser
from helpers import pauli_pair, rand_hermitian


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

        monkeypatch.setattr("uncertainty_lab.cli.evaluate", broken)
        assert main(["eval", files["l3"], files["l4"], files["phi2"]]) == 4
        err = capsys.readouterr().err
        assert "moment form = deviation form" in err
        assert "Traceback" not in err

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


class TestFind:
    def test_gell_mann_pair(self, files, capsys):
        assert main(["find", files["l3"], files["l4"], "--seed", "7"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["converged"] is True
        state = ul.state_from_json_dict(doc["result"]["state"])
        l3 = ul.observable_from_json_dict(json.load(open(files["l3"])))
        l4 = ul.observable_from_json_dict(json.load(open(files["l4"])))
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

    @pytest.mark.parametrize("flag, value", [
        ("--spread-floor", "nan"), ("--converge-tol", "nan"), ("--penalty-weight", "inf"),
    ])
    def test_non_finite_setting_exits_2(self, files, capsys, flag, value):
        assert main(["find", files["l3"], files["l4"], flag, value]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_unconverged_exits_3(self, files, capsys):
        code = main(["find", files["l3"], files["l4"],
                     "--restarts", "1", "--max-iters", "2", "--seed", "0"])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["converged"] is False

    def test_step_rule_flag_follows_the_finder(self):
        parser = make_parser()
        assert parser.parse_args(["find", "a", "b"]).step_rule == ul.FinderConfig().step_rule
        for rule in finder._STEP_RULES:
            assert parser.parse_args(["find", "a", "b", "--step-rule", rule]).step_rule == rule
        with pytest.raises(SystemExit):
            parser.parse_args(["find", "a", "b", "--step-rule", "newton"])

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
        assert manifest["tool_version"] == ul.__version__ == "0.4.0"

    def test_env_var_provides_seed(self, files, tmp_path, monkeypatch):
        monkeypatch.setenv("UNCERTAINTY_LAB_SEED", "77")
        out = tmp_path / "scan.csv"
        main(["scan", files["l3"], files["l4"], "--samples", "5", "--out", str(out)])
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        assert manifest["seed"] == 77


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
