import dataclasses
import json
import math

import numpy as np
import pytest

from chargelab import bounds, cli, optimize
from chargelab.cli import main

TWO_PI = 2.0 * math.pi


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strip_wallclock(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if "wallclock_utc" not in l)


class TestEnergyCommand:
    def test_uniform_circle(self, capsys):
        code, out, _ = _run(capsys, "energy", "--uniform", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "energy"
        assert doc["converged"] is True
        assert doc["energy"] >= math.pi / 18.0
        assert set(doc) == {"version", "command", "seed", "spec",
                            "wallclock_utc", "config", "energy", "err",
                            "evals", "converged", "method"}
        assert doc["spec"] == {"rel_tolerance": 1e-3, "seed": 0,
                               "max_evals": 10_000_000}

    def test_config_file(self, capsys, tmp_path):
        path = tmp_path / "single.json"
        path.write_text(json.dumps({
            "dimension": 2,
            "charges": [{"position": [1.0, 0.0], "weight": 1.0}],
        }))
        code, out, _ = _run(capsys, "energy", "--config", str(path))
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["energy"] - 4.0) <= 0.04

    def test_uniform_sphere(self, capsys):
        code, out, _ = _run(capsys, "energy", "--uniform", "3", "--dim", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "rqmc"
        assert doc["config"]["dimension"] == 3

    def test_csv_format(self, capsys):
        code, out, _ = _run(capsys, "energy", "--uniform", "2",
                            "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        comments = [l for l in lines if l.startswith("# ")]
        assert len(comments) == 5
        assert comments[0].startswith("# version=")
        assert comments[3] == (
            "# spec=max_evals:10000000,rel_tolerance:0.001,seed:0")
        assert comments[4].startswith("# wallclock_utc=")
        header = lines[5]
        assert header == "energy,err,evals,converged,method"
        cells = lines[6].split(",")
        float(cells[0])
        float(cells[1])
        int(cells[2])
        assert cells[3] == "true"
        assert cells[4] == "adaptive"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "e.json"
        code, out, _ = _run(capsys, "energy", "--uniform", "1",
                            "--out", str(path))
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert abs(doc["energy"] - 4.0) <= 0.04


class TestParseErrors:
    def test_no_source(self, capsys):
        assert _run(capsys, "energy")[0] == 2

    def test_two_sources(self, capsys):
        assert _run(capsys, "energy", "--uniform", "2",
                    "--weights", "1,2")[0] == 2

    def test_missing_file(self, capsys):
        assert _run(capsys, "energy", "--config", "/nonexistent/x.json")[0] == 2

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert _run(capsys, "energy", "--config", str(path))[0] == 2

    def test_bad_weights(self, capsys):
        assert _run(capsys, "energy", "--weights", "1,x")[0] == 2
        assert _run(capsys, "energy", "--weights", "1,-2")[0] == 2

    def test_weights_need_planar(self, capsys):
        assert _run(capsys, "energy", "--weights", "1,2", "--dim", "3")[0] == 2

    def test_uniform_needs_positive_count(self, capsys):
        assert _run(capsys, "energy", "--uniform", "0")[0] == 2

    def test_uniform_dim_guard(self, capsys):
        assert _run(capsys, "energy", "--uniform", "2", "--dim", "4")[0] == 2

    def test_dim_conflicts_with_config(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "dimension": 2,
            "charges": [{"position": [0.5, 0.0], "weight": 1.0}],
        }))
        assert _run(capsys, "energy", "--config", str(path),
                    "--dim", "3")[0] == 2

    def test_bad_rel_tol(self, capsys):
        assert _run(capsys, "energy", "--uniform", "1",
                    "--rel-tol", "0.9")[0] == 2

    def test_bad_max_evals(self, capsys):
        assert _run(capsys, "energy", "--uniform", "1",
                    "--max-evals", "10")[0] == 2

    def test_unknown_command(self, capsys):
        assert _run(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("argv", [
        ("lemma-suite", "--trials", "10"),
        ("optimize", "--weights", "1,1", "--budget", "100"),
        ("verify-all",),
    ], ids=["lemma-suite", "optimize", "verify-all"])
    def test_csv_rejected_by_json_only_commands(self, capsys, argv):
        # these commands have no table to write, so --format is not an option
        code, out, err = _run(capsys, *argv, "--format", "csv")
        assert code == 2
        assert out == ""
        assert "--format" in err

    def test_optimize_low_budget(self, capsys):
        assert _run(capsys, "optimize", "--weights", "1,1",
                    "--budget", "50")[0] == 2


class TestBoundsCommand:
    def test_weighted_arcs_json(self, capsys):
        code, out, _ = _run(capsys, "bounds", "--weights", "1,2,4")
        assert code == 0
        doc = json.loads(out)
        rep = doc["report"]
        assert "upper_budget" in rep
        assert "lower_newman" not in rep
        assert rep["verdicts"]["upper_budget"] == "holds"
        assert rep["verdicts"]["lower_theorem11"] == "holds"

    def test_unconverged_budget_exits_3(self, capsys):
        # the energy converges; the budget of eight arc lengths does not
        code, out, _ = _run(capsys, "bounds", "--weights", "1,2,3,4,5,6,7,8",
                            "--max-evals", "20000")
        assert code == 3
        rep = json.loads(out)["report"]
        assert rep["verdicts"]["upper_budget"] == "inconclusive"

    def test_budget_beyond_max_evals_exits_2(self, capsys):
        # max_evals bounds the whole budget: 64 arc lengths start with more
        # cells than 1.5e5 evals cover, though the energy's fit
        weights = ",".join(str(k) for k in range(1, 65))
        code, _, err = _run(capsys, "bounds", "--weights", weights,
                            "--max-evals", "150000")
        assert code == 2
        assert "initial decomposition" in err

    def test_violation_outranks_nonconvergence(self, capsys, monkeypatch):
        real = cli.make_bound_report

        def violated(cfg, spec, partition=None):
            rep = real(cfg, spec, partition=partition)
            return dataclasses.replace(
                rep, verdicts={**rep.verdicts, "lower_theorem11": "violated"})

        monkeypatch.setattr(cli, "make_bound_report", violated)
        # the budget of test_unconverged_budget_exits_3, plus a violation
        assert _run(capsys, "bounds", "--weights", "1,2,3,4,5,6,7,8",
                    "--max-evals", "20000")[0] == 1

    def test_uniform_csv_columns(self, capsys):
        code, out, _ = _run(capsys, "bounds", "--uniform", "2",
                            "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[5] == ("energy,err,A,B,G,ratio_lower,ratio_upper,"
                            "lower_newman,lower_theorem11,upper_budget,"
                            "lemma41_lhs")
        cells = lines[6].split(",")
        assert len(cells) == 11
        assert cells[7] == f"{math.pi / 18.0:.17g}"
        assert cells[9] == ""  # no partition, no budget

    def test_negative_weight_config_rejected(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({
            "dimension": 2,
            "charges": [{"position": [0.5, 0.0], "weight": 1.0},
                        {"position": [0.0, 0.5], "weight": -1.0}],
        }))
        assert _run(capsys, "bounds", "--config", str(path))[0] == 2


class TestSweeps:
    def test_defect_csv(self, capsys):
        code, out, _ = _run(capsys, "defect-sweep", "--levels", "3",
                            "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[5] == "l,defect,defect_over_l"
        rows = [l.split(",") for l in lines[6:]]
        assert len(rows) == 4
        assert float(rows[0][0]) == pytest.approx(TWO_PI)
        assert float(rows[0][1]) == pytest.approx(4.0, abs=1e-3)
        for a, b in zip(rows, rows[1:]):
            assert float(b[0]) == pytest.approx(0.5 * float(a[0]))

    def test_defect_json_rows_carry_err(self, capsys):
        code, out, _ = _run(capsys, "defect-sweep", "--levels", "1")
        assert code == 0
        doc = json.loads(out)
        assert all(set(r) == {"l", "defect", "defect_over_l", "err"}
                   for r in doc["rows"])

    def test_defect_levels_guard(self, capsys):
        assert _run(capsys, "defect-sweep", "--levels", "-1")[0] == 2

    def test_prop14_rows(self, capsys):
        code, out, _ = _run(capsys, "prop14-sweep", "--levels", "4")
        assert code == 0
        doc = json.loads(out)
        deltas = [r["delta"] for r in doc["rows"]]
        assert deltas == [0.25, 0.125, 0.0625]
        assert all(r["normalized"] > 0 for r in doc["rows"])

    def test_prop14_levels_guard(self, capsys):
        assert _run(capsys, "prop14-sweep", "--levels", "1")[0] == 2

    def test_json_deterministic_modulo_wallclock(self, capsys):
        _, out1, _ = _run(capsys, "defect-sweep", "--levels", "2")
        _, out2, _ = _run(capsys, "defect-sweep", "--levels", "2")
        assert _strip_wallclock(out1) == _strip_wallclock(out2)


class TestLemmaSuite:
    def test_small_run(self, capsys):
        code, out, _ = _run(capsys, "lemma-suite", "--trials", "2000")
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 2000
        for key in ("d2", "d3"):
            assert doc["suites"][key]["pass"] is True
            assert doc["suites"][key]["dominance_failures"] == 0

    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        # a margin just past the pass rule's 1e-12 slack fails the suite
        monkeypatch.setattr(bounds, "run_ratio_suite",
                            lambda trials, d, seed: 1e-9)
        code, out, _ = _run(capsys, "lemma-suite", "--trials", "2000")
        assert code == 1
        assert json.loads(out)["suites"]["d2"]["pass"] is False

    def test_trials_guard(self, capsys):
        assert _run(capsys, "lemma-suite", "--trials", "0")[0] == 2


class TestOptimizeCommand:
    def test_pair_with_trace(self, capsys, tmp_path):
        out_path = tmp_path / "opt.json"
        code, _, _ = _run(capsys, "optimize", "--weights", "1,1",
                          "--budget", "150", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["dimension"] == 2
        assert doc["run"]["stop_reason"] in ("budget", "converged")
        assert doc["converged"] is True
        assert doc["best_energy"] <= 5.2
        trace_path = tmp_path / "opt.trace.jsonl"
        assert trace_path.exists()
        rows = [json.loads(l) for l in trace_path.read_text().splitlines()]
        assert rows
        assert all(set(r) == {"iter", "angles_or_points", "energy", "err"}
                   for r in rows)

    def test_unconverged_energy_exits_3(self, capsys, monkeypatch, tmp_path):
        energy = optimize.chui_energy

        def unconverged(config, spec):
            return dataclasses.replace(energy(config, spec), converged=False)

        monkeypatch.setattr(optimize, "chui_energy", unconverged)
        out_path = tmp_path / "opt.json"
        code, _, _ = _run(capsys, "optimize", "--weights", "1,1",
                          "--budget", "100", "--out", str(out_path))
        assert code == 3
        assert json.loads(out_path.read_text())["converged"] is False


class TestVerifyAll:
    def test_passes_and_reports(self, capsys, tmp_path):
        out_path = tmp_path / "verify.json"
        code, _, err = _run(capsys, "verify-all", "--seed", "1",
                            "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["violations"] == 0
        names = {c["name"] for c in doc["checks"]}
        assert "oracle:single-d2" in names
        assert "suites:lemmas" in names
        assert "optimize:pair-gap" in names
        assert all(c["status"] == "pass" for c in doc["checks"])
        assert doc["tv_ratio_infimum"] > 0
        assert "[verify-all]" in err

    def test_unconverged_oracle_exits_3(self, capsys, monkeypatch, tmp_path):
        # an oracle energy that misses its tolerance fails the run's
        # convergence, though its value still passes the check
        energy = cli.chui_energy

        def unconverged(config, spec=None):
            return dataclasses.replace(energy(config, spec), converged=False)

        monkeypatch.setattr(cli, "chui_energy", unconverged)
        out_path = tmp_path / "verify.json"
        code, _, _ = _run(capsys, "verify-all", "--seed", "1",
                          "--out", str(out_path))
        assert code == 3
        assert json.loads(out_path.read_text())["violations"] == 0

    # the optimizer smoke's search runs at the spec's 1e-3, its certificate
    # at 1e-5
    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-5],
                             ids=["search", "certificate"])
    def test_unconverged_optimizer_exits_3(self, capsys, monkeypatch,
                                           tmp_path, rel_tol):
        energy = optimize.chui_energy

        def unconverged(config, spec):
            res = energy(config, spec)
            return dataclasses.replace(
                res, converged=res.converged and spec.rel_tolerance != rel_tol)

        monkeypatch.setattr(optimize, "chui_energy", unconverged)
        out_path = tmp_path / "verify.json"
        code, _, _ = _run(capsys, "verify-all", "--seed", "1",
                          "--out", str(out_path))
        assert code == 3
        assert json.loads(out_path.read_text())["violations"] == 0
