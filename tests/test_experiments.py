"""Experiment-driver and CLI tests: determinism, schemas, exit codes, goldens."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from haarweight import experiments as ex
from haarweight import operators
from haarweight.cli import main as cli_main
from haarweight.errors import ConfigError

GOLDEN = Path(__file__).parent / "golden"


class TestCounterexamples:
    def test_haar_multiplier_rate_exact(self, tmp_path):
        for alpha in (0.3, 0.5, 0.7):
            rep = ex.run_counterexample("haar-multiplier", {"alpha": alpha, "depth": 20},
                                        str(tmp_path))
            assert rep["passed"]
            assert rep["ratio_max_error"] <= 1e-6
            assert rep["per_level_ratio_target"] == pytest.approx(2.0 ** alpha)

    def test_haar_multiplier_prefactor_discrepancy_reported(self, tmp_path):
        rep = ex.run_counterexample("haar-multiplier", {"alpha": 0.5, "depth": 10}, str(tmp_path))
        assert rep["closed_form_prefactor"] == pytest.approx(2.0)
        assert rep["displayed_prefactor"] == pytest.approx(4.0)

    def test_paraproduct_exponent(self, tmp_path):
        rep = ex.run_counterexample("paraproduct", {"alpha": 0.5, "n_range": [4, 12]},
                                    str(tmp_path))
        assert rep["passed"]
        assert rep["relative_exponent_error"] <= 0.1

    def test_commutator_growth_small(self, tmp_path):
        rep = ex.run_counterexample("commutator", {"alpha": 0.5, "l_range": [4, 8]},
                                    str(tmp_path))
        assert rep["passed"]
        assert rep["strictly_increasing"]

    def test_commutator_growth_certified_only_from_exact(self):
        # L=9, 10 are exact (dim <= 2048), L=11, 12 are Lanczos lower bounds:
        # only a pair whose earlier value is exact proves growth
        rep = ex.run_counterexample("commutator", {"alpha": 0.5, "l_range": [9, 12]})
        assert rep["certified_pairs"] == [[9, 10], [10, 11]]
        assert rep["uncertified_pairs"] == [[11, 12]]
        assert rep["passed"]

    def test_commutator_growth_from_brackets(self, tmp_path):
        # a pair proves growth when upper(L) < lower(L+1); the report keeps
        # the upper bounds and the smallest relative margin
        rep = ex.run_counterexample("commutator", {"alpha": 0.1, "l_range": [4, 8]},
                                    str(tmp_path))
        norms, uppers = rep["norms"], rep["upper_bounds"]
        assert all(n <= u <= n * (1 + 1e-9) for n, u in zip(norms, uppers))
        margins = [b / u - 1.0 for u, b in zip(uppers, norms[1:])]
        assert rep["certified_pairs"] == [[L, L + 1] for L in range(4, 8)]
        assert rep["min_certified_margin"] == min(margins) > 0
        saved = json.loads((tmp_path / "counterexample_commutator_alpha0.1.json").read_text())
        assert saved["min_certified_margin"] == rep["min_certified_margin"]

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigError):
            ex.run_counterexample("haar-multiplier", {"alpha": 1.5})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ex.run_counterexample("unknown", {"alpha": 0.5})


class TestDeterminism:
    def test_counterexample_csv_bit_reproduces(self, tmp_path):
        cfg = {"alpha": 0.3, "n_range": [4, 10]}
        d1, d2 = tmp_path / "a", tmp_path / "b"
        ex.run_counterexample("paraproduct", cfg, str(d1))
        ex.run_counterexample("paraproduct", cfg, str(d2))
        f = "counterexample_paraproduct_alpha0.3.csv"
        assert (d1 / f).read_bytes() == (d2 / f).read_bytes()

    def test_sweep_csv_bit_reproduces(self, tmp_path):
        cfg = {"alphas": [0.3, 0.6], "L": 6, "seed": 5}
        d1, d2 = tmp_path / "a", tmp_path / "b"
        ex.run_sweep("sparse", cfg, str(d1))
        ex.run_sweep("sparse", cfg, str(d2))
        assert (d1 / "sweep_sparse.csv").read_bytes() == (d2 / "sweep_sparse.csv").read_bytes()


class TestGolden:
    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_haar_multiplier_table(self, tmp_path, alpha):
        ex.run_counterexample("haar-multiplier", {"alpha": alpha, "depth": 12}, str(tmp_path))
        name = f"counterexample_haar_multiplier_alpha{alpha:g}.csv"
        assert (tmp_path / name).read_text() == (GOLDEN / name).read_text()

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_paraproduct_table(self, tmp_path, alpha):
        ex.run_counterexample("paraproduct", {"alpha": alpha, "n_range": [4, 10], "L": 12},
                              str(tmp_path))
        name = f"counterexample_paraproduct_alpha{alpha:g}.csv"
        assert (tmp_path / name).read_text() == (GOLDEN / name).read_text()


class TestSweepSmall:
    def test_sparse_sweep_structure(self, tmp_path):
        rep = ex.run_sweep("sparse", {"alphas": [0.2, 0.5, 0.8], "L": 7}, str(tmp_path))
        assert "sparse" in rep["quantities"]
        q = rep["quantities"]["sparse"]
        assert q["fitted_constant"] > 0
        assert (tmp_path / "sweep_sparse.schema.json").exists()
        rows = (tmp_path / "sweep_sparse.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3

    @pytest.mark.parametrize("kind, norms", [("maximal", 0), ("sparse", 1)])
    def test_sweep_computes_only_named_quantities(self, monkeypatch, kind, norms):
        # norms: weighted norms taken per alpha
        calls = []
        real = ex.weighted_operator_norm
        monkeypatch.setattr(ex, "weighted_operator_norm",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        ex.run_sweep(kind, {"L": 5, "alphas": [0.3, 0.6]})
        assert len(calls) == 2 * norms

    def test_one_dense_assembly_per_operator(self, monkeypatch):
        # six operators do not depend on alpha and one is built per alpha, so
        # the sweep pushes the identity through a kernel 6 + 3 times, not
        # 7 times per alpha
        pushes = []
        real_init = operators.Operator.__init__

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            kernel, dim = self.kernel, self.grid.n_leaves * self.n

            def counted(v):
                if (v.shape == self.grid.leaf_shape + (self.n, dim)
                        and np.array_equal(v.reshape(dim, dim), np.eye(dim))):
                    pushes.append(self.name)
                return kernel(v)

            self.kernel = counted

        monkeypatch.setattr(operators.Operator, "__init__", init)
        ex.run_sweep("all", {"L": 5, "alphas": [0.2, 0.5, 0.8]})
        assert len(pushes) == 9, pushes

    def test_comm_quant_rows_match_all(self, tmp_path):
        cfg = {"L": 5, "alphas": [0.3, 0.6]}
        ex.run_sweep("all", cfg, str(tmp_path))
        ex.run_sweep("comm-quant", cfg, str(tmp_path))
        rows_all = (tmp_path / "sweep_all.csv").read_text().splitlines()
        rows_comm = (tmp_path / "sweep_comm-quant.csv").read_text().splitlines()
        names = ("commutator,", "shift,")
        assert len(rows_comm) == 1 + 4
        assert sorted(rows_comm[1:]) == sorted(r for r in rows_all if r.startswith(names))

    def test_unknown_sweep_kind(self):
        with pytest.raises(ConfigError):
            ex.run_sweep("nope", {})


class TestEquivalenceSmall:
    def test_exact_assertions_hold(self, tmp_path):
        rep = ex.run_equivalence({"instances": 25, "L": 4, "seed": 3}, str(tmp_path))
        assert rep["exact_violations"] == 0
        assert rep["passed"]
        assert (tmp_path / "equivalence.csv").exists()


class TestCLI:
    def run(self, *argv):
        return cli_main(list(argv))

    def test_config_error_exit_1(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert self.run("apchar", "--config", str(cfg), "--out", str(tmp_path)) == 1
        # an integer too long for Python's int parser is not a JSONDecodeError
        cfg.write_text('{"L": 1' + "0" * 5000 + "}")
        assert self.run("sweep", "--config", str(cfg), "--out", str(tmp_path)) == 1

    def test_unknown_operator_exit_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"operator": {"op": "bogus"}, "grid": {"d": 1, "L": 3}}))
        assert self.run("opnorm", "--config", str(cfg), "--out", str(tmp_path)) == 1

    @pytest.mark.parametrize("command, cfg", [
        ("apchar", {"p": 1}),
        ("apchar", {"p": 0.5}),
        ("apchar", {"p": "two"}),
        ("apchar", {"weight": {"kind": "random-spd", "seed": 0, "cond": -4}}),
        ("apchar", {"grid": {"d": 3, "L": 2}}),
        ("opnorm", {"p": 1, "operator": {"op": "shift"}}),
        ("stopping", {"p": 0.9}),
        ("sparse", {"p": 1, "weight": {"kind": "identity"}}),
        ("bmo", {"variant": "bogus"}),
        ("bmo", {"variant": "dyadic"}),
        ("sparse", {"density": 0.9}),
        ("opnorm", {"operator": {"op": "shift", "sigma": {"kind": "random", "seed": "x"}}}),
        ("opnorm", {"operator": {"op": "paraproduct",
                                 "symbol": {"kind": "random", "scale": "x"}}}),
        ("sweep", {"L": "x"}),
        ("sweep", {"alphas": [1.0]}),
        ("sweep", {"alphas": [0.5]}),
        ("counterexample", {"kind": "commutator", "alpha": 0.5, "l_range": [4]}),
        ("counterexample", {"kind": "paraproduct", "alpha": 0.5, "n_range": [4, 12], "L": 5}),
        ("counterexample", {"kind": "paraproduct", "alpha": 0.5, "n_range": [8, 8]}),
        ("equivalence", {"instances": "x"}),
        ("stopping", {"lambda1": 0.5}),
        ("apchar", {"weight": {"kind": "identity", "n": 0}}),
        ("apchar", {"weight": {"kind": "diagonal-power", "alphas": []}}),
        ("apchar", {"weight": {"kind": "random-spd", "seed": -1}}),
        ("apchar", {"weight": {"kind": "random-spd", "seed": 1.5}}),
        ("apchar", {"weight": {"kind": "rotated", "alphas": [0.1, 0.2, 0.3], "theta": 0.5}}),
        ("apchar", {"weight": {"kind": "random-spd", "seed": 0, "n": 2.5}}),
        ("apchar", {"weight": {"kind": "identity", "n": True}}),
        ("apchar", {"grid": {"d": 1, "L": 6.5}}),
        ("apchar", {"grid": {"d": True, "L": 6}}),
        ("apchar", {"grid": {"d": 1, "L": 6, "shift": 2}}),
        ("apchar", {"grid": {"d": 1, "L": 6, "shft": 2}}),
        ("apchar", {"grid": {"d": 1}}),
        ("apchar", {"weight": {"kind": "random-spd", "seed": 10 ** 330}}),
        ("apchar", {"weight": {"kind": "scalar-power", "alpha": 10 ** 330}}),
        ("sweep", {"L": 10 ** 330}),
    ], ids=["p=1", "p=0.5", "p-not-a-number", "cond<1", "d=3", "opnorm-p=1",
            "stopping-p<1", "sparse-p=1", "bmo-variant", "bmo-dyadic", "sparse-density",
            "shift-seed", "symbol-scale", "sweep-L", "sweep-alpha=1", "sweep-one-alpha",
            "l_range-length",
            "paraproduct-L<n_range", "paraproduct-one-depth", "equivalence-instances",
            "lambda1<1", "weight-n=0", "weight-no-alphas", "weight-seed<0",
            "weight-seed-1.5", "rotated-3-alphas", "weight-n=2.5", "weight-n-true",
            "grid-L=6.5", "grid-d-true", "grid-shift", "grid-typo", "grid-no-L",
            "seed-1e330", "alpha-1e330", "sweep-L-1e330"])
    def test_bad_config_exit_1(self, tmp_path, capsys, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {"d": 1, "L": 3}, **cfg}))
        assert self.run(command, "--config", str(path), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("grid, weight, lam, want", [
        ({"d": 1, "L": 5}, {"kind": "random-spd", "seed": 5}, 3.0, {
            "bmo": [(0, 0)], "carleson": [(0, 0), (4, 11)], "apchar": [(4, 7), (4, 7)],
            "stopping": [[(0, 0)], [(5, 22)]],
            "sparse": [(0, 0), (1, 0), (2, 1), (3, 2), (4, 4), (5, 9)]}),
        ({"d": 2, "L": 3}, {"kind": "random-spd", "seed": 3}, 2.5, {
            "bmo": [(2, 3, 3)], "carleson": [(0, 0, 0), (2, 1, 0)],
            "apchar": [(2, 3, 0), (2, 3, 0)],
            "stopping": [[(0, 0, 0)], [(3, 1, 3), (3, 2, 4), (3, 3, 3), (3, 5, 4),
                                       (3, 6, 0), (3, 6, 1)]],
            "sparse": [(0, 0, 0), (1, 1, 0), (1, 1, 1), (2, 2, 0), (2, 2, 3), (2, 3, 1),
                       (2, 3, 3), (3, 4, 7), (3, 5, 0), (3, 5, 1), (3, 5, 7), (3, 6, 2),
                       (3, 6, 7), (3, 7, 3), (3, 7, 7)]}),
    ], ids=["d=1", "d=2"])
    def test_cube_records(self, tmp_path, grid, weight, lam, want):
        # every command writes a cube as {"level", "offset"}; the expected cubes
        # were recorded before cubes lost their grid
        def rec(level, *offset):
            return {"level": level, "offset": list(offset)}

        def run(command, **cfg):
            out = tmp_path / command
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps({"grid": grid, "p": 3, **cfg}))
            assert self.run(command, "--config", str(path), "--out", str(out)) == 0
            return out

        got = json.loads((run("bmo", weight=weight, symbol={"kind": "random", "seed": 1})
                          / "bmo.json").read_text())
        assert got["supremizing_cube"] == rec(*want["bmo"][0])
        got = json.loads((run("carleson", weight=weight, p=2, sequence={"kind": "random", "seed": 2})
                          / "carleson.json").read_text())
        assert [got[c]["supremizing_cube"] for c in ("condition_b", "condition_c")] == [
            rec(*c) for c in want["carleson"]]
        got = json.loads((run("apchar", weight=weight, p=1.5) / "apchar.json").read_text())
        assert [got[f"supremizing_cube_{f}"] for f in ("reducing", "integral")] == [
            rec(*c) for c in want["apchar"]]
        lines = (run("stopping", weight=weight, lambda1=lam, lambda2=lam) / "stopping.ndjson").read_text()
        assert [json.loads(line)["cubes"] for line in lines.splitlines()] == [
            [rec(*c) for c in gen] for gen in want["stopping"]]
        got = json.loads((run("sparse", seed=4) / "sparse.json").read_text())
        assert got["cubes"] == [rec(*c) for c in want["sparse"]]

    def test_apchar_oversized_grid_refused(self, tmp_path, capsys):
        # L=16 needs hundreds of GiB of leaf-pair arrays: refused before any work
        import time
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {"d": 1, "L": 16}, "p": 3,
                                    "weight": {"kind": "random-spd", "seed": 0}}))
        start = time.perf_counter()
        assert self.run("apchar", "--config", str(path), "--out", str(tmp_path)) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "GiB" in err
        assert "Traceback" not in err
        assert not (tmp_path / "apchar.json").exists()

    def test_commutator_oversized_range_refused(self, tmp_path, capsys, monkeypatch):
        # L=40's Lanczos bases need petabytes: refused before any operator is built
        import time

        def no_work(*args, **kwargs):
            raise AssertionError("the refusal must come before any work")
        monkeypatch.setattr(ex, "log_swap_symbol", no_work)
        monkeypatch.setattr(ex, "weighted_operator_norm", no_work)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "commutator", "alpha": 0.1, "l_range": [4, 40]}))
        start = time.perf_counter()
        assert self.run("counterexample", "--config", str(path), "--out", str(tmp_path)) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "GiB" in err and "Lanczos" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("counterexample_*"))

    def test_apchar_roundtrip(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "weight": {"kind": "diagonal-power", "alphas": [0.5, -0.5]},
            "grid": {"d": 1, "L": 6}, "p": 2}))
        assert self.run("apchar", "--config", str(cfg), "--out", str(tmp_path)) == 0
        rep = json.loads((tmp_path / "apchar.json").read_text())
        assert rep["characteristic_reducing"] == pytest.approx(4.0 / 3.0, rel=1e-9)
        assert (tmp_path / "apchar.csv").exists()

    def test_opnorm_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "weight": {"kind": "identity"},
            "grid": {"d": 1, "L": 4},
            "operator": {"op": "haar-multiplier", "sequence": {"kind": "constant-swap"}}}))
        assert self.run("opnorm", "--config", str(cfg), "--out", str(tmp_path)) == 0
        rep = json.loads((tmp_path / "opnorm.json").read_text())
        assert rep["kind"] == "exact"
        assert rep["value"] == pytest.approx(1.0, rel=1e-10)

    def test_bmo_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "weight": {"kind": "diagonal-power", "alphas": [0.4, -0.4]},
            "grid": {"d": 1, "L": 5}, "symbol": {"kind": "log-swap"}}))
        assert self.run("bmo", "--config", str(cfg), "--out", str(tmp_path)) == 0

    def test_carleson_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "weight": {"kind": "random-spd", "seed": 4},
            "grid": {"d": 1, "L": 4}, "sequence": {"kind": "random", "seed": 1}}))
        assert self.run("carleson", "--config", str(cfg), "--out", str(tmp_path)) == 0
        rep = json.loads((tmp_path / "carleson.json").read_text())
        assert rep["condition_b"]["value"] > 0

    def test_stopping_command_and_ndjson(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "weight": {"kind": "diagonal-power", "alphas": [0.9, -0.9]},
            "grid": {"d": 1, "L": 10}, "p": 2}))
        assert self.run("stopping", "--config", str(cfg), "--out", str(tmp_path)) == 0
        lines = (tmp_path / "stopping.ndjson").read_text().strip().splitlines()
        gens = [json.loads(l) for l in lines]
        assert gens[0]["measure"] == 1.0
        for g in gens:
            assert g["measure"] <= 2.0 ** (-g["generation"]) + 1e-12

    def test_sparse_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"d": 1, "L": 6}, "seed": 2, "density": 0.5,
            "weight": {"kind": "diagonal-power", "alphas": [0.5, -0.5]}}))
        assert self.run("sparse", "--config", str(cfg), "--out", str(tmp_path)) == 0
        rep = json.loads((tmp_path / "sparse.json").read_text())
        assert rep["weighted_norm"] > 0

    def test_counterexample_command_exit_codes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "haar-multiplier", "alpha": 0.5, "depth": 15}))
        assert self.run("counterexample", "--config", str(cfg), "--out", str(tmp_path)) == 0

    def test_entry_point_subprocess(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "haar-multiplier", "alpha": 0.3, "depth": 8}))
        # the child imports the same package as this process, also when pytest
        # put src/ on sys.path itself rather than through PYTHONPATH
        src = str(Path(ex.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "haarweight.cli", "counterexample",
             "--config", str(cfg), "--out", str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True
