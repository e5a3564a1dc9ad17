"""Experiment-driver and CLI tests: determinism, schemas, exit codes, goldens."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from haarweight import cli
from haarweight import experiments as ex
from haarweight import operators
from haarweight.cli import main as cli_main
from haarweight.errors import ConfigError
from haarweight.memory import LEAF_ARRAY_BYTES, leaf_count

GOLDEN = Path(__file__).parent / "golden"


class TestCounterexamples:
    def test_haar_multiplier_rate_exact(self, tmp_path):
        for alpha in (0.3, 0.5, 0.7):
            rep = ex.run_counterexample("haar-multiplier", {"alpha": alpha, "depth": 20},
                                        str(tmp_path))
            assert rep["passed"]
            assert rep["ratio_max_error"] <= 1e-6
            assert rep["per_level_ratio_target"] == pytest.approx(2.0 ** alpha)

    def test_haar_multiplier_log2_columns_stay_finite(self, tmp_path):
        # at alpha 0.99 and depth 1022 the run passes while criterion_norm and
        # displayed_value overflow to inf; their log2 columns, computed in log
        # space, stay finite and agree with them wherever they are finite
        rep = ex.run_counterexample("haar-multiplier", {"alpha": 0.99, "depth": 1022},
                                    str(tmp_path))
        assert rep["passed"]
        with open(tmp_path / "counterexample_haar_multiplier_alpha0.99.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1023
        for col, inf_cells in (("criterion_norm", 509), ("displayed_value", 2)):
            values = np.array([float(r[col]) for r in rows])
            logs = np.array([float(r["log2_" + col]) for r in rows])
            assert np.isinf(values).sum() == inf_cells and np.isfinite(logs).all()
            finite = np.isfinite(values)
            assert np.allclose(np.log2(values[finite]), logs[finite], rtol=1e-14, atol=1e-14)

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
        # five operators do not depend on alpha and one is built per alpha,
        # and the dual paraproduct's norm is the paraproduct's under the
        # sweep's weights, so the sweep pushes an identity (the vector one
        # through a kernel, or the scalar one for q) 5 + 3 times, not 7
        # times per alpha; every push goes through ``_identity_image``,
        # counted here with the operator whose blocks asked for it
        pushes, building = [], []
        real_init, real_image = operators.Operator.__init__, operators._identity_image

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            blocks = self.blocks

            def counted():
                building.append(self.name)
                try:
                    return blocks()
                finally:
                    building.pop()
            self.blocks = counted

        def image(fn, shape):
            pushes.append(building[-1])
            return real_image(fn, shape)

        monkeypatch.setattr(operators.Operator, "__init__", init)
        monkeypatch.setattr(operators, "_identity_image", image)
        ex.run_sweep("all", {"L": 5, "alphas": [0.2, 0.5, 0.8]})
        assert len(pushes) == 8, pushes
        assert pushes.count("paraproduct") == 1

    def test_dual_paraproduct_norm_is_reused_only_by_symmetry(self, monkeypatch):
        # the log-swap symbol under diag(x^a, x^-a) reuses ||pi_B|| on L^2(W)
        # for ||pi_{B^T}|| on L^2(W^{-1}), within 4 ulps of the computed
        # value; a random symbol, a symmetric one that the swap does not fix
        # or a rotated weight computes it
        from haarweight.dyadic import Grid
        from haarweight.weights import MatrixWeight, power_of
        g = Grid(1, 8)
        B = ex.log_swap_symbol(g)
        Ws = [MatrixWeight.diagonal_power([a, -a]) for a in (0.1, 0.5, 0.9)]
        pi_w = [ex.weighted_operator_norm(operators.paraproduct_op(B), W, 2.0).value for W in Ws]
        computed = [ex.weighted_operator_norm(operators.paraproduct_op(B.transpose()),
                                              power_of(W, -1.0), 2.0).value for W in Ws]
        calls = []
        real = ex.weighted_operator_norm
        monkeypatch.setattr(ex, "weighted_operator_norm",
                            lambda *a, **k: calls.append(a[1]) or real(*a, **k))
        reused = ex._dual_paraproduct_norms(B, Ws, pi_w)
        assert calls == [] and reused == pi_w
        for r, c in zip(reused, computed):
            assert abs(r - c) <= 4 * np.spacing(c)
        rng = np.random.default_rng(5)
        random_symbol = operators.MatrixSymbol.from_values(
            g, rng.standard_normal(g.leaf_shape + (2, 2)))
        symmetric_symbol = operators.MatrixSymbol.from_values(
            g, random_symbol.step.values + random_symbol.step.values.swapaxes(-1, -2))
        rotated = [MatrixWeight.rotated_power([0.3, -0.3], 0.4), Ws[1],
                   MatrixWeight.diagonal_power([0.3, -0.2])]
        for symbol, weights, computes in ((random_symbol, Ws, [0, 1, 2]),
                                          (symmetric_symbol, Ws, [0, 1, 2]),
                                          (B, rotated, [0, 2])):
            calls.clear()
            fake = [-1.0] * len(weights)
            got = ex._dual_paraproduct_norms(symbol, weights, fake)
            assert [i for i, v in enumerate(got) if v != -1.0] == computes
            assert len(calls) == len(computes)

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

    def test_default_run_keeps_the_c_le_nb_counterexamples(self, tmp_path):
        # at its defaults (200 instances, L = 5, seed 0) the command fails only
        # c <= n b, which is not a theorem (ROADMAP item 1), and at exactly
        # these instances; every (c) form stays below its embedding norm
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        assert cli_main(["equivalence", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert json.loads((tmp_path / "equivalence.json").read_text())["exact_violations"] == 4
        with open(tmp_path / "equivalence.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200 and {r["c_le_norm"] for r in rows} == {"1"}
        over = {int(r["instance"]): round(float(r["cond_c"]) / (2 * float(r["cond_b"])), 3)
                for r in rows if r["c_le_n_b"] == "0"}
        assert over == {44: 1.370, 58: 1.630, 101: 1.128, 193: 1.026}


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
        ("opnorm", {"p": 1, "operator": {"op": "shift"}}),
        ("stopping", {"p": 0.9}),
        ("sparse", {"p": 1, "weight": {"kind": "identity"}}),
        ("bmo", {"variant": "bogus"}),
        ("bmo", {"variant": "dyadic"}),
        ("sparse", {"density": 0.9}),
        ("opnorm", {"operator": {"op": "shift", "sigma": {"kind": "random", "seed": "x"}}}),
        ("opnorm", {"operator": {"op": "shift", "sigma": {"kind": "right-child"}}}),
        ("opnorm", {"operator": {"op": "shift", "sigma": "random"}}),
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
        ("apchar", {"p": 10 ** 330}),
        ("opnorm", {"p": "3", "operator": {"op": "shift"}}),
        ("apchar", {"weight": {"kind": "scalar-power", "alpha": 1.5}}),
        ("opnorm", {"p": 1.5, "operator": {"op": "shift"},
                    "weight": {"kind": "diagonal-power", "alphas": [0.9, -0.9]}}),
        ("opnorm", {"operator": {"op": "shift"},
                    "weight": {"kind": "diagonal-power", "alphas": [800, 0.5]}}),
        ("equivalence", {"instances": 0}),
        ("sweep", {"alphas": [0.1, 0.1]}),
        ("sweep", {"kind": "sparse", "alphas": [0.1, -0.1], "L": 4}),
        ("sweep", {"kind": "all", "alphas": [0.5, -0.5], "L": 6}),
    ], ids=["p=1", "p=0.5", "p-not-a-number", "cond<1", "opnorm-p=1",
            "stopping-p<1", "sparse-p=1", "bmo-variant", "bmo-dyadic", "sparse-density",
            "shift-seed", "shift-kind", "shift-string", "symbol-scale", "sweep-L",
            "sweep-alpha=1", "sweep-one-alpha", "l_range-length",
            "paraproduct-L<n_range", "paraproduct-one-depth", "equivalence-instances",
            "lambda1<1", "weight-n=0", "weight-no-alphas", "weight-seed<0",
            "weight-seed-1.5", "rotated-3-alphas", "weight-n=2.5", "weight-n-true",
            "grid-L=6.5", "grid-d-true", "grid-shift", "grid-typo", "grid-no-L",
            "seed-1e330", "alpha-1e330", "sweep-L-1e330", "p-1e330", "p-a-string",
            "alpha-not-integrable", "p-power-not-integrable", "alpha-average-underflows",
            "equivalence-no-instances",
            "sweep-one-distinct-alpha", "sweep-sparse-swap-conjugates",
            "sweep-all-swap-conjugates"])
    def test_bad_config_exit_1(self, tmp_path, capsys, command, cfg):
        path = tmp_path / "cfg.json"
        # sweep and equivalence read no grid, so a grid field would be refused
        # on its own
        grid = {} if command in ("sweep", "equivalence") else {"grid": {"d": 1, "L": 3}}
        path.write_text(json.dumps({**grid, **cfg}))
        assert self.run(command, "--config", str(path), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["apchar", "stopping"])
    @pytest.mark.parametrize("weight", [{"kind": "rotated", "alphas": [0.3, -0.2], "theta": 0.5},
                                        {"kind": "scalar-power", "alpha": -0.3}],
                             ids=["rotated", "scalar-negative"])
    def test_overflow_near_p1_exit_1(self, tmp_path, capsys, command, weight):
        # at p = 1.001 the dual exponent is p' = 1001: under the rotated
        # weight the dual gauge's power overflows, and under x^-0.3 the A_p
        # double average's (apchar) and the threshold lambda2's n^p'
        # (stopping).  The run ends in exit 1 that names p and the power,
        # and writes no output with an Infinity in it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {"d": 1, "L": 3}, "p": 1.001, "weight": weight}))
        assert self.run(command, "--config", str(path), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "overflows at p = 1.001" in err
        assert "power 1001" in err and "Traceback" not in err
        assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command", ["apchar", "stopping"])
    def test_gauge_underflow_near_p1_exit_1(self, tmp_path, capsys, command):
        # at p = 1.0001 the dual gauge's power p' = 10001 takes the cube
        # means of |x|^0.6 (W^{-2/p} of x^-0.3) near 0 to 0, whose boundary
        # point 1/rho the Lowner solve cannot take: exit 1, no output
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {"d": 1, "L": 3}, "p": 1.0001,
                                    "weight": {"kind": "scalar-power", "alpha": -0.3}}))
        assert self.run(command, "--config", str(path), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: the dual gauge underflows at p = 1.0001")
        assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]

    def test_positive_exponents_are_integrable(self, tmp_path, capsys):
        # diag(|x|^1.5, |x|^0.5) is in A_3: the shift's norm at p = 3 reads
        # W^{2/3} and runs; apchar and stopping also read the leaf model's
        # dual gauge W^{-2/3}, whose |x|^-1 is not integrable near 0
        weight = {"kind": "diagonal-power", "alphas": [1.5, 0.5]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {"d": 1, "L": 6}, "p": 3, "weight": weight,
                                    "operator": {"op": "shift"}}))
        assert self.run("opnorm", "--config", str(path), "--out", str(tmp_path / "out")) == 0
        out = json.loads((tmp_path / "out" / "opnorm.json").read_text())
        assert out["kind"] == "lower-bound" and out["value"] == pytest.approx(1.40944, rel=1e-5)
        capsys.readouterr()
        path.write_text(json.dumps({"grid": {"d": 1, "L": 6}, "p": 3, "weight": weight}))
        for command in ("apchar", "stopping"):
            assert self.run(command, "--config", str(path), "--out", str(tmp_path / command)) == 1
            err = capsys.readouterr().err
            assert err == "config error: |x|^-1 is not cell-integrable (s*alpha <= -1)\n"

    def test_apchar_d3_is_the_library_value(self, tmp_path):
        # apchar runs at d = 3 and writes ap_characteristic's record, which
        # test_weights checks against a brute-force double average
        from haarweight.dyadic import Grid
        from haarweight.weights import MatrixWeight, ap_characteristic
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {"d": 3, "L": 2}, "p": 1.5, "weight": {
            "kind": "rotated", "alphas": [0.4, -0.3], "theta": 0.7}}))
        assert self.run("apchar", "--config", str(path), "--out", str(tmp_path)) == 0
        rep = ap_characteristic(MatrixWeight.rotated_power([0.4, -0.3], 0.7), 1.5, Grid(3, 2))
        assert json.loads((tmp_path / "apchar.json").read_text()) == json.loads(
            json.dumps(rep.record()))

    @pytest.mark.parametrize("command, n", [("opnorm", 3), ("carleson", 1), ("bmo", 3),
                                            ("bmo", 1), ("sparse", 3)])
    def test_weight_not_2x2_refused(self, tmp_path, capsys, command, n):
        # every symbol, sequence and operator these commands build is 2 x 2
        # (only opnorm reads an operator field; the others refuse it)
        path = tmp_path / "cfg.json"
        operator = {"operator": {"op": "shift"}} if command == "opnorm" else {}
        path.write_text(json.dumps({"grid": {"d": 1, "L": 4}, **operator,
                                    "weight": {"kind": "random-spd", "seed": 1, "n": n}}))
        assert self.run(command, "--config", str(path), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"got n = {n}" in err
        assert "Traceback" not in err
        assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]

    def test_unweighted_bmo_reads_no_weight(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {"d": 1, "L": 4}, "variant": "unweighted",
                                    "weight": {"kind": "random-spd", "seed": 1, "n": 3}}))
        assert self.run("bmo", "--config", str(path), "--out", str(tmp_path)) == 0

    def test_shift_spec_forms(self, tmp_path):
        # a bare "left-child", its object form and an absent sigma are one shift
        outs = []
        for sigma in ["left-child", {"kind": "left-child"}, None, {"kind": "random", "seed": 3}]:
            op = {"op": "commutator"} if sigma is None else {"op": "commutator", "sigma": sigma}
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"grid": {"d": 1, "L": 5}, "operator": op,
                                        "weight": {"kind": "diagonal-power",
                                                   "alphas": [0.3, -0.3]}}))
            assert self.run("opnorm", "--config", str(path), "--out", str(tmp_path)) == 0
            outs.append((tmp_path / "opnorm.json").read_text())
        assert outs[0] == outs[1] == outs[2] != outs[3]

    def test_zero_operator_at_p_not_2_has_a_witness(self, tmp_path):
        # a zero operator leaves the power method at its start vector, which
        # is the witness of the value 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"p": 3, "grid": {"d": 1, "L": 4}, "operator": {
            "op": "paraproduct", "symbol": {"kind": "random", "scale": 0}}}))
        assert self.run("opnorm", "--config", str(path), "--out", str(tmp_path)) == 0
        out = json.loads((tmp_path / "opnorm.json").read_text())
        assert out["value"] == 0.0 and out["details"]["iterations"] == 0
        assert len(out["witness"]) == 32 and any(out["witness"])

    @pytest.mark.parametrize("command", ["opnorm", "bmo"])
    def test_log_symbols_refused_off_d1(self, tmp_path, capsys, command):
        # log x is a symbol on [0, 1): on a d=2 grid it is a config error
        # (exit 1), not a shape error from the operator (exit 2)
        path = tmp_path / "cfg.json"
        field = ({"operator": {"op": "paraproduct", "symbol": {"kind": "scalar-log"}}}
                 if command == "opnorm" else {"symbol": {"kind": "log-swap"}})
        path.write_text(json.dumps({"grid": {"d": 2, "L": 3}, **field}))
        assert self.run(command, "--config", str(path), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "d = 1 only, got d = 2" in err
        assert not (tmp_path / "diagnostics.json").exists()

    # configs shaped like the benchmark's, at a small L, that still run once
    # a config with an unknown field is refused; a sweep-type command runs
    # the sweep's
    ROTATED = {"kind": "rotated", "alphas": [0.4, -0.3], "theta": 0.7}
    RUNS = {
        "sweep": {"kind": "sparse", "L": 3, "alphas": [0.1, 0.5], "seed": 0},
        "apchar": {"weight": ROTATED, "grid": {"d": 1, "L": 3}, "p": 1.5},
        "stopping": {"weight": ROTATED, "grid": {"d": 1, "L": 3}, "p": 3},
        "counterexample": {"kind": "commutator", "alpha": 0.1, "l_range": [2, 3]},
        "opnorm": {"grid": {"d": 1, "L": 3}, "operator": {"op": "shift"}, "p": 2, "seed": 0},
        "bmo": {"grid": {"d": 1, "L": 3}, "variant": "dual", "symbol": {"kind": "random"}},
        "carleson": {"grid": {"d": 1, "L": 3}, "p": 2, "sequence": {"kind": "random"}},
        "sparse": {"grid": {"d": 1, "L": 3}, "weight": {"kind": "identity"}, "p": 2,
                   "density": 0.5, "seed": 0},
    }

    @pytest.mark.parametrize("command, cfg, unknown", [
        ("maximal", {"grid": {"d": 2, "L": 3}, "weight": {"kind": "identity"}},
         "'grid', 'weight'"),
        ("maximal", {"kind": "all"}, "'kind'"),
        ("sweep", {"kind": "sparse", "L": 3, "weight": {"kind": "identity"}}, "'weight'"),
        ("equivalence", {"instance": 3, "grid": {"L": 3}}, "'alphas', 'grid', 'instance'"),
        ("apchar", {"bogus": 1}, "'alphas', 'bogus'"),
        ("opnorm", {"operator": {"op": "shift"}, "symbol": {}}, "'alphas', 'symbol'"),
        ("bmo", {"variant": "dual", "sequence": {}}, "'alphas', 'sequence'"),
        ("carleson", {"lambda1": 2.0}, "'alphas', 'lambda1'"),
        ("stopping", {"lamda1": 2.0}, "'alphas', 'lamda1'"),
        ("sparse", {"p": 1.5}, "'alphas', 'p'"),
        ("counterexample", {"kind": "haar-multiplier", "alpha": 0.5, "depht": 5},
         "'alphas', 'depht'"),
    ], ids=["maximal-grid-weight", "maximal-kind", "sweep-weight", "equivalence-instance-grid",
            "apchar-bogus", "opnorm-symbol", "bmo-sequence", "carleson-lambda1",
            "stopping-lamda1", "sparse-p-without-weight", "counterexample-depht"])
    def test_sweep_refuses_unknown_fields(self, tmp_path, capsys, command, cfg, unknown):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alphas": [0.1, 0.5], **cfg}))
        assert self.run(command, "--config", str(path), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.rstrip().endswith("unknown: " + unknown)
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.glob("*.csv"))
        runs = command if command in self.RUNS else "sweep"
        path.write_text(json.dumps(self.RUNS[runs]))
        assert self.run(runs, "--config", str(path), "--out", str(tmp_path)) == 0

    @pytest.mark.parametrize("cfg, unknown", [
        ({"weight": {"kind": "diagonal-power", "alphas": [0.1, -0.1], "thet": 1}}, "'thet'"),
        ({"operator": {"op": "commutator", "sigmaa": {"kind": "random"}}}, "'sigmaa'"),
        ({"operator": {"op": "paraproduct", "symbol": {"kind": "random", "scal": 2}}}, "'scal'"),
        ({"operator": {"op": "haar-multiplier", "sequence": {"kind": "random", "sed": 1}}},
         "'sed'"),
        ({"operator": {"op": "shift", "sigma": {"kind": "random", "seeed": 3}}}, "'seeed'"),
    ], ids=["weight", "operator", "symbol", "sequence", "sigma"])
    def test_nested_spec_refuses_unknown_fields(self, tmp_path, capsys, cfg, unknown):
        # a misspelt field of a nested spec is refused (exit 1) instead of
        # running its default; the spec without it runs
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {"d": 1, "L": 3}, "operator": {"op": "shift"},
                                    **cfg}))
        assert self.run("opnorm", "--config", str(path), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.rstrip().endswith("unknown: " + unknown)
        assert not (tmp_path / "opnorm.json").exists()
        drop = lambda s: {k: drop(v) if isinstance(v, dict) else v for k, v in s.items()
                          if k != unknown.strip("'")}
        path.write_text(json.dumps(drop(json.loads(path.read_text()))))
        assert self.run("opnorm", "--config", str(path), "--out", str(tmp_path)) == 0

    @pytest.mark.parametrize("command, cfg", [
        ("apchar", [1, 2]),
        ("bmo", {"symbol": "log-swap"}),
        ("opnorm", {"operator": "paraproduct"}),
        ("opnorm", {"operator": {"op": "haar-multiplier", "sequence": 3}}),
        ("carleson", {"sequence": "random"}),
        ("sweep", {"kind": [1], "L": 3, "alphas": [0.1, 0.5]}),
    ], ids=["top-level-array", "symbol-string", "operator-string", "sequence-number",
            "sequence-string", "sweep-kind-list"])
    def test_malformed_section_exit_1(self, tmp_path, capsys, command, cfg):
        # a section that is not an object, or a kind that is not a string, is
        # a config error, not an AttributeError or TypeError
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
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
            # sparse reads p only with a weight, and refuses it without one
            p = {} if command == "sparse" else {"p": 3}
            path.write_text(json.dumps({"grid": grid, **p, **cfg}))
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
        # L=26 needs hundreds of GiB of reducing pyramid and leaf arrays:
        # refused before any work
        import time
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {"d": 1, "L": 26}, "p": 3,
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

    @pytest.mark.parametrize("alpha, depth", [
        (0.3, 1075), (0.99, 1074), (0.99, 1030), (0.999999, 1022),
    ], ids=["h-zero", "h-underflow", "h-subnormal", "u2-overflow"])
    def test_haar_multiplier_past_the_float_range_refused(self, tmp_path, capsys, alpha, depth):
        # past a normal 2^-depth or a finite 2^(alpha depth) / (1 - alpha) the
        # closed form raises or its ratio check fails falsely: refused instead
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "haar-multiplier", "alpha": alpha, "depth": depth}))
        assert self.run("counterexample", "--config", str(path), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not list(tmp_path.glob("counterexample_*"))

    def test_haar_multiplier_deepest_normal_depth_runs(self, tmp_path):
        # 2^-1022 is the smallest normal float, and u2 is still finite
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "haar-multiplier", "alpha": 0.99, "depth": 1022}))
        assert self.run("counterexample", "--config", str(path), "--out", str(tmp_path)) == 0

    @pytest.mark.parametrize("command, cfg", [
        ("maximal", {"L": 40}),
        ("sweep", {"kind": "all", "L": 40}),
        ("sweep", {"kind": "sparse", "L": 40}),
        ("maximal", {"L": 10 ** 300}),
    ], ids=["maximal", "sweep-all", "sweep-norms-only", "maximal-L1e300"])
    def test_sweep_oversized_grid_refused(self, tmp_path, capsys, monkeypatch, command, cfg):
        # L=40's per-level leaf arrays and Lanczos bases need petabytes: refused
        # before any reducing pyramid is built
        import time

        def no_work(*args, **kwargs):
            raise AssertionError("the refusal must come before any work")
        monkeypatch.setattr(ex, "reducing_pyramid", no_work)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alphas": [0.1, 0.5], **cfg}))
        start = time.perf_counter()
        assert self.run(command, "--config", str(path), "--out", str(tmp_path)) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "GiB" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("sweep_*"))

    @pytest.mark.parametrize("command, cfg, module, work", [
        ("opnorm", {"grid": {"d": 1, "L": 40}, "operator": {"op": "shift"}}, cli, "Grid"),
        ("opnorm", {"grid": {"d": 1, "L": 30}, "p": 3, "operator": {"op": "shift"}}, cli, "Grid"),
        ("opnorm", {"grid": {"d": 1, "L": 20}, "operator": {"op": "shift"}},
         cli, "build_operator"),
        ("bmo", {"grid": {"d": 1, "L": 40}}, cli, "Grid"),
        ("stopping", {"grid": {"d": 1, "L": 40}}, cli, "Grid"),
        ("sparse", {"grid": {"d": 1, "L": 40}}, cli, "Grid"),
        ("carleson", {"grid": {"d": 1, "L": 40}}, cli, "Grid"),
        ("equivalence", {"L": 40, "instances": 1}, ex, "Grid"),
        ("counterexample", {"kind": "paraproduct", "alpha": 0.3, "n_range": [4, 40]}, ex, "Grid"),
        ("apchar", {"grid": {"d": 10 ** 15, "L": 1}, "p": 3}, cli, "Grid"),
        ("apchar", {"grid": {"d": 1, "L": 10 ** 300}, "p": 3}, cli, "Grid"),
    ], ids=["opnorm-L40", "opnorm-p3-L30", "opnorm-lanczos-L20", "bmo", "stopping", "sparse",
            "carleson", "equivalence", "paraproduct", "apchar-d1e15", "apchar-L1e300"])
    def test_oversized_grid_refused(self, tmp_path, capsys, monkeypatch, command, cfg, module,
                                    work):
        # with 8 GiB of memory each of these needs more for its leaf arrays
        # (LEAF_ARRAY_BYTES per leaf) or for its Lanczos bases: refused before
        # any work
        def no_work(*args, **kwargs):
            raise AssertionError("the refusal must come before any work")
        monkeypatch.setattr(module, work, no_work)
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 << 20}
        monkeypatch.setattr(ex.os, "sysconf", pages.get)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert self.run(command, "--config", str(path), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "GiB" in err and "than the 8 GiB" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cfg, module, work", [
        ("bmo", {"variant": "primal"}, cli, "build_symbol"),
        ("bmo", {"variant": "dual"}, cli, "build_symbol"),
        ("bmo", {"variant": "unweighted"}, cli, "build_symbol"),
        ("carleson", {}, cli, "build_sequence"),
        ("stopping", {"p": 2}, cli, "stopping_time_tree"),
        ("stopping", {"p": 3}, cli, "stopping_time_tree"),
        ("equivalence", {"instances": 1}, ex, "Grid"),
    ], ids=["bmo-primal", "bmo-dual", "bmo-unweighted", "carleson", "stopping-p2",
            "stopping-p3", "equivalence"])
    def test_refused_by_own_leaf_count(self, tmp_path, capsys, monkeypatch, command, cfg,
                                       module, work):
        # the deepest grid that the 12 B per leaf floor lets through in the
        # physical memory of the machine that runs the test needs more than
        # that memory at each of these commands' own count per leaf (at
        # least 271 B): refused before any work.
        # equivalence goes matrix-free past L = 10, so there its Lanczos
        # bases (9632 B per leaf) refuse such a depth as well
        def no_work(*args, **kwargs):
            raise AssertionError("the refusal must come before any work")
        monkeypatch.setattr(module, work, no_work)
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        L = (have // LEAF_ARRAY_BYTES["sparse"]).bit_length() - 1
        assert LEAF_ARRAY_BYTES["sparse"] * leaf_count(1, L) <= have < 271 * leaf_count(1, L)
        grid = {"L": L} if command == "equivalence" else {"grid": {"d": 1, "L": L}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, **grid}))
        assert self.run(command, "--config", str(path), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"L = {L} needs about" in err and "GiB of physical memory" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cfg, module", [
        ("opnorm", {"grid": {"d": 1, "L": 28}, "p": 3, "operator": {"op": "shift"}}, cli),
        ("opnorm", {"grid": {"d": 1, "L": 22}, "p": 3, "operator": {"op": "embedding"}}, cli),
        ("sparse", {"grid": {"d": 1, "L": 24}, "weight": {"kind": "identity"}}, cli),
        ("sparse", {"grid": {"d": 1, "L": 28}, "p": 3, "weight": {"kind": "identity"}}, cli),
        ("counterexample", {"kind": "paraproduct", "alpha": 0.3, "n_range": [4, 26]}, ex),
        ("carleson", {"grid": {"d": 1, "L": 22}, "p": 3}, cli),
        ("bmo", {"grid": {"d": 1, "L": 22}, "p": 3, "variant": "primal"}, cli),
        ("bmo", {"grid": {"d": 1, "L": 22}, "p": 3, "variant": "dual"}, cli),
    ], ids=["opnorm-shift-p3-L28", "opnorm-embedding-p3-L22", "sparse-weight-p2-L24",
            "sparse-weight-p3-L28", "paraproduct-L28", "carleson-p3-L22", "bmo-primal-p3-L22",
            "bmo-dual-p3-L22"])
    def test_refused_by_the_needs_of_what_it_runs(self, tmp_path, capsys, monkeypatch,
                                                   command, cfg, module):
        # with 8 GiB of memory each of these needs more for the kernels it
        # runs in its regime (the power method, the Lanczos bases, the net gauge of
        # the reducing pyramid at p != 2) or for its own leaf arrays, and a
        # refusal before the grid is built is the only way out
        def no_work(*args, **kwargs):
            raise AssertionError("the refusal must come before any work")
        monkeypatch.setattr(module, "Grid", no_work)
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 << 20}
        monkeypatch.setattr(ex.os, "sysconf", pages.get)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert self.run(command, "--config", str(path), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "than the 8 GiB" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("l_range", ["one-depth", "past-the-dense-cap"])
    def test_commutator_refuses_a_range_without_a_certified_pair(self, tmp_path, capsys,
                                                                monkeypatch, l_range):
        # a growth pair (L, L + 1) is certified only when norm(L) is dense,
        # 2 * 2^L <= DENSE_DIM_CAP; without such a pair the run asserts nothing
        def no_work(*args, **kwargs):
            raise AssertionError("the refusal must come before any work")
        monkeypatch.setattr(ex, "weighted_operator_norm", no_work)
        first = (operators.DENSE_DIM_CAP // 2).bit_length()   # the first matrix-free depth
        lo, hi = {"one-depth": (4, 4), "past-the-dense-cap": (first, first + 1)}[l_range]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "commutator", "alpha": 0.1, "l_range": [lo, hi]}))
        assert self.run("counterexample", "--config", str(path), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "l_range" in err
        assert not list(tmp_path.glob("counterexample_*"))
        assert not (tmp_path / "diagnostics.json").exists()

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
