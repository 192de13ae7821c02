import json

import numpy as np
import pytest

from riskbound import cli
from riskbound.asymptotics import CltExperiment, simulate_error_distribution
from riskbound.cli import main
from riskbound.bounds import (
    mes_solution_from_dict,
    msp_solution_from_dict,
    verify_duality,
)
from riskbound.core import LossMatrix, instance_to_dict, validate_marginal
from riskbound.losses import build_gaussian_linear_instance


def write_instance(path, mu, nu, loss, **extra):
    d = instance_to_dict(validate_marginal(mu), validate_marginal(nu),
                         LossMatrix(np.asarray(loss, dtype=float)))
    d.update(extra)
    path.write_text(json.dumps(d))
    return path


@pytest.fixture
def comonotone_instance(tmp_path):
    return write_instance(tmp_path / "inst.json", [0.5, 0.5], [0.5, 0.5],
                          [[0.0, 1.0], [1.0, 2.0]])


class TestMesCommand:
    def test_one_by_one(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "one.json", [1.0], [1.0], [[4.25]])
        code = main(["mes", str(inst), "--alpha", "0.5", "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "value = 4.25" in out

    def test_comonotone_value(self, comonotone_instance, tmp_path, capsys):
        code = main(["mes", str(comonotone_instance), "--alpha", "0.5",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert "value = 2.0" in capsys.readouterr().out

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mu": [0.5, 0.5,]}')
        code = main(["mes", str(bad), "--alpha", "0.5"])
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_invalid_marginal_is_infeasible_input(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"mu": [0.2, 0.2], "nu": [1.0], "loss": [[1.0], [2.0]]}))
        assert main(["mes", str(inst), "--alpha", "0.5"]) == 2

    def test_solution_json_revalidates(self, comonotone_instance, tmp_path):
        out = tmp_path / "o"
        assert main(["mes", str(comonotone_instance), "--alpha", "0.5",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "solution.json").read_text())
        sol = mes_solution_from_dict(payload)
        mu = validate_marginal([0.5, 0.5])
        nu = validate_marginal([0.5, 0.5])
        loss = LossMatrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        report = verify_duality(sol, loss, mu, nu)
        assert report.gap <= 1e-7

    def test_mps_dump(self, comonotone_instance, tmp_path):
        mps = tmp_path / "lp.mps"
        assert main(["mes", str(comonotone_instance), "--alpha", "0.5",
                     "--out", str(tmp_path / "o"), "--dump-mps", str(mps)]) == 0
        text = mps.read_text()
        assert text.splitlines()[-1] == "ENDATA"
        assert "COLUMNS" in text


class TestMspCommand:
    def test_es_spec_matches_mes(self, comonotone_instance, tmp_path, capsys):
        assert main(["msp", str(comonotone_instance), "--sigma-spec", "es:0.9",
                     "--out", str(tmp_path / "a")]) == 0
        msp_out = capsys.readouterr().out
        assert main(["mes", str(comonotone_instance), "--alpha", "0.9",
                     "--out", str(tmp_path / "b")]) == 0
        mes_out = capsys.readouterr().out
        v_msp = float(msp_out.splitlines()[0].split("=")[1])
        v_mes = float(mes_out.splitlines()[0].split("=")[1])
        assert v_msp == pytest.approx(v_mes, abs=1e-8)

    def test_flat_spec_is_transport_value(self, comonotone_instance, tmp_path, capsys):
        assert main(["msp", str(comonotone_instance), "--sigma-spec", "flat",
                     "--out", str(tmp_path / "a")]) == 0
        v = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        # comonotone expectation: 0.5*0 + 0.5*2 = 1
        assert v == pytest.approx(1.0, abs=1e-8)

    def test_power_sqrt_refinement_converges(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        inst = write_instance(tmp_path / "i.json",
                              rng.dirichlet(np.ones(4)).tolist(),
                              rng.dirichlet(np.ones(4)).tolist(),
                              rng.normal(size=(4, 4)).tolist())
        values = []
        for k in (8, 16, 32):
            assert main(["msp", str(inst), "--sigma-spec", "power-sqrt",
                         "--levels", str(k), "--out", str(tmp_path / f"o{k}")]) == 0
            values.append(float(capsys.readouterr().out.splitlines()[0].split("=")[1]))
        assert abs(values[2] - values[1]) <= abs(values[1] - values[0]) + 1e-12

    def test_solution_revalidates(self, comonotone_instance, tmp_path):
        out = tmp_path / "o"
        assert main(["msp", str(comonotone_instance), "--sigma-spec",
                     "pc::1.0", "--out", str(out)]) == 0
        payload = json.loads((out / "solution.json").read_text())
        sol = msp_solution_from_dict(payload)
        report = verify_duality(sol, LossMatrix(np.array([[0.0, 1.0], [1.0, 2.0]])),
                                validate_marginal([0.5, 0.5]), validate_marginal([0.5, 0.5]))
        assert report.gap <= 1e-7


class TestOracleCommand:
    def test_matches_mes(self, comonotone_instance, capsys):
        assert main(["oracle", str(comonotone_instance), "--alpha", "0.5"]) == 0
        v = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert v == pytest.approx(2.0, abs=1e-5)

    def test_prints_the_mes_value(self, comonotone_instance, tmp_path, capsys):
        assert main(["mes", str(comonotone_instance), "--alpha", "0.3",
                     "--out", str(tmp_path / "o")]) == 0
        mes = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert main(["oracle", str(comonotone_instance), "--alpha", "0.3"]) == 0
        oracle = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
        assert oracle == pytest.approx(mes, abs=1e-12)

    def test_beta_grid_flag_is_gone(self, comonotone_instance):
        with pytest.raises(SystemExit):
            main(["oracle", str(comonotone_instance), "--alpha", "0.5", "--beta-grid", "9"])


class TestCltCommand:
    def make_config(self, tmp_path, **kw):
        cfg = {
            "generator": {"kind": "gaussian-linear", "n_x": 12, "n_y": 16, "seed": 5},
            "alpha": 0.8,
            "sample_n_x": 12,
            "sample_n_y": 16,
            "replications": 2,
            "seed": 9,
            "threads": 1,
        }
        cfg.update(kw)
        path = tmp_path / "clt.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_smoke_two_rows(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path, replications=8)
        out = tmp_path / "out"
        assert main(["clt", str(cfg), "--out", str(out)]) == 0
        rows = (out / "deviations.csv").read_text().splitlines()
        assert rows[0] == "deviation"
        assert len(rows) == 9
        parsed = [float(v) for v in rows[1:]]  # every cell is a plain float
        assert parsed == sorted(parsed)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["replications"] == 8
        assert (out / "histogram.svg").read_text().startswith("<svg")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.make_config(tmp_path, replications=10)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["clt", str(cfg), "--out", str(out1)]) == 0
        assert main(["clt", str(cfg), "--out", str(out2)]) == 0
        for name in ("deviations.csv", "summary.json", "histogram.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_missing_config(self, capsys):
        assert main(["clt", "/nonexistent/config.json"]) == 1

    def test_dual_face_diagnostic_on_1800_cells(self, tmp_path):
        cfg = self.make_config(tmp_path, replications=8,
                               generator={"kind": "gaussian-linear", "n_x": 30, "n_y": 60,
                                          "seed": 5})
        out = tmp_path / "out"
        assert main(["clt", str(cfg), "--out", str(out)]) == 0
        face = json.loads((out / "summary.json").read_text())["dual_face"]
        assert set(face) == {"max_asymmetry", "linear"}


class TestStabilityCommand:
    def test_sweep_csv(self, tmp_path):
        inst = write_instance(tmp_path / "i.json", [0.4, 0.6], [0.5, 0.5],
                              [[0.0, 1.0], [1.0, 2.0]],
                              x_support=[0.0, 1.0], y_support=[0.0, 1.0])
        cfg = tmp_path / "st.json"
        cfg.write_text(json.dumps({"instance": {"file": str(inst)}, "alpha": 0.5,
                                   "scheme": "mixing", "steps": 4, "seed": 1}))
        out = tmp_path / "out"
        assert main(["stability", str(cfg), "--out", str(out)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "epsilon,w_r_mu,w_r_nu,value,delta_value,bound"
        for line in lines[1:]:  # every cell parses as a plain float
            assert len([float(v) for v in line.split(",")]) == 6
        last = lines[-1].split(",")
        assert float(last[0]) == 0.0
        assert float(last[4]) == 0.0

    def test_missing_config_exits_one(self):
        assert main(["stability", "/nonexistent/cfg.json"]) == 1


class TestMalformedInput:
    """Input the CLI cannot parse exits 2, and stderr names what is wrong."""

    @pytest.mark.parametrize("spec", ["pc:0.5", "es:abc", "table:0,1", "pc:0.5:1,x",
                                      "pc:0.5:0.5,nan", "table:0,0.5,1:0.5,nan,1.5", "pc:inf:1,1",
                                      "pc:0.5:0.5,1", "bogus"])
    def test_sigma_spec(self, comonotone_instance, tmp_path, capsys, spec):
        assert main(["msp", str(comonotone_instance), "--sigma-spec", spec,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "InvalidSpectrum" in err and repr(spec) in err

    @pytest.mark.parametrize("payload, named", [
        ({"mu": [0.5, 0.5], "nu": [0.5, 0.5], "loss": [[0.0, 1.0], [1.0]]}, "'loss'"),
        ({"mu": ["a", 0.5], "nu": [0.5, 0.5], "loss": [[0.0, 1.0], [1.0, 2.0]]}, "'mu'"),
        ({"mu": [0.5, 0.5], "nu": [0.5, 0.5], "loss": [[0.0, 1.0], [1.0, 2.0]],
          "sigma": {"kind": "table", "u": [0, 1]}}, "'sigma.sigma'"),
        ([0.5, 0.5], "instance"),
        ({"mu": [0.5, 0.5], "nu": [0.5, 0.5], "loss": [[0.0, 1.0], [1.0, 2.0]],
          "x_support": 5}, "'x_support'"),
        ({"mu": [0.5, float("nan")], "nu": [0.5, 0.5], "loss": [[0.0, 1.0], [1.0, 2.0]]},
         "'mu'"),
        ({"mu": [0.5, 0.5], "nu": [0.5, 0.5], "loss": [[0.0, float("inf")], [1.0, 2.0]]},
         "'loss'"),
        ({"mu": [0.5, 0.5], "nu": [0.5, 0.5], "loss": [[0.0, 1.0], [1.0, 2.0]],
          "sigma": {"kind": "table", "u": [0, 0.5, 1], "sigma": [0.5, float("nan"), 1.5]}},
         "'sigma.sigma'"),
    ], ids=["ragged-loss", "string-weight", "table-without-sigma", "top-level-list",
            "scalar-support", "nan-weight", "infinite-loss", "nan-sigma"])
    def test_instance(self, tmp_path, capsys, payload, named):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(payload))
        assert main(["mes", str(inst), "--alpha", "0.5", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input") and named in err


class TestMalformedConfig:
    """An experiment config the CLI cannot use exits 2, and stderr names the
    field."""

    BASE = {"generator": {"kind": "gaussian-linear", "n_x": 4, "n_y": 4, "seed": 5},
            "alpha": 0.8, "replications": 2, "seed": 9, "threads": 1}

    @pytest.mark.parametrize("command, change, named", [
        ("clt", {"generator": {"kind": "ccr", "n": "x"}}, "'generator.n'"),
        ("clt", {"alpha": None}, "'alpha' is missing"),
        ("clt", {"replications": "many"}, "'replications'"),
        ("clt", {"generator": {"kind": "gaussian-linear", "n_x": 4}},
         "'generator.n_y' is missing"),
        ("clt", {"threads": "x"}, "'threads'"),
        ("clt", {"generator": {"kind": "ccr", "n": 4, "params": {"bogus": 1}}},
         "'generator.params'"),
        ("clt", {"generator": [4, 4]}, "'generator'"),
        ("clt", {"seed": "x"}, "'seed'"),
        ("clt", {"dual_face_diagnostics": "no"}, "'dual_face_diagnostics'"),
        ("clt", {"gev_overlay": "false"}, "'gev_overlay'"),
        ("stability", {"steps": "x"}, "'steps'"),
        ("stability", {"r": "x"}, "'r'"),
    ], ids=["ccr-n", "no-alpha", "replications", "no-n_y", "threads", "ccr-params",
            "generator-list", "seed", "face-diagnostics", "gev-overlay", "steps", "r"])
    def test_field(self, tmp_path, capsys, command, change, named):
        cfg = {k: v for k, v in {**self.BASE, **change}.items() if v is not None}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([command, str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input (InvalidParams)") and named in err

    @pytest.mark.parametrize("command", ["clt", "stability"])
    def test_config_that_is_no_object(self, tmp_path, capsys, command):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        assert main([command, str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err


class TestCltWorkers:
    """The worker pool is capped by the CPUs and by the chunks of
    replications; a fake pool records the cap and maps in process, so these
    tests start no process."""

    @pytest.fixture
    def pools(self, monkeypatch):
        made = []

        class FakePool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        return made

    @staticmethod
    def experiment(replications):
        mu, nu, loss = build_gaussian_linear_instance(6, 8, 5)
        return CltExperiment(mu=mu, nu=nu, loss=loss, alpha=0.8, n_x=6, n_y=8,
                             replications=replications, seed=9)

    @pytest.mark.parametrize("threads, cpus, replications, workers", [
        (1000, 64, 16, 2),      # two chunks of eight replications
        (3, 2, 40, 2),          # the CPUs
        (4, 64, 40, 4),         # the requested count
        (1000, 64, 8, None),    # one chunk: in process, no pool
        (1, 64, 40, None),
    ])
    def test_cap(self, pools, monkeypatch, threads, cpus, replications, workers):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        exp = self.experiment(replications)
        got = cli._clt_deviations(exp, 1.5, threads)
        assert pools == ([] if workers is None else [workers])
        assert np.array_equal(got, simulate_error_distribution(exp, true_value=1.5))
