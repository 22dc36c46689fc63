"""Tests for the ``python -m repro ensemble`` subcommand."""

import hashlib

import numpy as np
import pytest

from repro.cli import main

PROGRAM = """
lang leaky-mm {
    ntyp(1,sum) X {attr tau=real[0.1,10] mm(0,0.1)};
    etyp W {attr w=real[-5,5]};
    prod(e:W, s:X->s:X) s <= -var(s)/s.tau;
    prod(e:W, s:X->t:X) t <= e.w*var(s)/t.tau;
    cstr X {acc[match(1,1,W,X), match(0,inf,W,X->[X]),
                match(0,inf,W,[X]->X)]};
}

func pair (w:real[-5,5]) uses leaky-mm {
    node x0:X; node x1:X;
    edge <x0,x0> l0:W; edge <x1,x1> l1:W; edge <x0,x1> c:W;
    set-attr x0.tau=1.0; set-attr x1.tau=0.5;
    set-attr l0.w=0.0;   set-attr l1.w=0.0;  set-attr c.w=w;
    set-init x0(0)=1.0;
}
"""


NOISY_PROGRAM = """
lang ou-cli {
    ntyp(1,sum) X {attr tau=real[1e-3,10], attr nsig=real[0,inf]};
    etyp R {};
    prod(e:R, s:X->s:X) s <= -var(s)/s.tau + noise(s.nsig);
    cstr X {acc[match(1,1,R,X)]};
}

func cell () uses ou-cli {
    node x:X;
    edge <x,x> r0:R;
    set-attr x.tau=1.0; set-attr x.nsig=0.3;
    set-init x(0)=1.0;
}
"""


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "prog.ark"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture()
def noisy_file(tmp_path):
    path = tmp_path / "noisy.ark"
    path.write_text(NOISY_PROGRAM)
    return str(path)


class TestEnsembleCommand:
    def test_writes_stats_csv(self, program_file, tmp_path, capsys):
        csv_path = tmp_path / "stats.csv"
        code = main(["ensemble", program_file, "--arg", "w=1.0",
                     "--t-end", "2.0", "--seeds", "6",
                     "--node", "x0", "--csv", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        # A deterministic sweep is the one-trial case.
        assert "6 chip(s) x 1 trial(s) = 6 runs" in out
        assert "100% batched" in out
        data = np.genfromtxt(csv_path, delimiter=",", names=True)
        assert set(data.dtype.names) == {"t", "x0_mean", "x0_std",
                                         "x0_p05", "x0_p95"}
        # Mismatched tau spreads the decay across instances.
        assert data["x0_std"][-1] > 0.0
        assert np.all(data["x0_p05"] <= data["x0_p95"] + 1e-12)
        # The mean still tracks the nominal exp(-t) decay loosely.
        assert data["x0_mean"][-1] == pytest.approx(np.exp(-2.0),
                                                    rel=0.5)

    def test_serial_engine_agrees(self, program_file, tmp_path, capsys):
        # A scipy method takes the serial route, one solve per seed.
        paths = {}
        for route, extra in (("batch", []), ("serial", ["--method", "RK45"])):
            path = tmp_path / f"{route}.csv"
            assert main(["ensemble", program_file, "--arg", "w=1.0",
                         "--t-end", "1.0", "--seeds", "4",
                         "--node", "x1", "--csv", str(path)]
                        + extra) == 0
            paths[route] = np.genfromtxt(path, delimiter=",",
                                         names=True)
        np.testing.assert_allclose(paths["batch"]["x1_mean"],
                                   paths["serial"]["x1_mean"],
                                   rtol=1e-4, atol=1e-7)

    def test_prints_rows_without_csv(self, program_file, capsys):
        code = main(["ensemble", program_file, "--arg", "w=0.5",
                     "--t-end", "1.0", "--seeds", "3",
                     "--node", "x0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "t,x0_mean,x0_std,x0_p05,x0_p95" in out

    def test_cache_dir_reruns_bit_identically(self, program_file,
                                              tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        stats = {}
        for run in ("cold", "warm"):
            path = tmp_path / f"{run}.csv"
            assert main(["ensemble", program_file, "--arg", "w=1.0",
                         "--t-end", "1.0", "--seeds", "4",
                         "--node", "x0", "--csv", str(path),
                         "--cache-dir", str(cache_dir)]) == 0
            stats[run] = np.genfromtxt(path, delimiter=",", names=True)
        assert list(cache_dir.glob("*.npz"))
        for name in stats["cold"].dtype.names:
            np.testing.assert_array_equal(stats["cold"][name],
                                          stats["warm"][name])

    @pytest.mark.parametrize("flags, message", [
        (["--max-step", "0"], "max_step must be > 0"),
        (["--freeze-tol", "0"], "freeze_tol must be > 0"),
        (["--method", "RK45", "--processes", "0"],
         "processes must be >= 1"),
        (["--array-backend", "numpy:foo"],
         "unknown array backend 'numpy:foo'"),
        (["--array-backend", "jax"], "unknown array backend 'jax'"),
    ])
    def test_bad_option_values_exit_2(self, program_file, capsys, flags,
                                      message):
        code = main(["ensemble", program_file, "--arg", "w=1.0",
                     "--t-end", "1.0", "--seeds", "2", "--node", "x0"]
                    + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--engine", "auto"],
                                       ["--shard-min", "4"],
                                       ["--sde-rtol", "1e-2"],
                                       ["--engine", "pool"],
                                       ["--no-dense"]])
    def test_removed_flags_are_rejected(self, program_file, capsys,
                                        flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["ensemble", program_file, "--arg", "w=1.0",
                  "--t-end", "1.0", "--seeds", "2"] + flags)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestAdaptiveSdeFlags:
    def _run(self, noisy_file, tmp_path, name, *extra):
        csv_path = tmp_path / f"{name}.csv"
        code = main(["ensemble", noisy_file, "--t-end", "1.0",
                     "--seeds", "2", "--trials", "2", "--node", "x",
                     "--csv", str(csv_path), *extra])
        return code, csv_path

    def test_unknown_sde_method_exits_2(self, noisy_file, tmp_path,
                                        capsys):
        code, _ = self._run(noisy_file, tmp_path, "bad",
                            "--sde-method", "euler")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "heun-adaptive" in err  # names the alternatives

    def test_adaptive_method_with_tolerances(self, noisy_file,
                                             tmp_path, capsys):
        code, loose_csv = self._run(
            noisy_file, tmp_path, "loose", "--sde-method",
            "heun-adaptive", "--rtol", "1e-2", "--atol", "1e-4")
        assert code == 0
        code, tight_csv = self._run(
            noisy_file, tmp_path, "tight", "--sde-method",
            "heun-adaptive", "--rtol", "1e-7", "--atol", "1e-10")
        assert code == 0
        loose = np.genfromtxt(loose_csv, delimiter=",", names=True)
        tight = np.genfromtxt(tight_csv, delimiter=",", names=True)
        # The tolerance flags reach the controller: the loose and
        # tight runs take different step sequences, hence (slightly)
        # different trajectories on the same bridge realization.
        assert not np.array_equal(loose["x_mean"], tight["x_mean"])
        # ... but refine the SAME Wiener path, so they agree closely.
        np.testing.assert_allclose(loose["x_mean"], tight["x_mean"],
                                   atol=0.05)


class TestToleranceFlags:
    """``--rtol``/``--atol`` set the plan's tolerances for every sweep,
    deterministic or noisy."""

    #: SHA-256 of the CSV that ``--seeds 2 --trials 4 --sde-method
    #: heun-adaptive`` with a relative tolerance of 1e-2 wrote when the
    #: flag was still spelled ``--sde-rtol``.
    ADAPTIVE_CSV_DIGEST = ("d5e7be95c593ad8ff4b283238b1d65df"
                           "4668ca4cc6c9bc820615703111f726e1")

    def test_ode_sweep_honors_rtol(self, program_file, tmp_path):
        def sweep(name, *extra):
            path = tmp_path / f"{name}.csv"
            assert main(["ensemble", program_file, "--arg", "w=1.0",
                         "--t-end", "20.0", "--seeds", "4", "--node",
                         "x1", "--csv", str(path), *extra]) == 0
            return path.read_bytes()

        default = sweep("default")
        loose = sweep("loose", "--rtol", "1e-3")
        assert loose != default
        np.testing.assert_allclose(
            np.genfromtxt(loose.decode().splitlines(), delimiter=",",
                          skip_header=1),
            np.genfromtxt(default.decode().splitlines(), delimiter=",",
                          skip_header=1), atol=1e-2)

    def test_adaptive_sde_rtol_output_is_unchanged(self, noisy_file,
                                                   tmp_path):
        path = tmp_path / "adaptive.csv"
        assert main(["ensemble", noisy_file, "--t-end", "1.0",
                     "--seeds", "2", "--trials", "4", "--node", "x",
                     "--sde-method", "heun-adaptive", "--rtol", "1e-2",
                     "--csv", str(path)]) == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.ADAPTIVE_CSV_DIGEST
