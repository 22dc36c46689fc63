"""Tests for the ``python -m repro`` command-line interface."""

import numpy as np
import pytest

from repro.cli import main

PROGRAM = """
lang leaky {
    ntyp(1,sum) X {attr tau=real[0.1,10]};
    etyp W {attr w=real[-5,5]};
    prod(e:W, s:X->s:X) s <= -var(s)/s.tau;
    prod(e:W, s:X->t:X) t <= e.w*var(s)/t.tau;
    cstr X {acc[match(1,1,W,X), match(0,inf,W,X->[X]),
                match(0,inf,W,[X]->X)]};
}

func pair (w:real[-5,5], on:int[0,1]) uses leaky {
    node x0:X; node x1:X;
    edge <x0,x0> l0:W; edge <x1,x1> l1:W; edge <x0,x1> c:W;
    set-attr x0.tau=1.0; set-attr x1.tau=0.5;
    set-attr l0.w=0.0;   set-attr l1.w=0.0;  set-attr c.w=w;
    set-init x0(0)=1.0;
    set-switch c when on == 1;
}
"""

BROKEN = """
lang leaky {
    ntyp(1,sum) X {attr tau=real[0.1,10]};
    etyp W {attr w=real[-5,5]};
    prod(e:W, s:X->s:X) s <= -var(s)/s.tau;
    cstr X {acc[match(1,1,W,X)]};
}

func lonely () uses leaky {
    node x0:X;
    set-attr x0.tau = 1.0;
}
"""


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "prog.ark"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture()
def broken_file(tmp_path):
    path = tmp_path / "broken.ark"
    path.write_text(BROKEN)
    return str(path)


class TestInfo:
    def test_pretty_prints(self, program_file, capsys):
        assert main(["info", program_file]) == 0
        out = capsys.readouterr().out
        assert "lang leaky" in out
        assert "func pair" in out
        assert "set-switch c when" in out


class TestValidate:
    def test_valid_program(self, program_file, capsys):
        code = main(["validate", program_file, "--func", "pair",
                     "--arg", "w=1.5", "--arg", "on=1"])
        assert code == 0
        assert "VALID" in capsys.readouterr().out

    def test_invalid_program_exit_code(self, broken_file, capsys):
        code = main(["validate", broken_file, "--func", "lonely"])
        assert code == 1
        out = capsys.readouterr().out
        assert "INVALID" in out

    def test_flow_backend(self, program_file):
        assert main(["validate", program_file, "--func", "pair",
                     "--arg", "w=1.0", "--arg", "on=0",
                     "--backend", "flow"]) == 0

    def test_default_func_when_single(self, program_file):
        assert main(["validate", program_file, "--arg", "w=1.0",
                     "--arg", "on=1"]) == 0

    def test_unknown_func_reports_error(self, program_file, capsys):
        code = main(["validate", program_file, "--func", "ghost"])
        assert code == 2
        assert "unknown function" in capsys.readouterr().err

    def test_bad_arg_syntax(self, program_file, capsys):
        code = main(["validate", program_file, "--func", "pair",
                     "--arg", "w:1"])
        assert code == 2


class TestEquations:
    def test_prints_odes(self, program_file, capsys):
        assert main(["equations", program_file, "--func", "pair",
                     "--arg", "w=2.0", "--arg", "on=1"]) == 0
        out = capsys.readouterr().out
        assert "d x0/dt" in out and "d x1/dt" in out


class TestSimulate:
    def test_prints_samples(self, program_file, capsys):
        code = main(["simulate", program_file, "--func", "pair",
                     "--arg", "w=2.0", "--arg", "on=1",
                     "--t-end", "2.0", "--node", "x0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "t,x0"

    def test_writes_csv(self, program_file, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        code = main(["simulate", program_file, "--func", "pair",
                     "--arg", "w=2.0", "--arg", "on=1",
                     "--t-end", "2.0", "--csv", str(csv_path)])
        assert code == 0
        data = np.genfromtxt(csv_path, delimiter=",", names=True)
        assert set(data.dtype.names) == {"t", "x0", "x1"}
        assert data["x0"][-1] == pytest.approx(np.exp(-2.0), rel=1e-3)

    def test_switch_off_kills_coupling(self, program_file, tmp_path):
        csv_path = tmp_path / "off.csv"
        main(["simulate", program_file, "--func", "pair",
              "--arg", "w=2.0", "--arg", "on=0",
              "--t-end", "2.0", "--csv", str(csv_path)])
        data = np.genfromtxt(csv_path, delimiter=",", names=True)
        assert abs(data["x1"][-1]) < 1e-9

    def test_invalid_graph_fails(self, broken_file, capsys):
        code = main(["simulate", broken_file, "--func", "lonely",
                     "--t-end", "1.0"])
        assert code == 2


class TestDot:
    def test_emits_digraph(self, program_file, capsys):
        assert main(["dot", program_file, "--func", "pair",
                     "--arg", "w=1.0", "--arg", "on=1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert '"x0" -> "x1"' in out


class TestPrelude:
    def test_paradigm_languages_available(self, tmp_path, capsys):
        path = tmp_path / "puf.ark"
        path.write_text("""
        func tiny (br:int[0,1]) uses tln {
            node IN_V:V; node I_0:I; node InpI_0:InpI;
            edge <InpI_0,IN_V> E_in:E;
            edge <IN_V,I_0> E_0:E;
            edge <IN_V,IN_V> Es_0:E; edge <I_0,I_0> Es_1:E;
            set-attr InpI_0.fn = lambd(t): pulse(t, 0, 2e-8);
            set-attr InpI_0.g = 1.0;
            set-attr IN_V.c=1e-09; set-attr IN_V.g=0.0;
            set-attr I_0.l=1e-09;  set-attr I_0.r=1.0;
            set-init IN_V(0)=0.0;  set-init I_0(0)=0.0;
            set-switch E_0 when br;
        }
        """)
        assert main(["validate", str(path), "--arg", "br=1"]) == 0
        assert "VALID" in capsys.readouterr().out


class TestLanguagesCommand:
    def test_lists_all_prelude_languages(self, capsys):
        assert main(["languages"]) == 0
        out = capsys.readouterr().out
        for name in ("tln", "gmc-tln", "cnn", "hw-cnn", "obc",
                     "ofs-obc", "intercon-obc", "color-obc", "gpac",
                     "hw-gpac", "ns-tln", "ns-obc"):
            assert name in out
        assert "parent" in out

    def test_prints_one_language_definition(self, capsys):
        assert main(["languages", "gpac"]) == 0
        out = capsys.readouterr().out
        assert "lang gpac" in out
        assert "ntyp(0,mul) Mul" in out

    def test_unknown_language_fails(self, capsys):
        assert main(["languages", "nope"]) == 2
        assert "unknown language" in capsys.readouterr().err


NOISY_PROGRAM = """
lang leaky-noise {
    ntyp(1,sum) X {attr tau=real[0.1,10] mm(0,0.1),
                   attr nsig=real[0,inf]};
    etyp R {};
    prod(e:R, s:X->s:X) s <= -var(s)/s.tau + noise(s.nsig);
    cstr X {acc[match(1,1,R,X)]};
}

func cell (nsig:real[0,inf]) uses leaky-noise {
    node x:X;
    edge <x,x> r0:R;
    set-attr x.tau = 1.0;
    set-attr x.nsig = nsig;
    set-init x(0) = 1.0;
}
"""


@pytest.fixture()
def noisy_file(tmp_path):
    path = tmp_path / "noisy.ark"
    path.write_text(NOISY_PROGRAM)
    return str(path)


class TestNoise:
    def test_prints_statistics(self, noisy_file, capsys):
        assert main(["ensemble", noisy_file, "--arg", "nsig=0.3",
                     "--t-end", "2.0", "--seeds", "2", "--trials", "4",
                     "--points", "60", "--node", "x"]) == 0
        out = capsys.readouterr().out
        assert "2 chip(s) x 4 trial(s) = 8 runs" in out
        assert "x_mean" in out and "x_p95" in out

    def test_writes_csv(self, noisy_file, tmp_path, capsys):
        csv = tmp_path / "noise.csv"
        assert main(["ensemble", noisy_file, "--arg", "nsig=0.3",
                     "--t-end", "2.0", "--seeds", "2", "--trials", "3",
                     "--points", "50", "--node", "x",
                     "--csv", str(csv)]) == 0
        matrix = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert matrix.shape == (50, 5)
        # Noise spreads the trials: the std column is eventually > 0.
        assert matrix[:, 2].max() > 0.0

    def test_equations_show_diffusion(self, noisy_file, capsys):
        assert main(["equations", noisy_file,
                     "--arg", "nsig=0.3"]) == 0
        assert "dW[r0/w0]" in capsys.readouterr().out

    def test_deterministic_program_rejected(self, noisy_file, capsys):
        assert main(["ensemble", noisy_file, "--arg", "nsig=0",
                     "--t-end", "2.0", "--trials", "2"]) == 2
        assert "deterministic" in capsys.readouterr().err

    def test_bad_method_rejected(self, noisy_file, capsys):
        assert main(["ensemble", noisy_file, "--arg", "nsig=0.3",
                     "--t-end", "2.0", "--trials", "2",
                     "--sde-method", "rk4"]) == 2
        assert "unknown SDE method" in capsys.readouterr().err
