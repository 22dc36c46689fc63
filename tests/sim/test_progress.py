"""Tests for :mod:`repro.telemetry.progress`: live streaming progress.

The sinks are pure observers — they receive counts only — so the tests
drive them two ways: directly with an injected clock + stream (exact
line format, redraw throttling, TTY cleanup), and through the real
executor (``run_ensemble(..., progress=sink)``) to pin the callback
protocol: ``begin`` once with correct totals, ``advance`` per finished
group up to the totals, ``finish`` exactly once — streamed, barriered,
and on the noisy path.
"""

import io

from repro.paradigms.tln import TLineSpec, mismatched_tline
from repro.paradigms.tln.noisy import NoisyTlineFactory
from repro.sim import run_ensemble
from repro.sim.cache import TrajectoryCache
from repro.telemetry import (LogProgress, ProgressSink, TtyProgress,
                             auto_progress)
from repro.telemetry.progress import _fmt_eta


class TlineFactory:
    def __call__(self, seed):
        return mismatched_tline("gm", seed=seed)


class TwoGroupFactory:
    """Two structural groups: 3- and 4-segment lines alternate."""

    def __call__(self, seed):
        spec = TLineSpec(n_segments=3 if seed % 2 else 4)
        return mismatched_tline("gm", seed=seed, spec=spec)


SPAN = (0.0, 4e-8)


class FakeClock:
    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t

    def tick(self, seconds):
        self.t += seconds


class RecordingSink(ProgressSink):
    def __init__(self):
        self.begins = []
        self.advances = []
        self.finishes = 0

    def begin(self, *, groups, instances):
        self.begins.append((groups, instances))

    def advance(self, *, groups_done, instances_done):
        self.advances.append((groups_done, instances_done))

    def finish(self):
        self.finishes += 1


class TestFmtEta:
    def test_rounds_to_minutes_seconds(self):
        assert _fmt_eta(0.0) == "0:00"
        assert _fmt_eta(9.4) == "0:09"
        assert _fmt_eta(61.0) == "1:01"
        assert _fmt_eta(3605.0) == "60:05"

    def test_unknown_is_question_marks(self):
        assert _fmt_eta(float("inf")) == "?:??"
        assert _fmt_eta(float("nan")) == "?:??"


class TestLogProgress:
    def test_line_format_and_interval(self):
        stream, clock = io.StringIO(), FakeClock()
        sink = LogProgress(stream, clock, interval=2.0)
        sink.begin(groups=4, instances=40)
        clock.tick(1.0)
        sink.advance(groups_done=1, instances_done=10)
        clock.tick(0.5)  # inside the interval, not final -> suppressed
        sink.advance(groups_done=2, instances_done=20)
        clock.tick(2.0)
        sink.advance(groups_done=3, instances_done=30)
        sink.advance(groups_done=4, instances_done=40)
        sink.finish()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 3  # throttled one dropped, final kept
        assert lines[0] == ("[stream] groups 1/4  inst 10/40  10.0/s  "
                            "eta 0:03")
        assert lines[-1].startswith("[stream] groups 4/4  inst 40/40")

    def test_no_output_without_advance(self):
        stream = io.StringIO()
        sink = LogProgress(stream, FakeClock())
        sink.begin(groups=1, instances=1)
        sink.finish()
        assert stream.getvalue() == ""


class TestTtyProgress:
    def test_redraws_in_place_and_cleans_up(self):
        stream, clock = io.StringIO(), FakeClock()
        sink = TtyProgress(stream, clock, min_interval=0.1)
        sink.begin(groups=2, instances=8)
        clock.tick(1.0)
        sink.advance(groups_done=1, instances_done=4)
        clock.tick(0.01)  # throttled (not final)
        sink.advance(groups_done=1, instances_done=5)
        clock.tick(1.0)
        sink.advance(groups_done=2, instances_done=8)
        sink.finish()
        text = stream.getvalue()
        assert text.count("\r") == 2  # throttled draw suppressed
        assert text.endswith("\n")
        final = text.rsplit("\r", 1)[-1]
        assert "groups 2/2" in final and "inst 8/8" in final

    def test_final_advance_always_draws(self):
        stream, clock = io.StringIO(), FakeClock()
        sink = TtyProgress(stream, clock, min_interval=60.0)
        sink.begin(groups=1, instances=2)
        sink.advance(groups_done=1, instances_done=2)
        assert "groups 1/1" in stream.getvalue()

    def test_shorter_redraw_padded_clean(self):
        stream, clock = io.StringIO(), FakeClock()
        sink = TtyProgress(stream, clock, min_interval=0.0)
        sink.begin(groups=2, instances=2000)
        clock.tick(1.0)
        sink.advance(groups_done=1, instances_done=1000)
        clock.tick(1.0)
        sink.advance(groups_done=2, instances_done=2000)
        first, second = stream.getvalue().lstrip("\r").split("\r")
        assert len(second) >= len(first)  # overwrites fully

    def test_silent_when_nothing_drawn(self):
        stream = io.StringIO()
        sink = TtyProgress(stream, FakeClock())
        sink.finish()
        assert stream.getvalue() == ""


class TestAutoProgress:
    def test_picks_by_stdout_tty(self, monkeypatch):
        class Tty:
            def isatty(self):
                return True

        class Pipe:
            def isatty(self):
                return False

        import sys
        monkeypatch.setattr(sys, "stdout", Tty())
        assert isinstance(auto_progress(io.StringIO()), TtyProgress)
        monkeypatch.setattr(sys, "stdout", Pipe())
        assert isinstance(auto_progress(io.StringIO()), LogProgress)


class TestExecutorProtocol:
    """The executor drives begin/advance/finish correctly — and the
    sink cannot perturb results (counts only)."""

    def test_streamed_two_groups(self):
        sink = RecordingSink()
        chunks = list(run_ensemble(TwoGroupFactory(), range(4), SPAN,
                                   n_points=40,
                                   cache=TrajectoryCache(),
                                   stream=True, progress=sink))
        assert len(chunks) == 2
        assert sink.begins == [(2, 4)]
        assert sink.finishes == 1
        assert len(sink.advances) == 2
        assert sink.advances[-1] == (2, 4)
        done = [groups for groups, _ in sink.advances]
        assert done == sorted(done)

    def test_barriered_run_also_reports(self):
        sink = RecordingSink()
        result = run_ensemble(TlineFactory(), range(3), SPAN,
                              n_points=40, cache=TrajectoryCache(),
                              progress=sink)
        assert len(result.trajectories) == 3
        assert sink.begins == [(1, 3)]
        assert sink.advances[-1] == (1, 3)
        assert sink.finishes == 1

    def test_noisy_totals_count_trials(self):
        sink = RecordingSink()
        factory = NoisyTlineFactory(TLineSpec(n_segments=3),
                                    noise=1e-9)
        run_ensemble(factory, range(2), SPAN, trials=3, n_points=30,
                     cache=TrajectoryCache(), progress=sink)
        assert sink.begins == [(1, 6)]  # instances = chips x trials
        assert sink.advances[-1] == (1, 6)
        assert sink.finishes == 1

    def test_abandoned_stream_still_finishes(self):
        sink = RecordingSink()
        stream = run_ensemble(TwoGroupFactory(), range(4), SPAN,
                              n_points=40,
                              cache=TrajectoryCache(),
                              stream=True, progress=sink)
        next(stream)
        stream.close()  # abandon mid-sweep
        assert sink.finishes == 1

    def test_results_identical_with_and_without_sink(self):
        import numpy as np

        plain = run_ensemble(TlineFactory(), range(3), SPAN,
                             n_points=40, cache=TrajectoryCache())
        observed = run_ensemble(TlineFactory(), range(3), SPAN,
                                n_points=40, cache=TrajectoryCache(),
                                progress=RecordingSink())
        for a, b in zip(plain.trajectories, observed.trajectories):
            np.testing.assert_array_equal(a.y, b.y)


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


class TestCliProgress:
    def test_progress_logs_to_stderr_not_stdout(self, tmp_path,
                                                capsys):
        from repro.cli import main

        program = tmp_path / "prog.ark"
        program.write_text(PROGRAM)
        code = main(["ensemble", str(program), "--arg", "w=1.0",
                     "--t-end", "1.0", "--seeds", "4", "--node", "x0",
                     "--print-rows", "1", "--stream", "--progress"])
        assert code == 0
        out, err = capsys.readouterr()
        # stdout keeps only the CLI's own stream summary; the
        # LogProgress line (pytest capture is not a TTY) lands on
        # stderr.
        assert "[stream] groups" not in out
        assert "[stream] groups" in err
        assert "inst 4/4" in err
