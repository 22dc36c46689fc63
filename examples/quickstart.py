"""Quickstart: define an Ark language, build a graph, validate, simulate.

Two equivalent routes are shown:

1. the *programmatic* API (`repro.Language`, `repro.GraphBuilder`);
2. the *textual* front-end (`repro.lang.parse_program`) using the paper's
   concrete syntax, including an Ark `func` with a switchable edge.

The toy paradigm is a pair of leaky integrators coupled through a
weighted edge — small enough to read the generated equations by eye.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro
from repro.lang import parse_program


def api_language() -> repro.Language:
    """The leaky language, declared through the programmatic API."""
    lang = repro.Language("leaky")
    lang.node_type("X", order=1, reduction="sum",
                   attrs=[("tau", repro.real(0.1, 10.0))])
    lang.edge_type("W", attrs=[("w", repro.real(-5.0, 5.0))])
    lang.prod("prod(e:W, s:X->s:X) s <= -var(s)/s.tau")
    lang.prod("prod(e:W, s:X->t:X) t <= e.w*var(s)/t.tau")
    lang.cstr("cstr X {acc[match(1,1,W,X), match(0,inf,W,X->[X]),"
              " match(0,inf,W,[X]->X)]}")
    return lang


#: The same language in the paper's concrete syntax. Rule strings and
#: ``.ark`` rules share one grammar, so both routes yield equal rules.
LEAKY_ARK = """
    lang leaky {
        ntyp(1,sum) X {attr tau=real[0.1,10]};
        etyp W {attr w=real[-5,5]};
        prod(e:W, s:X->s:X) s <= -var(s)/s.tau;
        prod(e:W, s:X->t:X) t <= e.w*var(s)/t.tau;
        cstr X {acc[match(1,1,W,X),
                    match(0,inf,W,X->[X]),
                    match(0,inf,W,[X]->X)]};
    }
"""


def programmatic() -> None:
    print("=== programmatic API ===")
    lang = api_language()

    builder = repro.GraphBuilder(lang, "two-pole")
    builder.node("x0", "X").set_attr("x0", "tau", 1.0)
    builder.node("x1", "X").set_attr("x1", "tau", 0.5)
    builder.edge("x0", "x0", "leak0", "W").set_attr("leak0", "w", 0.0)
    builder.edge("x1", "x1", "leak1", "W").set_attr("leak1", "w", 0.0)
    builder.edge("x0", "x1", "couple", "W")
    builder.set_attr("couple", "w", 2.0)
    builder.set_init("x0", 1.0).set_init("x1", 0.0)
    graph = builder.finish()

    report = repro.validate(graph)
    print("valid:", report.valid)
    system = repro.compile_graph(graph)
    for equation in system.equations():
        print("  ", equation)

    trajectory = repro.simulate(graph, (0.0, 4.0), n_points=200)
    print(f"final x0={trajectory.final('x0'):+.4f} "
          f"x1={trajectory.final('x1'):+.4f}")
    # x0 decays as exp(-t); x1 is driven through the coupling.
    assert abs(trajectory.final("x0") - np.exp(-4.0)) < 1e-3


def textual() -> None:
    print("\n=== textual front-end ===")
    program = parse_program(LEAKY_ARK + """
        func two-pole (w:real[-5,5], coupled:int[0,1]) uses leaky {
            node x0:X; node x1:X;
            edge <x0,x0> leak0:W; edge <x1,x1> leak1:W;
            edge <x0,x1> couple:W;
            set-attr x0.tau = 1.0;  set-attr x1.tau = 0.5;
            set-attr leak0.w = 0.0; set-attr leak1.w = 0.0;
            set-attr couple.w = w;
            set-init x0(0) = 1.0;   set-init x1(0) = 0.0;
            set-switch couple when coupled == 1;
        }
    """)
    two_pole = program.functions["two-pole"]
    for coupled in (0, 1):
        graph = two_pole(w=2.0, coupled=coupled)
        repro.validate(graph).raise_if_invalid()
        trajectory = repro.simulate(graph, (0.0, 4.0), n_points=200)
        print(f"coupled={coupled}: final x1="
              f"{trajectory.final('x1'):+.4f}")


if __name__ == "__main__":
    programmatic()
    textual()
