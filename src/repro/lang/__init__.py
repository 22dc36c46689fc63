"""Textual front-end for the Ark language (Fig. 6 grammar).

Reads programs written in the paper's concrete syntax — ``lang``
definitions with ``ntyp``/``etyp``/``prod``/``cstr``/``extern-func``
statements and ``func`` definitions — and builds the core objects of
:mod:`repro.core` directly: a :class:`~repro.core.language.Language`
per ``lang`` and an :class:`~repro.core.function.ArkFunction` per
``func``. :mod:`repro.lang.unparse` prints them back.

Example::

    from repro.lang import parse_program

    program = parse_program('''
        lang tln {
            ntyp(1,sum) V {attr c=real[1e-10,1e-08], attr g=real[0,inf]};
            etyp E {};
            prod(e:E, s:V->s:V) s <= -s.g/s.c*var(s);
            cstr V {acc[match(1,1,E,V)]};
        }
    ''')
    tln = program.languages["tln"]
"""

from repro.lang.parser import (ParsedProgram, parse_function,
                               parse_language, parse_program)
from repro.lang.unparse import (unparse_chain, unparse_datatype,
                                unparse_function, unparse_language)

__all__ = [
    "ParsedProgram",
    "parse_function",
    "parse_language",
    "parse_program",
    "unparse_chain",
    "unparse_datatype",
    "unparse_function",
    "unparse_language",
]
