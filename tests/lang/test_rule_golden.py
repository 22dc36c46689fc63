"""Golden digests of every shipped language's rules.

The production and validity rules of a language reach the core through
the rule grammar, from ``.ark`` text or from the Python API's rule
strings. Restructuring that grammar must leave each parsed rule
unchanged: the printed language byte for byte, and the structure the
compiler and the validator read from it — every production rule's
``signature()`` and every match clause's cardinalities, direction and
peer types. Each case is a SHA-256 over that text, for the fifteen
prelude paradigm languages and every language defined in
``examples/ark``.

Functions are pinned the same way: for every ``func`` in
``examples/ark``, a SHA-256 over the printed function and one over the
``repr`` of each argument and statement, the core objects
:meth:`~repro.core.function.ArkFunction.invoke` executes.
"""

import hashlib
import pathlib

import pytest

from repro.cli import _prelude_functions, _prelude_languages
from repro.lang import parse_program
from repro.lang.unparse import unparse_function, unparse_language

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples" / "ark"


def _programs():
    return {path.name: parse_program(path.read_text(),
                                     languages=_prelude_languages(),
                                     functions=_prelude_functions())
            for path in sorted(EXAMPLES.glob("*.ark"))}


def _languages():
    languages = dict(_prelude_languages())
    for file, program in _programs().items():
        for name, language in program.languages.items():
            languages[f"{file}:{name}"] = language
    return languages


def _functions():
    return {f"{file}:{name}": function
            for file, program in _programs().items()
            for name, function in program.functions.items()}


def _structure(language) -> str:
    lines = [repr(rule.signature()) for rule in language._productions]
    for rule in language._constraints:
        lines.append(f"cstr {rule.node_type}")
        for pattern in rule.patterns:
            lines.append(pattern.polarity)
            lines.extend(
                repr((float(c.lo), float(c.hi), c.kind, c.node_types,
                      c.edge_type))
                for c in pattern.clauses)
    return "\n".join(lines)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "cnn": (
        "b0d767f999d516f78af7fc53bde11e1ff44aa1d0e7c85daab842ec84d6062a64",
        "a8b374dfc2faf141ec3dc052d633a3bb7f46a9e64fc8691bf1724e375abc7b44"),
    "color-obc": (
        "7fe9a5652cb556262d6f38a649d01e7943e7288f799c2ee0628fb1f16f5bfe40",
        "3cfe76c33b26125376cbff47a029e8f18469fff78743d4a1299397f4ac1e7e25"),
    "fhn": (
        "ef74c27d82284ac8ff95b131de6b12ad7beec8008cdac541f50ea92a63324d4d",
        "9fffb9cfe4c3d215d59c863542c54e60c78ae0c6db95be647419a7df33425d9e"),
    "gmc-tln": (
        "308b352b330c475d61cf0f2dac9e212557718f634b75086d50416c16ac61ecab",
        "1365bbd20f8e323283b6392e1a4fb02f1d2a7244f5720dae7465ffebe92b8236"),
    "gpac": (
        "29ac92d4d5c74452b11261244f58aa23ff46650b257ed3ac6e8ebab10e080776",
        "b440909778bc621159ca78e0681d54cb11a7ea57e5aec19c403b8c26f992ffa6"),
    "hw-cnn": (
        "9def4844402fae8d695850c0d2669902a03bb965dd378624ea4799e1a4245e2f",
        "c5c2cf2ad7d921922ef301af69e1a25bca9fa5d5e38b83ba92302452097ef952"),
    "hw-fhn": (
        "4146410c9991f43f14dcca6565a7e7f050c415b1c0b8be830f410f4044dec1f6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hw-gpac": (
        "873dd7423e22355ca787f69b512893cb87f68afddbee87fd182c0a6fec96aa18",
        "357d0174d57742628341fda26086727928153a6d2be8afd5841c0b0428773b20"),
    "intercon-obc": (
        "0e73c221c978faa358976f58b1a8520c7e61db25c1897737a2cc1112a1812933",
        "7318aedf13cc457ffe5d1fe7133a8ebb0e4764243c13d44f0a51d288df480c54"),
    "noisy_decay.ark:leaky-noise": (
        "84a9b81c34507e60d2ea64ee73b61b3af00d1be1e2c7050799977d85a62ce164",
        "0a4710f38d0817ac65081d7a305f6ea1d66568cc093abf8772f635a0b5af7538"),
    "ns-obc": (
        "2c6c9e0aabb13a6a4d554133921e7988ee7bb9b235612fd648d39f1f9614f0e5",
        "e66d4d23bd324f53cdc696528b438826861592842e60fa09ba76f5bce8b5003b"),
    "ns-tln": (
        "ba46b34164c7655698899780002c0ba6c6bc208b9ed97973c4b7b76986f03c16",
        "755df733f3402016d50dd7ce7d01569b779709fa55800cb439fbc9fe89e8c69a"),
    "obc": (
        "790948f80df3681928e18ba02b91f06a60ee1309de64a19ba5c7b8468bcddffc",
        "25df8f69cd7184dbaebfb814d1ae6cdd2ac231514ed2c6b5ab9fa50f60e902d6"),
    "ofs-obc": (
        "381e27c1dde9514d6e5c454092c4cae73f324dd449f18ccca4b7e9afb55a4857",
        "cd2ab2e665361b9f966dcb8e767ecbcf8742bec90cfc2cddb83d73dfb965ffcf"),
    "sw-tln": (
        "fd617f893ca07b9269cc8636dfd70bcf60745d8dc6bb0d4dd6e8a6a0784a3af8",
        "58978f5bf077505eb5bc38d634316dc1d8a438f5140c11239151d678fe6e7127"),
    "tln": (
        "65647f9d8f53517e085c493fb9be45653c9d7b2f284663d8f99f7ff46108bf12",
        "88fe0d7d4cf09d666db5bcdefca4b2ece0062451399d06d6b7277734939fe596"),
    "two_pole.ark:leaky": (
        "562876364649c198c6bf0a3ef7261e97d67aaf1b67681ddd8b1194700b748133",
        "700332a9f34a16637f453afa15584edf9aa19aedebcb5588eb58a0c2a5ef1838"),
}

FUNCTION_GOLDEN = {
    "br_func.ark:br-func": (
        "545ee3b419c928bda16fe8bd9e0830b7c53f72b469e5fa11f0224fcc7d8c93f5",
        "b2264def4733616719156c3e3611cd06fecc979c7fe6bc01cc79e4e41c859ea9"),
    "maxcut.ark:maxcut": (
        "d3912e92fd3bc1625cbe3289b34c93c50a03481270394476f6cc44c6967130db",
        "98b52f2656069f0ae2403a33d681b304f962ebfd1355ae743fb300d8183f1080"),
    "noisy_decay.ark:noisy-cell": (
        "de79a58443e04bd6ffc3e84eb12195a5dbb5519c913c967a0b49173762b5b399",
        "35d188d746935ac49f34e4de930d60e61a259ddde54358b622e31139374b2afd"),
    "two_pole.ark:two-pole": (
        "5f708a82e82185e5d8b0e81e1a5d5db8386df379f5e2cfde2d0f50cff1c7c93b",
        "7fc30cec043d61941a0867266aaaaa5d59c5f2b3343caef66f18cc1f2491b0df"),
    "van_der_pol.ark:van-der-pol": (
        "56ac0e62b9835bdb72aa3fd6213c3ab8883d6bcdbea93f311fceb8348b9014ac",
        "a7ac5fbfc94842b76fa904c8a509379a17dfb18210c3356e3c16626634ad6e69"),
}


@pytest.fixture(scope="module")
def languages():
    return _languages()


def test_every_language_covered(languages):
    assert set(languages) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rule_digests(languages, name):
    language = languages[name]
    assert (_sha(unparse_language(language)),
            _sha(_structure(language))) == GOLDEN[name]


@pytest.fixture(scope="module")
def functions():
    return _functions()


def test_every_function_covered(functions):
    assert set(functions) == set(FUNCTION_GOLDEN)


@pytest.mark.parametrize("name", sorted(FUNCTION_GOLDEN))
def test_function_digests(functions, name):
    function = functions[name]
    body = "\n".join(repr(item)
                     for item in function.args + function.statements)
    assert (_sha(unparse_function(function)), _sha(body)) == \
        FUNCTION_GOLDEN[name]
