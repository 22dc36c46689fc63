"""Unit tests for Language: declaration, lookup, and the §4.1.1
language-level inheritance rules."""

import pytest

import repro
from repro.core.language import Language
from repro.errors import InheritanceError, LanguageError


def _base() -> Language:
    lang = Language("base")
    lang.node_type("V", order=1, reduction="sum",
                   attrs=[("c", repro.real(0.0, 10.0))])
    lang.node_type("I", order=1, reduction="sum",
                   attrs=[("l", repro.real(0.0, 10.0))])
    lang.edge_type("E")
    lang.prod("prod(e:E,s:V->t:I) t<=var(s)/t.l")
    lang.cstr("cstr V {acc[match(0,inf,E,V->[I])]}")
    return lang


class TestDeclaration:
    def test_node_type_requires_order_for_roots(self):
        lang = Language("l")
        with pytest.raises(LanguageError):
            lang.node_type("X")

    def test_duplicate_type_names_rejected(self):
        lang = _base()
        with pytest.raises(LanguageError):
            lang.node_type("V", order=1)
        with pytest.raises(LanguageError):
            lang.edge_type("V")

    def test_rule_references_checked(self):
        lang = _base()
        with pytest.raises(LanguageError):
            lang.prod("prod(e:E,s:V->t:Q) t<=var(s)")
        with pytest.raises(LanguageError):
            lang.prod("prod(e:Q,s:V->t:I) t<=var(s)")

    def test_rule_unknown_function_rejected(self):
        lang = _base()
        with pytest.raises(LanguageError):
            lang.prod("prod(e:E,s:I->t:V) t<=mystery(var(s))")

    def test_registered_function_usable(self):
        lang = _base()
        lang.register_function("gain", lambda x: 2 * x)
        lang.prod("prod(e:E,s:I->t:V) t<=gain(var(s))")

    def test_duplicate_rule_signature_rejected(self):
        lang = _base()
        with pytest.raises(LanguageError):
            lang.prod("prod(e:E,s:V->t:I) t<=2*var(s)/t.l")

    def test_dashed_names_in_rule_strings(self):
        lang = Language("l")
        lang.node_type("br-V", order=1, reduction="sum")
        lang.edge_type("br-E")
        rule = lang.prod("prod(e:br-E,s:br-V->s:br-V) s<=-var(s)")
        assert (rule.edge_type, rule.src_type) == ("br-E", "br-V")
        cstr = lang.cstr("cstr br-V {acc[match(1,1,br-E,br-V)]}")
        assert cstr.accepted[0].clauses[0].edge_type == "br-E"

    def test_cstr_references_checked(self):
        lang = _base()
        with pytest.raises(LanguageError):
            lang.cstr("cstr Q {acc[match(1,1,E,Q)]}")
        with pytest.raises(LanguageError):
            lang.cstr("cstr V {acc[match(1,1,Q,V)]}")
        with pytest.raises(LanguageError):
            lang.cstr("cstr V {acc[match(0,inf,E,V->[Q])]}")

    def test_extern_check_must_be_callable(self):
        lang = _base()
        with pytest.raises(LanguageError):
            lang.extern_check("not callable")

    def test_attr_spec_forms(self):
        lang = Language("forms")
        lang.node_type("A", order=1, attrs=[
            repro.AttrDecl("x", repro.real(0, 1)),
            ("y", repro.real(0, 1)),
            ("z", repro.real(0, 1), {"const": True, "default": 0.5}),
        ])
        node_type = lang.find_node_type("A")
        assert set(node_type.attrs) == {"x", "y", "z"}
        assert node_type.attrs["z"].const
        assert node_type.attrs["z"].default == 0.5


class TestLookup:
    def test_find_through_chain(self):
        base = _base()
        derived = Language("derived", parent=base)
        assert derived.find_node_type("V") is base.find_node_type("V")
        assert derived.find_edge_type("E") is base.find_edge_type("E")

    def test_merged_tables(self):
        base = _base()
        derived = Language("derived", parent=base)
        derived.node_type("Vm", inherits="V")
        assert set(derived.node_types()) == {"V", "I", "Vm"}
        assert set(base.node_types()) == {"V", "I"}

    def test_productions_accumulate(self):
        base = _base()
        derived = Language("derived", parent=base)
        derived.edge_type("Em", inherits="E")
        derived.prod("prod(e:Em,s:V->t:I) t<=2*var(s)/t.l")
        assert len(derived.productions()) == 2
        assert len(base.productions()) == 1

    def test_constraints_for_subtype(self):
        base = _base()
        derived = Language("derived", parent=base)
        vm = derived.node_type("Vm", inherits="V")
        rules = derived.constraints_for(vm)
        assert len(rules) == 1
        assert rules[0].node_type == "V"

    def test_functions_merge_builtins(self):
        lang = _base()
        functions = lang.functions()
        assert "sin" in functions
        lang.register_function("custom", lambda x: x)
        assert "custom" in lang.functions()

    def test_chain_order(self):
        base = _base()
        mid = Language("mid", parent=base)
        top = Language("top", parent=mid)
        assert [lang.name for lang in top.chain()] == \
            ["top", "mid", "base"]


class TestInheritanceRules:
    def test_new_rule_must_mention_own_type(self):
        base = _base()
        derived = Language("derived", parent=base)
        with pytest.raises(InheritanceError):
            derived.prod("prod(e:E,s:I->t:V) t<=var(s)/t.c")

    def test_new_rule_with_own_type_accepted(self):
        base = _base()
        derived = Language("derived", parent=base)
        derived.node_type("Vm", inherits="V")
        derived.prod("prod(e:E,s:I->t:Vm) t<=var(s)/t.c")

    def test_new_cstr_must_mention_own_type(self):
        base = _base()
        derived = Language("derived", parent=base)
        with pytest.raises(InheritanceError):
            derived.cstr("cstr V {acc[match(0,1,E,V->[I])]}")

    def test_type_shadowing_rejected(self):
        base = _base()
        derived = Language("derived", parent=base)
        with pytest.raises(LanguageError):
            derived.node_type("V", order=1)

    def test_unknown_parent_type(self):
        lang = Language("l")
        with pytest.raises(InheritanceError):
            lang.node_type("Vm", inherits="V")

    def test_derived_inherits_order_automatically(self):
        base = _base()
        derived = Language("derived", parent=base)
        vm = derived.node_type("Vm", inherits="V")
        assert vm.order == 1

    def test_owns_type(self):
        base = _base()
        derived = Language("derived", parent=base)
        derived.node_type("Vm", inherits="V")
        assert derived.owns_type("Vm")
        assert not derived.owns_type("V")
        assert base.owns_type("V")

    def test_root_language_rules_unrestricted(self):
        # Rules in a root language need not mention "new" types.
        lang = _base()
        lang.prod("prod(e:E,s:I->t:V) t<=var(s)/t.c")
