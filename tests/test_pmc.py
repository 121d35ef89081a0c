from fractions import Fraction

import pytest

from pmcsynth.pmc import (
    Imc,
    InfeasibleRowError,
    ModelError,
    ModelSyntaxError,
    Param,
    Pmc,
    SupportError,
    imc_to_pmc,
    instantiate,
    parse_evaluation,
    parse_model,
    well_defined,
)

COIN = """
pmc
param p in (0, 1);
state s {start};
state h {heads};
state t {tails};
init s;
trans s -> h : p;
trans s -> t : 1 - p;
trans h -> h : 1;
trans t -> t : 1;
"""


def test_parse_pmc():
    M = parse_model(COIN)
    assert isinstance(M, Pmc)
    assert M.states == ("s", "h", "t")
    assert M.initial == 0
    assert M.labels[0] == {"start"}
    assert set(M.params) == {"p"}
    assert M.params["p"].lower_strict and M.params["p"].upper_strict
    assert M.props() == ("heads", "start", "tails")
    assert set(M.trans) == {(0, 1), (0, 2), (1, 1), (2, 2)}


def test_parse_comments_and_fractions():
    M = parse_model(
        """
        # tiny two-state chain
        pmc
        state a {x, y};
        state b;          # no label
        init a;
        trans a -> b : 3/10;  # fractions and decimals both work
        trans a -> a : 0.7;
        trans b -> b : 1;
        """
    )
    assert M.labels == (frozenset({"x", "y"}), frozenset())
    assert M.trans[(0, 1)].value() == Fraction(3, 10)
    assert M.trans[(0, 0)].value() == Fraction(7, 10)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("mc\nstate s;\ninit s;", "must start"),
        ("pmc\nstate s;\nstate s;\ninit s;\ntrans s -> s : 1;", "declared twice"),
        ("pmc\nparam p in (0,1);\nparam p in (0,1);\nstate s;\ninit s;\ntrans s -> s : 1;", "declared twice"),
        ("pmc\nparam p in (1,0);\nstate s;\ninit s;\ntrans s -> s : 1;", "empty range"),
        ("pmc\nstate s;\ntrans s -> s : 1;", "missing init"),
        ("pmc\nstate s;\ninit t;\ntrans s -> s : 1;", "not declared"),
        ("pmc\nstate s;\ninit s;", "no outgoing"),
        ("pmc\nstate s;\ninit s;\ntrans s -> s : 1/2;", "sums to 1/2"),
        ("pmc\nstate s;\nstate t;\ninit s;\ntrans s -> t : 0;\ntrans s -> s : 1;\ntrans t -> t : 1;", "omit it"),
        ("pmc\nstate s;\ninit s;\ntrans s -> s : 3/2;", "outside"),
        ("pmc\nstate s;\ninit s;\ntrans s -> s : 1;\ntrans s -> s : 1;", "given twice"),
        ("pmc\nstate s;\ninit s;\ninit s;\ntrans s -> s : 1;", "more than one init"),
        ("imc\nparam p in (0,1);\nstate s;\ninit s;", "do not declare"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ModelSyntaxError, match=fragment):
        parse_model(text)


def test_parse_imc():
    M = parse_model(
        """
        imc
        state s;
        state t {goal};
        init s;
        trans s -> t : [1/5, 7/10];
        trans s -> s : [3/10, 1/2];
        trans t -> t : [1, 1];
        """
    )
    assert isinstance(M, Imc)
    assert M.lower[(0, 1)] == Fraction(1, 5)
    assert M.upper[(0, 1)] == Fraction(7, 10)


def test_imc_zero_interval_dropped():
    M = parse_model(
        """
        imc
        state s;
        state t;
        init s;
        trans s -> t : [0, 0];
        trans s -> s : [1, 1];
        trans t -> t : [1, 1];
        """
    )
    assert (0, 1) not in M.upper


def test_imc_infeasible_row():
    with pytest.raises(InfeasibleRowError):
        parse_model(
            """
            imc
            state s;
            state t;
            init s;
            trans s -> t : [0, 1/3];
            trans s -> s : [0, 1/3];
            trans t -> t : [1, 1];
            """
        )


def test_imc_to_pmc():
    I = parse_model(
        """
        imc
        state s;
        state t {goal};
        init s;
        trans s -> t : [1/5, 7/10];
        trans s -> s : [3/10, 1/2];
        trans t -> t : [1, 1];
        """
    )
    M = imc_to_pmc(I)
    assert set(M.params) == {"p_s_t", "p_s_s", "p_t_t"}
    p = M.params["p_s_t"]
    assert (p.lower, p.upper) == (Fraction(1, 5), Fraction(7, 10))
    assert not p.lower_strict and not p.upper_strict
    rep = well_defined(
        M,
        {"p_s_t": Fraction(1, 2), "p_s_s": Fraction(1, 2), "p_t_t": Fraction(1)},
    )
    assert rep.ok


def test_param_admits():
    p = Param("p", Fraction(0), Fraction(1), lower_strict=True, upper_strict=False)
    assert not p.admits(Fraction(0))
    assert p.admits(Fraction(1))
    assert p.admits(Fraction(1, 2))
    assert not p.admits(Fraction(3, 2))
    assert p.bounds_str() == "(0, 1]"


def test_parse_evaluation():
    ev = parse_evaluation("eps=1/10, p=0.3")
    assert ev == {"eps": Fraction(1, 10), "p": Fraction(3, 10)}
    with pytest.raises(ModelError):
        parse_evaluation("p")
    with pytest.raises(ModelError):
        parse_evaluation("p=1,p=2")
    with pytest.raises(ModelError):
        parse_evaluation("p=one")


def test_well_defined():
    M = parse_model(COIN)
    assert well_defined(M, {"p": Fraction(1, 2)}).ok
    bad = well_defined(M, {"p": Fraction(0)})
    assert not bad.ok
    assert any("evaluates to 0" in p for p in bad.problems)
    with pytest.raises(ModelError):
        well_defined(M, {})
    with pytest.raises(ModelError):
        well_defined(M, {"p": Fraction(1, 2), "q": Fraction(1, 2)})


def test_well_defined_row_sum():
    M = parse_model(
        """
        pmc
        param p in (0, 1);
        state s;
        state t;
        init s;
        trans s -> t : p;
        trans s -> s : p;
        trans t -> t : 1;
        """
    )
    rep = well_defined(M, {"p": Fraction(1, 3)})
    assert not rep.ok
    assert any("sums to 2/3" in x for x in rep.problems)
    assert well_defined(M, {"p": Fraction(1, 2)}).ok


def test_instantiate():
    M = parse_model(COIN)
    N = instantiate(M, {"p": Fraction(1, 4)})
    assert N.params == {}
    assert N.trans[(0, 1)].value() == Fraction(1, 4)
    assert N.trans[(0, 2)].value() == Fraction(3, 4)
    # partial instantiation keeps the rest symbolic
    same = instantiate(M, {})
    assert set(same.params) == {"p"}


def test_instantiate_support_error():
    M = parse_model(
        """
        pmc
        param eps in (-1/2, 1/2);
        state x;
        state y;
        init x;
        trans x -> y : 1/2 + eps;
        trans x -> x : 1/2 - eps;
        trans y -> y : 1;
        """
    )
    with pytest.raises(SupportError):
        instantiate(M, {"eps": Fraction(1, 2)})
    N = instantiate(M, {"eps": Fraction(1, 4)})
    assert N.trans[(0, 1)].value() == Fraction(3, 4)
