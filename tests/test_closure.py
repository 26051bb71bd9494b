"""``closure.bounded_closure`` against the code it replaced, and its name checks.

``closure_oracle`` keeps the former closure verbatim.  On pushouts of random
spans and on random generator presentations both must give the same
category and letter map, compared by ``repr``, or the same ``BudgetError``.
Letters may not pose as identities, and no two morphisms may share a name.
"""
import random

import pytest

import closure_oracle as oracle
from test_acceptance import random_category, random_functor

from smallcat import closure
from smallcat.closure import category_from_generators
from smallcat.fincat import BudgetError, discrete_category, validate_category
from smallcat.soa import pushout_category


def outcome(run):
    try:
        return repr(run())
    except BudgetError as exc:
        return f"BudgetError: {exc}"


def same_as_oracle(monkeypatch, run) -> str:
    """The outcome of ``run``, which must not change when the former
    closure replaces ``closure.bounded_closure``."""
    new = outcome(run)
    with monkeypatch.context() as m:
        m.setattr(closure, "bounded_closure", oracle.bounded_closure)
        assert outcome(run) == new
    return new


def random_presentation(rng):
    objects = [f"o{k}" for k in range(rng.randint(1, 3))]
    arrows = {f"a{k}": (rng.choice(objects), rng.choice(objects))
              for k in range(rng.randint(1, 4))}
    relations = {}
    for _ in range(rng.randint(0, 3)):
        f, g = rng.choice(sorted(arrows)), rng.choice(sorted(arrows))
        if arrows[f][0] != arrows[g][1]:
            continue
        ends = (arrows[g][0], arrows[f][1])
        outs = [h for h in arrows if arrows[h] == ends]
        if ends[0] == ends[1]:
            outs.append("")
        if outs:
            relations[(f, g)] = rng.choice(outs)
    return objects, arrows, relations


def test_closure_matches_the_oracle_on_pushouts_and_presentations(monkeypatch):
    rng = random.Random(1212)
    kinds = []   # True for a budget error
    for _ in range(300):
        A = discrete_category([f"a{k}" for k in range(rng.randint(1, 2))])
        i = random_functor(rng, A, random_category(rng))
        f = random_functor(rng, A, random_category(rng))
        budget = {"max_morphisms": rng.randint(6, 40),
                  "max_word_len": rng.randint(2, 6)}
        kinds.append(same_as_oracle(
            monkeypatch,
            lambda: pushout_category(i, f, **budget)).startswith("Budget"))
    for _ in range(500):
        objects, arrows, relations = random_presentation(rng)
        budget = {"max_morphisms": rng.randint(6, 40),
                  "max_word_len": rng.randint(2, 6)}
        kinds.append(same_as_oracle(
            monkeypatch,
            lambda: category_from_generators(objects, arrows, relations,
                                             **budget)).startswith("Budget"))
    # both outcomes are exercised
    assert 0 < sum(kinds) < len(kinds)


def test_a_letter_named_as_an_identity_is_rejected():
    with pytest.raises(ValueError, match="1@y is named as the identity at y"):
        category_from_generators(["x", "y"], {"1@y": ("x", "y")})
    with pytest.raises(ValueError, match="1@x is named as the identity at x"):
        category_from_generators(["x"], {"1@x": ("x", "x")})
    # an arrow may not take the name the relation's identity letter gets
    with pytest.raises(ValueError, match="arrow 1@x"):
        category_from_generators(["x"], {"1@x": ("x", "x"), "t": ("x", "x")},
                                 {("t", "t"): ""})
    with pytest.raises(ValueError, match="1@x is named as the identity at x"):
        closure.bounded_closure(["x", "y"], {"1@x": ("y", "y")}, {}, {"1@x"})


def test_a_composite_named_as_a_letter_is_rejected():
    with pytest.raises(ValueError, match=r"f\*g names two morphisms"):
        category_from_generators(
            ["x", "y", "z"],
            {"f": ("y", "z"), "g": ("x", "y"), "f*g": ("x", "z")})
    # the same letters are fine once the relation identifies them
    cat, letters = category_from_generators(
        ["x", "y", "z"],
        {"f": ("y", "z"), "g": ("x", "y"), "f*g": ("x", "z")},
        {("f", "g"): "f*g"})
    assert validate_category(cat) == []
    assert len(cat.morphisms) == 6 and letters["f*g"] == "f*g"


def test_a_prefix_that_names_no_object_makes_an_ordinary_letter():
    cat, letters = category_from_generators(["x", "y"], {"1@z": ("x", "y")})
    assert validate_category(cat) == [] and letters["1@z"] == "1@z"
    assert (cat.source["1@z"], cat.target["1@z"]) == ("x", "y")


def test_word_reduction_is_bounded_in_the_forms_it_visits():
    # every pair of six letters reduces to each of them, so a word of ten
    # letters reaches every word of up to five letters, and far more forms
    # than the budget allows; without the budget this ran for minutes
    letters = "abcdef"
    rules = {(x, y): set(letters) for x in letters for y in letters}
    with pytest.raises(BudgetError,
                       match="^word reduction exceeded closure budget$"):
        closure._reduce_words(tuple("a" * 10), set(), rules, 10)
    # a word of two letters reaches only the six one-letter forms
    assert closure._reduce_words(("a", "b"), set(), rules, 10) == \
        {(x,) for x in letters}


def test_closure_budget_errors_name_their_kind_limit_and_reach():
    letters = "abcdef"
    rules = {(x, y): set(letters) for x in letters for y in letters}
    with pytest.raises(BudgetError,
                       match="^word reduction exceeded closure budget$") as err:
        closure._reduce_words(tuple("a" * 10), set(), rules, 10)
    assert (err.value.kind, err.value.limit, err.value.reached) == \
        ("word_reduction", 20_000, 20_001)
    with pytest.raises(BudgetError,
                       match="^word length exceeded closure budget$") as err:
        closure._reduce_words(tuple("a" * 4), set(), {}, 3)
    assert (err.value.kind, err.value.limit, err.value.reached) == \
        ("word_length", 3, 4)
    # a free loop has a morphism for every word: the identity, then f, ff, ...
    with pytest.raises(BudgetError,
                       match="^closure exceeded morphism budget$") as err:
        category_from_generators(["x"], {"f": ("x", "x")}, max_morphisms=5)
    assert (err.value.kind, err.value.limit, err.value.reached) == \
        ("closure_morphisms", 5, 6)
