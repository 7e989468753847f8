import itertools

from czfkit import corpus
from czfkit.corpus import bounded_formulas
from czfkit.formula import alpha_canonical, free_vars, is_bounded, render


def test_deterministic():
    a = [render(f) for f in bounded_formulas(2, 2, limit=100)]
    b = [render(f) for f in bounded_formulas(2, 2, limit=100)]
    assert a == b


def test_all_bounded_with_expected_free_vars():
    allowed = {"x1", "x2"}
    for f in bounded_formulas(2, 2, limit=100):
        assert is_bounded(f)
        assert free_vars(f) <= allowed


GRID = list(itertools.product(range(4), range(4),
                              (1, 10, 60, 100, 120, 150, 250, 500, 800),
                              (False, True)))


def test_no_alpha_duplicates():
    for args in GRID:
        seen = set()
        for f in bounded_formulas(*args):
            key = render(alpha_canonical(f))
            assert key not in seen, args
            seen.add(key)


def test_limit_and_growth():
    small = bounded_formulas(1, 1, limit=500)
    big = bounded_formulas(1, 2, limit=500)
    assert len(big) > len(small) > 0
    assert len(bounded_formulas(1, 2, limit=10)) <= 21  # cap applies per level


def test_literals_toggle():
    plain = {render(f) for f in bounded_formulas(1, 1, limit=100)}
    rich = {render(f) for f in bounded_formulas(1, 1, limit=100,
                                                include_literals=True)}
    assert any("{}" in t for t in rich - plain)


def _bounded_formulas_dropping_alpha_duplicates(free_count, max_depth, limit,
                                               include_literals):
    """The reference: the formulas of corpus._grow's levels, each one
    alpha-equivalent to an earlier one dropped, cut at limit."""
    scope = tuple(f"x{i + 1}" for i in range(free_count))
    seen, out = set(), []
    for lvl in corpus._grow(scope, max_depth, limit, include_literals):
        for f in lvl:
            key = alpha_canonical(f)
            if key not in seen:
                seen.add(key)
                out.append(f)
                if len(out) >= limit:
                    return out
    return out


def test_bounded_formulas_match_the_alpha_dedup_reference():
    for args in GRID:
        assert bounded_formulas(*args) == \
            _bounded_formulas_dropping_alpha_duplicates(*args), args

