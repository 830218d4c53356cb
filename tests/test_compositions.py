import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ribbon_schur import compositions
from ribbon_schur.compositions import (
    MAX_PART_DIGITS,
    Composition,
    CompositionParseError,
    compare_lex,
    compose,
    composition_parts_from_mask,
    composition_parts_in_range,
    concatenate,
    enumerate_compositions,
    format_composition,
    lex_min_form,
    near_concatenate,
    odot_power,
    parse_composition,
)

from helpers import compose_by_definition, compositions_up_to, odot_power_by_iteration


def C(*parts):
    return Composition(parts)


parts_lists = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8)


class TestCompositionType:
    def test_size_and_length(self):
        assert C(2, 1, 1, 3).size == 7
        assert C(2, 1, 1, 3).length == 4

    @pytest.mark.parametrize("bad", [(), (0,), (-1, 2), (1, 0, 2), ("2",), (1.5,)])
    def test_rejects_invalid_parts(self, bad):
        with pytest.raises(ValueError):
            Composition(bad)

    def test_structural_equality_and_hash(self):
        assert C(1, 2) == C(1, 2)
        assert hash(C(1, 2)) == hash((1, 2))
        assert C(1, 2) != C(2, 1)


class TestMonoidOperations:
    def test_concatenate(self):
        assert concatenate(C(2, 1), C(1, 3)) == C(2, 1, 1, 3)
        assert concatenate(C(1), C(1)) == C(1, 1)
        assert concatenate(C(1, 2), C(2, 1)) == C(1, 2, 2, 1)

    def test_near_concatenate(self):
        assert near_concatenate(C(1, 1), C(1, 1)) == C(1, 2, 1)
        assert near_concatenate(C(2), C(2)) == C(4)
        assert near_concatenate(C(2, 1), C(1, 3)) == C(2, 2, 3)

    def test_odot_power(self):
        assert odot_power(C(1, 1), 2) == C(1, 2, 1)
        assert odot_power(C(2), 3) == C(6)
        assert odot_power(C(1, 1), 4) == C(1, 2, 2, 2, 1)
        with pytest.raises(ValueError):
            odot_power(C(1, 1), 0)

    @given(parts_lists, st.integers(min_value=1, max_value=6))
    def test_odot_power_matches_iterated_definition(self, parts, n):
        alpha = Composition(parts)
        expected = odot_power_by_iteration(tuple(parts), n)
        got = odot_power(alpha, n)
        assert tuple(got) == expected
        assert got.size == n * alpha.size
        assert got.length == n * alpha.length - (n - 1)

    def test_compose_known_products(self):
        assert compose(C(1, 1), C(2)) == C(2, 2)
        assert compose(C(2), C(1, 1)) == C(1, 2, 1)
        assert compose(C(1, 2), C(2, 1)) == C(2, 1, 2, 3, 1)

    def test_compose_neutral_element(self):
        one = C(1)
        for parts in compositions_up_to(6):
            alpha = Composition(parts)
            assert compose(one, alpha) == alpha
            assert compose(alpha, one) == alpha

    @given(parts_lists, parts_lists)
    def test_compose_matches_definition(self, a, b):
        assert tuple(compose(Composition(a), Composition(b))) == compose_by_definition(
            tuple(a), tuple(b)
        )

    def test_reverse_and_symmetry(self):
        assert C(1, 2, 3).reverse() == C(3, 2, 1)
        assert C(1, 2, 1).reverse() == C(1, 2, 1)
        assert C(1, 2, 1).is_symmetric()
        assert not C(1, 3).is_symmetric()
        assert C(2, 1, 1, 2).is_symmetric()

    def test_reverse_of_composition_product(self):
        lhs = compose(C(1, 2), C(2, 1)).reverse()
        rhs = compose(C(2, 1), C(1, 2))
        assert lhs == rhs == C(1, 3, 2, 1, 2)


class TestOrdering:
    def test_compare_lex(self):
        assert compare_lex(C(1, 3), C(3, 1)) == -1
        assert compare_lex(C(1, 1, 2), C(1, 2, 1)) == -1
        assert compare_lex(C(2, 2), C(2, 2)) == 0
        assert compare_lex(C(3, 1), C(1, 3)) == 1

    def test_prefix_rule_for_container_use(self):
        assert C(1, 2) < C(1, 2, 1)

    def test_lex_min_form(self):
        assert lex_min_form(C(2, 1, 1)) == C(1, 1, 2)
        assert lex_min_form(C(1, 2, 1)) == C(1, 2, 1)
        assert C(3, 1).lex_min_form() == C(1, 3)


class TestAlgebraicLaws:
    def test_associativity_exhaustive_sizes_up_to_4(self):
        comps = [Composition(p) for p in compositions_up_to(4)]
        for a in comps:
            for b in comps:
                ab = compose(a, b)
                for c in comps:
                    assert compose(ab, c) == compose(a, compose(b, c))

    def test_size_length_reversal_laws_sizes_up_to_6(self):
        comps = [Composition(p) for p in compositions_up_to(6)]
        for a in comps:
            for b in comps:
                ab = compose(a, b)
                assert ab.size == a.size * b.size
                assert ab.length == a.length + a.size * (b.length - 1)
                assert ab.reverse() == compose(a.reverse(), b.reverse())

    def test_left_comparison_lemma_sizes_up_to_5(self):
        comps = [Composition(p) for p in compositions_up_to(5)]
        for beta in comps:
            for gamma in comps:
                if beta.length != gamma.length:
                    continue
                for delta in comps:
                    assert (compose(beta, delta) < compose(gamma, delta)) == (beta < gamma)

    def test_right_comparison_lemma_sizes_up_to_5(self):
        comps = [Composition(p) for p in compositions_up_to(5)]
        inner_pairs = [
            (d, e)
            for d in comps
            for e in comps
            if d != e and d.length == e.length and d.size == e.size
        ]
        for beta in comps:
            for gamma in comps:
                if beta.length != gamma.length:
                    continue
                for delta, eps in inner_pairs:
                    assert (compose(beta, delta) < compose(gamma, eps)) == (delta < eps)


class TestEnumeration:
    def test_small_cases(self):
        assert list(enumerate_compositions(1)) == [C(1)]
        assert len(list(enumerate_compositions(4))) == 8
        assert len(list(enumerate_compositions(10))) == 512

    def test_documented_order_for_n_4(self):
        expected = [
            (4,), (1, 3), (2, 2), (1, 1, 2), (3, 1), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1),
        ]
        assert [tuple(c) for c in enumerate_compositions(4)] == expected

    @pytest.mark.parametrize("n", range(1, 11))
    def test_distinct_and_sized(self, n):
        seen = set(enumerate_compositions(n))
        assert len(seen) == 1 << (n - 1)
        assert all(c.size == n for c in seen)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            list(enumerate_compositions(0))


def decoded(n, lo, hi):
    return [composition_parts_from_mask(n, m) for m in range(lo, hi)]


def seeded_ranges(n, count=25):
    # boundaries anywhere, mostly not on the low table's blocks
    rng = random.Random(n)
    total = 1 << (n - 1)
    for _ in range(count):
        lo, hi = sorted(rng.randrange(total + 1) for _ in range(2))
        yield lo, hi
    yield 0, 0
    yield total - 1, total


class TestPartsInRange:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_full_range_is_the_mask_decode(self, n):
        total = 1 << (n - 1)
        assert list(composition_parts_in_range(n, 0, total)) == decoded(n, 0, total)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_unaligned_ranges(self, n):
        for lo, hi in seeded_ranges(n):
            assert list(composition_parts_in_range(n, lo, hi)) == decoded(n, lo, hi), (lo, hi)

    @pytest.mark.parametrize("low_bits", [1, 2, 3])
    def test_small_tables(self, monkeypatch, low_bits):
        # with a narrow low half every n past low_bits + 1 goes through the seam
        monkeypatch.setattr(compositions, "_LOW_BITS", low_bits)
        for n in range(1, 13):
            total = 1 << (n - 1)
            assert list(composition_parts_in_range(n, 0, total)) == decoded(n, 0, total), n
            for lo, hi in seeded_ranges(n, count=5):
                assert list(composition_parts_in_range(n, lo, hi)) == decoded(n, lo, hi)

    def test_ranges_partition_the_enumeration(self):
        n, total = 16, 1 << 15
        cuts = [0, 1, 1023, 1024, 1025, 5000, 10922, 21845, 32767, total]
        pieces = [list(composition_parts_in_range(n, a, b)) for a, b in zip(cuts, cuts[1:])]
        assert sum(pieces, []) == [tuple(c) for c in enumerate_compositions(n)]


class TestTextFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1,2,1", (1, 2, 1)),
            ("(1,2,1)", (1, 2, 1)),
            (" 2 , 4 ", (2, 4)),
            ("7", (7,)),
            ("(12)", (12,)),
        ],
    )
    def test_parse_accepts(self, text, expected):
        assert tuple(parse_composition(text)) == expected

    @pytest.mark.parametrize(
        "text", ["", "  ", "()", "1,0,2", "-1,2", "1,,2", "a,b", "1;2", "１,2", "²,1"]
    )
    def test_parse_rejects(self, text):
        with pytest.raises(CompositionParseError):
            parse_composition(text)

    def test_parse_error_names_token(self):
        with pytest.raises(CompositionParseError, match="'x'"):
            parse_composition("1,x,2")
        with pytest.raises(CompositionParseError, match="'0'"):
            parse_composition("1,0,2")

    def test_parse_caps_digits(self):
        assert parse_composition("9" * MAX_PART_DIGITS) == (10**MAX_PART_DIGITS - 1,)
        with pytest.raises(CompositionParseError, match="5000 digits"):
            parse_composition("1," + "7" * 5000)

    def test_format(self):
        assert format_composition(C(1, 2, 1)) == "1,2,1"
        assert format_composition(C(1, 2, 1), parens=True) == "(1,2,1)"

    @given(parts_lists)
    def test_round_trip(self, parts):
        alpha = Composition(parts)
        assert parse_composition(format_composition(alpha)) == alpha
        assert parse_composition(format_composition(alpha, parens=True)) == alpha
