import pickle
import random
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbon_schur.compositions import Composition, compose, enumerate_compositions
from ribbon_schur.factorization import (
    Factorization,
    _split,
    count_asymmetric_factors,
    equivalence_class,
    equivalent,
    irreducible_factorization,
    is_atom,
    is_irreducible,
    is_trivial_pair,
    normalize,
)

from helpers import (
    compositions_up_to,
    factorization_by_exhaustion,
    split_by_set_lookups,
    splits_by_exhaustion,
    trivial_by_definition,
)


def C(*parts):
    return Composition(parts)


def all_compositions(n):
    return list(enumerate_compositions(n))


class TestFactorizationRecord:
    # reprs and hashes as the frozen dataclass gave them; int and tuple
    # hashes do not depend on PYTHONHASHSEED
    def test_repr_and_hash(self):
        f = irreducible_factorization(C(1, 2, 1, 1, 2, 1))
        assert repr(f) == ("Factorization(factors=(Composition((1, 1)), Composition((2,)),"
                           " Composition((1, 1))))")
        assert hash(f) == 889730208644984497
        assert hash(irreducible_factorization(C(3))) == -4759917355448008827

    def test_equality_is_by_factors_and_class(self):
        f = irreducible_factorization(C(2, 1, 2, 1))
        assert f == Factorization(factors=f.factors) and len({f, Factorization(f.factors)}) == 1
        assert f != irreducible_factorization(C(1, 2, 1, 2))
        assert f != f.factors
        assert pickle.loads(pickle.dumps(f)) == f

    @pytest.mark.parametrize("name", ["factors", "other"])
    def test_is_immutable(self, name):
        f = irreducible_factorization(C(1, 3))
        with pytest.raises(AttributeError):
            setattr(f, name, ())
        with pytest.raises(AttributeError):
            delattr(f, "factors")
        assert f.factors == (C(1, 3),)


# irreducible compositions of size <= 9, found without the library
IRREDUCIBLE_ATOMS = [
    a
    for a in compositions_up_to(9)
    if len(a) > 1
    and max(a) > 1
    and all(trivial_by_definition(*s) for s in splits_by_exhaustion(a))
]


@st.composite
def atom_products(draw):
    """2-10 irreducible atoms whose sizes multiply to at most 5 * 10**4,
    optionally followed by one component (g) with g up to 10**12."""
    budget = 5 * 10**4
    factors = []
    for _ in range(draw(st.integers(2, 10))):
        fitting = [a for a in IRREDUCIBLE_ATOMS if sum(a) <= budget]
        if not fitting:
            break
        factors.append(draw(st.sampled_from(fitting)))
        budget //= sum(factors[-1])
    g = draw(st.none() | st.integers(2, 10**12))
    if g is not None:
        factors.append((g,))
    return factors


class TestTrivialPairs:
    def test_examples(self):
        assert is_trivial_pair(C(2), C(3))
        assert is_trivial_pair(C(1, 1), C(1, 1))
        assert not is_trivial_pair(C(1, 1), C(2))
        assert is_trivial_pair(C(1), C(1, 2, 1))
        assert is_trivial_pair(C(2, 2), C(1))


class TestSplitPairs:
    def test_frozen_examples(self):
        assert _split((2, 2)) == ((1, 1), (2,))
        assert _split((1, 2, 1)) == ((2,), (1, 1))
        assert _split((1, 2, 2, 2, 1)) in {((2,), (1, 2, 1)), ((4,), (1, 1))}
        assert _split((1, 3)) is None

    def test_products_reproduce_input(self):
        for n in range(2, 13):
            for alpha in all_compositions(n):
                split = _split(tuple(alpha))
                if split is not None:
                    beta, gamma = split
                    assert compose(C(*beta), C(*gamma)) == alpha
                    assert not is_trivial_pair(C(*beta), C(*gamma))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_exhaustive_against_pairwise_scan(self, n):
        for alpha in all_compositions(n):
            a = tuple(alpha)
            nontrivial = {
                s for s in splits_by_exhaustion(a) if not trivial_by_definition(*s)
            }
            split = _split(a)
            if nontrivial:
                assert split in nontrivial, alpha
            else:
                assert split is None, alpha

    def test_same_split_as_set_lookups(self):
        wide = tuple(compose(C(*[1] * 20, 3), C(1, 2)))  # m = 23 blocks, past n <= 20 sweeps
        cases = [tuple(a) for a in compositions_up_to(14)]
        cases += [(1,) * 5038 + (2,), wide]
        for alpha in cases:
            assert _split(alpha) == split_by_set_lookups(alpha), alpha
        assert _split(wide) == ((1,) * 20 + (3,), (1, 2))


class TestAtomsAndIrreducibles:
    def test_atom_examples(self):
        assert is_atom(C(4))
        assert is_atom(C(1, 1, 1, 1))
        assert not is_atom(C(2, 2))
        assert is_atom(C(1))

    def test_irreducible_examples(self):
        assert is_irreducible(C(1, 3))
        assert is_irreducible(C(1, 1, 2))
        assert is_irreducible(C(2, 1, 3))
        assert not is_irreducible(C(1, 1))
        assert not is_irreducible(C(5))
        assert not is_irreducible(C(1))

    def test_irreducible_means_atom_with_shape(self):
        for n in range(1, 11):
            for alpha in all_compositions(n):
                expected = (
                    is_atom(alpha) and alpha.length > 1 and max(alpha) > 1
                )
                assert is_irreducible(alpha) == expected


class TestFactorization:
    def test_frozen_examples(self):
        assert irreducible_factorization(C(2, 2)).factors == (C(1, 1), C(2))
        assert irreducible_factorization(C(1, 2, 2, 2, 1)).factors == (C(4), C(1, 1))
        assert irreducible_factorization(C(1, 3)).factors == (C(1, 3),)
        assert irreducible_factorization(C(2, 3, 1, 2, 1)).factors == (C(2, 1), C(2, 1))

    def test_size_one_factors_as_itself(self):
        assert irreducible_factorization(C(1)).factors == (C(1),)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_recomposition_and_invariants(self, n):
        for alpha in all_compositions(n):
            factorization = irreducible_factorization(alpha)
            factors = factorization.factors
            assert factorization.product() == alpha
            if n > 1:
                assert all(f != C(1) for f in factors)
            assert all(is_atom(f) for f in factors)
            for left, right in zip(factors, factors[1:]):
                assert not is_trivial_pair(left, right)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_unique_under_exploration_order(self, n):
        # the reference recurses on the last nontrivial split, _split on the first
        for alpha in all_compositions(n):
            factors = irreducible_factorization(alpha).factors
            assert tuple(map(tuple, factors)) == factorization_by_exhaustion(tuple(alpha))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_reversal_maps_to_reversed_factors(self, n):
        for alpha in all_compositions(n):
            factors = irreducible_factorization(alpha).factors
            reversed_factors = irreducible_factorization(alpha.reverse()).factors
            assert reversed_factors == tuple(f.reverse() for f in factors)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_symmetry_criterion(self, n):
        for alpha in all_compositions(n):
            factors = irreducible_factorization(alpha).factors
            assert alpha.is_symmetric() == all(f.is_symmetric() for f in factors)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_lex_min_criterion_via_last_asymmetric_factor(self, n):
        for alpha in all_compositions(n):
            if alpha.is_symmetric():
                continue
            factors = irreducible_factorization(alpha).factors
            last_asymmetric = [f for f in factors if not f.is_symmetric()][-1]
            assert (alpha < alpha.reverse()) == (last_asymmetric < last_asymmetric.reverse())


class TestLengthBound:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(atom_products())
    def test_recovers_random_atom_products(self, factors):
        alpha = reduce(compose, map(Composition, factors))
        assert irreducible_factorization(alpha).factors == tuple(map(Composition, factors))

    def test_no_memo_outlives_a_call(self):
        rng = random.Random(0)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            for _ in range(200):
                normalize(Composition(rng.randint(1, 9) for _ in range(2000)))
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert grown < 2 * 2**20


class TestNormalize:
    def test_frozen_examples(self):
        assert normalize(C(3, 1)) == C(1, 3)
        assert normalize(C(2, 3, 1, 2, 1)) == C(1, 2, 1, 3, 2)
        assert normalize(C(1, 2, 1)) == C(1, 2, 1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_idempotent_and_reversal_invariant(self, n):
        for alpha in all_compositions(n):
            normal = normalize(alpha)
            assert normalize(normal) == normal
            assert normalize(alpha.reverse()) == normal

    @pytest.mark.parametrize("n", range(1, 11))
    def test_normal_form_has_lex_min_factors(self, n):
        for alpha in all_compositions(n):
            for f in irreducible_factorization(normalize(alpha)).factors:
                assert f == f.lex_min_form()


class TestEquivalence:
    def test_examples(self):
        assert equivalent(C(1, 2, 1, 3, 2), C(1, 3, 2, 1, 2))
        assert not equivalent(C(1, 3), C(2, 2))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_reversal_always_equivalent(self, n):
        for alpha in all_compositions(n):
            assert equivalent(alpha, alpha.reverse())

    def test_class_examples(self):
        assert equivalence_class(C(1, 2, 1)) == {C(1, 2, 1)}
        assert equivalence_class(C(1, 3)) == {C(1, 3), C(3, 1)}
        assert equivalence_class(C(1, 2, 1, 3, 2)) == {
            C(1, 2, 1, 3, 2),
            C(1, 3, 2, 1, 2),
            C(2, 1, 2, 3, 1),
            C(2, 3, 1, 2, 1),
        }

    def test_class_members_share_the_normal_form(self):
        for n in range(1, 10):
            for alpha in all_compositions(n):
                normal = normalize(alpha)
                for member in equivalence_class(alpha):
                    assert normalize(member) == normal

    @pytest.mark.parametrize("n", range(1, 13))
    def test_class_size_is_power_of_asymmetric_count(self, n):
        for alpha in all_compositions(n):
            assert len(equivalence_class(alpha)) == 1 << count_asymmetric_factors(alpha)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_class_sizes_partition_all_compositions(self, n):
        normal_forms = {normalize(alpha) for alpha in all_compositions(n)}
        total = sum(len(equivalence_class(rho)) for rho in normal_forms)
        assert total == 1 << (n - 1)


class TestAsymmetricFactorCount:
    def test_examples(self):
        assert count_asymmetric_factors(C(1, 2, 1)) == 0
        assert count_asymmetric_factors(C(1, 3)) == 1
        assert count_asymmetric_factors(C(1, 2, 1, 3, 2)) == 2
