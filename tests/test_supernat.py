import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagflag.errors import DomainError, ScaleError
from diagflag.supernat import (
    INF,
    PRIME_TEST_LIMIT,
    ExhaustionSpec,
    SupernaturalNumber,
    divides_sn,
    factorize,
    is_prime,
    step_ratio,
    validate_exhaustion,
)

SN_2 = SupernaturalNumber.from_factors({2: INF})
SN_2_3F = SupernaturalNumber.from_factors({2: INF, 3: 1})
SN_23 = SupernaturalNumber.from_factors({2: INF, 3: INF})


def test_divides_prime_power_below_infinite_exponent():
    assert divides_sn(8, SN_2)


def test_divides_rejects_missing_prime():
    assert not divides_sn(6, SN_2)


def test_divides_mixed_exponents():
    assert divides_sn(12, SN_2_3F)
    assert not divides_sn(9, SN_2_3F)


@given(st.integers(1, 5000), st.integers(1, 5000))
def test_divides_multiplicative(a, b):
    # if a*b divides, each factor does
    if divides_sn(a * b, SN_23):
        assert divides_sn(a, SN_23) and divides_sn(b, SN_23)


def test_validate_doubling_chain():
    assert validate_exhaustion(ExhaustionSpec(1, (2,)), SN_2).ok


def test_validate_cofinality_failure():
    report = validate_exhaustion(ExhaustionSpec(1, (2,)), SN_23)
    assert not report.ok
    assert any("cofinality" in v and "3" in v for v in report.violations)


def test_validate_two_prime_cycle():
    spec = ExhaustionSpec(3, (2, 3))
    assert validate_exhaustion(spec, SN_23).ok
    # every divisor 2^a 3^b with a, b <= 3 divides one of the first ten terms
    terms = list(spec.terms(10))
    for a in range(4):
        for b in range(4):
            s = 2**a * 3**b
            assert any(t % s == 0 for t in terms), s


def test_validate_finite_exponent_prime_in_cycle():
    report = validate_exhaustion(ExhaustionSpec(3, (3,)), SN_2_3F)
    assert any("membership" in v for v in report.violations)


def test_validate_finite_exponent_needs_s1():
    # 3^1 can only ever be reached through s1
    report = validate_exhaustion(ExhaustionSpec(1, (2,)), SN_2_3F)
    assert any("cofinality" in v and "3^1" in v for v in report.violations)
    assert validate_exhaustion(ExhaustionSpec(3, (2,)), SN_2_3F).ok


def test_step_ratio_values():
    assert step_ratio(ExhaustionSpec(1, (2,)), 5) == 2
    assert step_ratio(ExhaustionSpec(1, (4, 2)), 1) == 4
    assert step_ratio(ExhaustionSpec(2, (6,)), 3) == 6


def test_terms_form_divisibility_chain():
    spec = ExhaustionSpec(3, (2, 3, 5))
    terms = list(spec.terms(100))
    for a, b in zip(terms, terms[1:]):
        assert b % a == 0


def test_cofinality_unrolled_bound():
    # any divisor supported on the spec's primes divides a computable term
    spec = ExhaustionSpec(1, (6,))
    sn = SN_23
    assert validate_exhaustion(spec, sn).ok
    for s in sn.divisors_up_to(500):
        exps = factorize(s)
        bound = 1 + len(spec.cycle) * max(exps.values(), default=0)
        assert any(t % s == 0 for t in spec.terms(bound + 1)), s


def test_invalid_constructions_rejected():
    with pytest.raises(DomainError):
        SupernaturalNumber.from_factors({4: INF})
    with pytest.raises(DomainError):
        SupernaturalNumber.from_factors({2: 0})
    with pytest.raises(DomainError):
        SupernaturalNumber.from_factors({2: 3})  # finite: not an infinite number
    with pytest.raises(DomainError):
        ExhaustionSpec(0, (2,))
    with pytest.raises(DomainError):
        ExhaustionSpec(1, ())


def test_json_roundtrip():
    sn = SupernaturalNumber.from_factors({2: INF, 3: 4})
    assert SupernaturalNumber.from_json_obj(sn.to_json_obj()) == sn
    spec = ExhaustionSpec(6, (2, 3))
    assert ExhaustionSpec.from_json_obj(spec.to_json_obj()) == spec


def test_divisors_up_to():
    assert SN_2.divisors_up_to(20) == [1, 2, 4, 8, 16]
    assert SN_2_3F.divisors_up_to(13) == [1, 2, 3, 4, 6, 8, 12]
    # exact prime powers at the bound must not be lost
    assert SN_2.divisors_up_to(8)[-1] == 8
    sn3 = SupernaturalNumber.from_factors({3: INF})
    assert sn3.divisors_up_to(243)[-1] == 243
    assert sn3.divisors_up_to(2) == [1]


@given(st.integers(1, 3000))
@settings(max_examples=60)
def test_divisors_up_to_complete(bound):
    divs = SN_2_3F.divisors_up_to(bound)
    expected = [s for s in range(1, bound + 1) if divides_sn(s, SN_2_3F)]
    assert divs == expected


@given(st.integers(2, 2000))
@settings(max_examples=60)
def test_factorize_reconstructs(n):
    prod = 1
    for p, k in factorize(n).items():
        assert is_prime(p)
        prod *= p**k
    assert prod == n


@given(st.integers(1, 20000))
@settings(max_examples=200)
def test_divides_matches_full_factorization(s):
    for sn in (SN_2, SN_2_3F, SN_23):
        expected = all(k <= sn.exponent(p) for p, k in factorize(s).items())
        assert divides_sn(s, sn) == expected


def test_divides_with_a_large_foreign_prime():
    big = 2**61 - 1  # prime; trial division would take ~10^9 steps
    assert not divides_sn(big, SN_2)
    assert not divides_sn(big * 8, SN_23)
    assert divides_sn(2**61, SN_2)


def test_validate_reports_foreign_factors_whole():
    report = validate_exhaustion(ExhaustionSpec(2 * 5 * 7, (2 * 11,)), SN_2)
    assert report.violations == (
        "membership: s1 carries the factor 35, prime to the number",
        "membership: cycle introduces the factor 11, prime to the number",
    )
    report = validate_exhaustion(ExhaustionSpec(2**61 - 1, (2,)), SN_2)
    assert report.violations == (
        f"membership: s1 carries the factor {2**61 - 1}, prime to the number",
    )


@pytest.mark.parametrize("exponent", [1.9, 2.0, True, "3", None, [1]])
def test_supernatural_document_rejects_non_integer_exponents(exponent):
    with pytest.raises(DomainError):
        SupernaturalNumber.from_json_obj({"factors": {"2": "inf", "3": exponent}})


@pytest.mark.parametrize(
    "doc",
    [
        {"s1": 2.0, "cycle": [2]},
        {"s1": 1.9, "cycle": [2]},
        {"s1": True, "cycle": [2]},
        {"s1": "2", "cycle": [2]},
        {"s1": 2, "cycle": [2.0]},
        {"s1": 2, "cycle": [False, 2]},
        {"s1": 2, "cycle": ["2"]},
        {"s1": 2, "cycle": "2"},
    ],
)
def test_exhaustion_document_rejects_non_integers(doc):
    with pytest.raises(DomainError):
        ExhaustionSpec.from_json_obj(doc)


def test_is_prime_matches_trial_division_below_10_5():
    assert not any(is_prime(n) for n in range(-3, 2))
    mismatches = [n for n in range(2, 10**5) if is_prime(n) != (factorize(n) == {n: 1})]
    assert mismatches == []


def test_is_prime_on_large_numbers():
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert not is_prime(1000003 * (2**61 - 1))
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5 and 7
    # The least strong pseudoprime to the first twelve prime bases: composite,
    # and caught by the thirteenth base.
    assert not is_prime(318665857834031151167461)
    assert not is_prime(PRIME_TEST_LIMIT - 1)


def test_is_prime_refuses_numbers_beyond_its_bound():
    with pytest.raises(ScaleError):
        is_prime(PRIME_TEST_LIMIT)
    with pytest.raises(ScaleError):
        SupernaturalNumber.from_factors({2**89 - 1: INF})


def test_large_prime_keys_are_accepted():
    sn = SupernaturalNumber.from_json_obj({"factors": {str(2**61 - 1): "inf"}})
    assert sn.primes == (2**61 - 1,)
    assert divides_sn((2**61 - 1) ** 3, sn)
