import time

import pytest
from conftest import reference_split, reference_validate_exhaustion
from hypothesis import given, settings
from hypothesis import strategies as st

from diagflag import supernat
from diagflag.errors import DomainError, ScaleError
from diagflag.supernat import (
    INF,
    PRIME_TEST_LIMIT,
    ExhaustionSpec,
    SupernaturalNumber,
    divides_sn,
    is_prime,
    step_ratio,
    validate_exhaustion,
)

SN_2 = SupernaturalNumber.from_factors({2: INF})
SN_2_3F = SupernaturalNumber.from_factors({2: INF, 3: 1})
SN_23 = SupernaturalNumber.from_factors({2: INF, 3: INF})


def factorize(n: int) -> dict[int, int]:
    """Reference prime factorization of a positive integer by trial division."""
    if n < 1:
        raise DomainError(f"cannot factorize non-positive integer {n}")
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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
    for s in supernat._divisors_up_to(sn.factors, 500):
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
    assert supernat._divisors_up_to(SN_2.factors, 20) == [1, 2, 4, 8, 16]
    assert supernat._divisors_up_to(SN_2_3F.factors, 13) == [1, 2, 3, 4, 6, 8, 12]
    # exact prime powers at the bound must not be lost
    assert supernat._divisors_up_to(SN_2.factors, 8)[-1] == 8
    sn3 = SupernaturalNumber.from_factors({3: INF})
    assert supernat._divisors_up_to(sn3.factors, 243)[-1] == 243
    assert supernat._divisors_up_to(sn3.factors, 2) == [1]


def test_divisor_listings_stop_beyond_the_limit(monkeypatch):
    """2^inf has 11 divisors up to 2^10, and 2^inf 3^inf 5^inf has 10 up
    to 12.  A listing of exactly `DIVISOR_LIMIT` divisors is allowed."""
    sn = SupernaturalNumber.from_factors({2: INF, 3: INF, 5: INF})
    monkeypatch.setattr(supernat, "DIVISOR_LIMIT", 10)
    assert supernat._divisors_up_to(sn.factors, 12) == [1, 2, 3, 4, 5, 6, 8, 9, 10, 12]
    with pytest.raises(ScaleError, match="^more than 10 divisors to list"):
        supernat._divisors_up_to(SN_2.factors, 2**10)
    monkeypatch.setattr(supernat, "DIVISOR_LIMIT", 11)
    assert len(supernat._divisors_up_to(SN_2.factors, 2**10)) == 11
    monkeypatch.setattr(supernat, "DIVISOR_LIMIT", 9)
    with pytest.raises(ScaleError, match="^more than 9 divisors to list"):
        supernat._divisors_up_to(sn.factors, 12)


@given(st.integers(1, 3000))
@settings(max_examples=60)
def test_divisors_up_to_complete(bound):
    divs = supernat._divisors_up_to(SN_2_3F.factors, bound)
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


def test_validate_names_a_factor_too_long_to_print_by_its_bits():
    """Over 2^inf, (7^4000,) x 3 introduces 7^12000, and s1 = 7^6000 carries
    it too: 10,141 and 5,071 digits, past the 4,300 the interpreter
    prints.  Each is named by its bit length; a printable one keeps its
    digits."""
    report = validate_exhaustion(ExhaustionSpec(1, (7**4000,) * 3), SN_2)
    assert not report.ok
    assert report.violations == (
        f"membership: cycle introduces a factor of {(7**12000).bit_length()} bits, prime to the number",
        "cofinality: prime 2 has infinite exponent but never appears in the cycle",
    )
    assert validate_exhaustion(ExhaustionSpec(7**6000, (2,)), SN_2).violations == (
        "membership: s1 carries a factor of 16845 bits, prime to the number",
    )
    assert validate_exhaustion(ExhaustionSpec(7**4000, (2,)), SN_2).violations == (
        f"membership: s1 carries the factor {7**4000}, prime to the number",
    )


def test_validate_names_a_foreign_factor_past_2_16_bits_by_a_lower_bound():
    """7^4000 has 11,230 bits.  Five copies over 2^inf sum to 56,150 bits,
    at most 2^16, so their product is formed and named by its exact bit
    length; six sum to 67,380, and the product is named by 6 * 11,229 + 1,
    a lower bound on its 67,377 bits."""
    assert validate_exhaustion(ExhaustionSpec(1, (7**4000,) * 5), SN_2).violations[0] == (
        f"membership: cycle introduces a factor of {(7**20000).bit_length()} bits, prime to the number"
    )
    assert (7**24000).bit_length() == 67377
    assert validate_exhaustion(ExhaustionSpec(1, (7**4000,) * 6), SN_2).violations[0] == (
        "membership: cycle introduces a factor of at least 67375 bits, prime to the number"
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


@pytest.mark.parametrize(
    "factors",
    [{"2": 1, "02": "inf"}, {"0_2": "inf"}, {" 2 ": "inf"}, {"\u0662": "inf"}, {"+2": "inf"}, {"": "inf"}],
)
def test_prime_keys_must_be_canonical_decimals(factors):
    with pytest.raises(DomainError, match="prime keys"):
        SupernaturalNumber.from_json_obj({"factors": factors})


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


@given(
    st.lists(st.integers(0, 300), min_size=4, max_size=4),
    st.sampled_from([1, 11, 13 * 17, 2**61 - 1]),
)
@settings(max_examples=300)
def test_split_matches_one_power_at_a_time(exponents, rest):
    primes = (2, 3, 5, 7)
    n = rest
    for p, k in zip(primes, exponents):
        n *= p**k
    assert supernat._split(n, primes) == reference_split(n, primes)
    assert supernat._split(n, primes[::2]) == reference_split(n, primes[::2])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 9, 3000, 2**14 - 1, 2**14, 2**14 + 1, 40_000])
def test_split_matches_one_power_at_a_time_on_huge_exponents(k):
    """Exponents around powers of two, where the ascent stops one step
    early or late, and a prime that is not in the number."""
    for n in (2**k, 2**k * 3**5 * 9973, 3 * 2**k + 3):
        assert supernat._split(n, (2, 3, 5)) == reference_split(n, (2, 3, 5))


def test_validating_a_cycle_of_huge_entries_is_fast():
    """80 entries 2^3000 make a cycle product 2^240,000; dividing out one
    power of 2 at a time took about 15 s."""
    spec = ExhaustionSpec(1, (2**3000,) * 80)
    started = time.perf_counter()
    assert validate_exhaustion(spec, SN_2).ok
    assert validate_exhaustion(spec, SN_2_3F).violations == (
        "cofinality: 3^1 divides the number but no term reaches exponent 1",
    )
    assert time.perf_counter() - started < 1.0


SN_2_5 = SupernaturalNumber.from_factors({2: INF, 5: INF})
SN_2_3F_5F = SupernaturalNumber.from_factors({2: INF, 3: 1, 5: 2})


@given(
    st.sampled_from([SN_2, SN_2_3F, SN_23, SN_2_5, SN_2_3F_5F]),
    st.integers(1, 400),
    st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 10, 12, 14, 21, 25, 77, 2**40 * 11]), min_size=1, max_size=6),
)
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_validation_by_entry_matches_the_product_route(sn, s1, cycle):
    """Each distinct entry split once, times its multiplicity, reports what
    splitting the whole cycle product reports, message for message; the
    entries repeat, share primes and carry foreign factors."""
    spec = ExhaustionSpec(s1, tuple(cycle))
    assert validate_exhaustion(spec, sn).violations == reference_validate_exhaustion(spec, sn)


def test_validating_many_huge_entries_is_fast():
    """400 entries 10^4299 over 2^inf 5^inf: forming the cycle product took
    over a minute; the one distinct entry is split once."""
    spec = ExhaustionSpec(1, (10**4299,) * 400)
    started = time.perf_counter()
    assert validate_exhaustion(spec, SN_2_5).ok
    assert validate_exhaustion(spec, SN_2_3F_5F).violations == (
        "membership: cycle multiplies by 5 whose exponent 2 is finite, so terms eventually leave the divisor set",
        "cofinality: 3^1 divides the number but no term reaches exponent 1",
    )
    assert time.perf_counter() - started < 1.0
