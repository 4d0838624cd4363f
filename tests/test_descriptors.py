"""Descriptor grammar: parsing, round trips, and error reporting."""

import pytest

from lehmann import (
    Exponential,
    ExtendedDistribution,
    Kind,
    ParseError,
    Uniform,
    Weibull,
    parse_base,
    parse_distribution,
)


def test_parse_base_families():
    assert parse_distribution("uniform()") == Uniform()
    assert parse_distribution("exponential(rate=1.5)") == Exponential(1.5)
    assert parse_distribution("weibull(shape=2,scale=1)") == Weibull(2.0, 1.0)


def test_parse_extended():
    d = parse_distribution("lehmann1(base=uniform(),lambda=2.0)")
    assert isinstance(d, ExtendedDistribution)
    assert d.kind is Kind.FIRST and d.lam == 2.0 and d.base == Uniform()
    d2 = parse_distribution("lehmann2(base=exponential(rate=1.0),lambda=0.5)")
    assert d2.kind is Kind.SECOND


def test_whitespace_and_scientific_notation():
    d = parse_distribution(" lehmann1( base = weibull( shape = 2e0 , scale = 1.0 ) , lambda = 2.5e-1 ) ")
    assert d.base == Weibull(2.0, 1.0)
    assert d.lam == 0.25


def test_omitted_parameters_use_family_defaults():
    assert parse_distribution("exponential()") == Exponential(1.0)
    assert parse_distribution("weibull(scale=3)") == Weibull(1.0, 3.0)


@pytest.mark.parametrize("fam", [Uniform(), Exponential(0.25), Weibull(1.5, 2.0)])
@pytest.mark.parametrize("lam,kind", [(2.0, Kind.FIRST), (0.37, Kind.SECOND)])
def test_describe_round_trip(fam, lam, kind):
    d = ExtendedDistribution(fam, lam, kind)
    assert parse_distribution(d.describe()) == d
    assert parse_distribution(fam.describe()) == fam


def test_unknown_family_reports_expected():
    with pytest.raises(ParseError) as info:
        parse_distribution("normal(mu=0)")
    assert "exponential" in str(info.value)
    assert info.value.position == 0


def test_error_position_is_reported():
    with pytest.raises(ParseError) as info:
        parse_distribution("exponential(rate=)")
    assert info.value.position == 17
    assert "position 17" in str(info.value)


def test_unknown_parameter_rejected():
    with pytest.raises(ParseError) as info:
        parse_distribution("exponential(mean=1.0)")
    assert "rate" in str(info.value)


def test_duplicate_parameter_rejected():
    with pytest.raises(ParseError):
        parse_distribution("weibull(shape=1,shape=2)")


def test_trailing_junk_rejected():
    with pytest.raises(ParseError):
        parse_distribution("uniform()x")


def test_missing_close_paren():
    with pytest.raises(ParseError) as info:
        parse_distribution("weibull(shape=1")
    assert "')'" in str(info.value)


def test_nested_extension_rejected():
    with pytest.raises(ParseError) as info:
        parse_distribution(
            "lehmann1(base=lehmann1(base=uniform(),lambda=2),lambda=3)"
        )
    assert "compose" in str(info.value)


def test_invalid_constructed_values_become_parse_errors():
    with pytest.raises(ParseError):
        parse_distribution("exponential(rate=-1)")
    with pytest.raises(ParseError):
        parse_distribution("lehmann1(base=uniform(),lambda=0)")


def test_extended_requires_both_arguments():
    with pytest.raises(ParseError):
        parse_distribution("lehmann1(base=uniform())")
    with pytest.raises(ParseError):
        parse_distribution("lehmann1(lambda=2)")


def test_parse_base_rejects_extended():
    assert parse_base("uniform()") == Uniform()
    with pytest.raises(ParseError):
        parse_base("lehmann1(base=uniform(),lambda=2)")


def test_descriptor_arguments_of_the_wrong_type_are_rejected():
    with pytest.raises(ParseError, match="lambda= must be a number"):
        parse_distribution("lehmann1(base=uniform(),lambda=uniform())")
    with pytest.raises(ParseError, match="parameters of exponential must be numbers"):
        parse_distribution("exponential(rate=uniform())")
