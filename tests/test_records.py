"""The public behaviour of the small record types: construction, equality,
hashing, repr, read-only fields and the checks run on construction."""

from fractions import Fraction

import pytest

from sepsets.audit import AuditReport, GridSpec
from sepsets.counting import CountQuery, SeparationParams, Topology
from sepsets.omega_phi import OmegaQuery
from sepsets.series import PowerSeries

F = Fraction

FROZEN = [
    SeparationParams(2, 1),
    CountQuery(Topology.LINE, 5, 2, SeparationParams(2, 1)),
    GridSpec(3, 2, 4, 24),
    OmegaQuery((F(1), F(1, 2)), F(2), 3),
]


class TestConstruction:
    def test_keywords(self):
        params = SeparationParams(p=1, m=2)
        assert (params.m, params.p) == (2, 1)
        assert params == SeparationParams(2, 1)
        query = CountQuery(topology=Topology.CIRCLE, n=9, k=3, params=params)
        assert (query.topology, query.n, query.k, query.params) == (
            Topology.CIRCLE, 9, 3, params
        )
        assert CountQuery(Topology.CIRCLE, 9, k=3, params=params) == query
        grid = GridSpec(n_max=24, k_max=4, p_max=2, m_max=3)
        assert grid == GridSpec(3, 2, 4, 24)
        assert OmegaQuery(k=3, mu=2, lambdas=(1, F(1, 2))) == FROZEN[3]
        report = AuditReport(identity="Gould", grid="g", checked=4, failures=[])
        assert (report.identity, report.grid, report.checked, report.failures) == (
            "Gould", "g", 4, []
        )
        assert PowerSeries(coeffs=(1, 2)) == PowerSeries((1, 2))

    def test_omega_query_coerces_to_fractions(self):
        query = OmegaQuery([1, 2], 3, 2)
        assert query.lambdas == (F(1), F(2))
        assert type(query.lambdas) is tuple
        assert all(type(v) is Fraction for v in query.lambdas)
        assert type(query.mu) is Fraction and query.mu == 3
        assert (query.m, query.lambda_total, query.k) == (2, F(3), 2)

    def test_power_series_keeps_a_tuple(self):
        series = PowerSeries([1, 2, 3])
        assert series.coeffs == (1, 2, 3) and type(series.coeffs) is tuple
        assert series.order == 2 and series.coeff(1) == 2


class TestEqualityAndHash:
    @pytest.mark.parametrize("record", FROZEN + [PowerSeries((1, F(1, 2)))])
    def test_equal_copies(self, record):
        copy = type(record)(*(getattr(record, name) for name in _fields(record)))
        assert copy == record and not copy != record
        assert hash(copy) == hash(record)
        assert copy is not record

    def test_unequal(self):
        assert SeparationParams(2, 1) != SeparationParams(1, 2)
        assert GridSpec(3, 2, 4, 24) != GridSpec(3, 2, 4, 25)
        assert OmegaQuery((1,), 1, 2) != OmegaQuery((1,), 1, 3)
        assert PowerSeries((1, 2)) != PowerSeries((1, 3))
        assert AuditReport("a", "g", 1, []) != AuditReport("a", "g", 1, [{}])

    def test_audit_report_equality(self):
        assert AuditReport("a", "g", 1, [{"x": 1}]) == AuditReport("a", "g", 1, [{"x": 1}])


class TestRepr:
    def test_separation_params(self):
        assert repr(SeparationParams(2, 1)) == "SeparationParams(m=2, p=1)"

    def test_count_query_nests(self):
        assert repr(FROZEN[1]) == (
            "CountQuery(topology=<Topology.LINE: 'line'>, n=5, k=2, "
            "params=SeparationParams(m=2, p=1))"
        )

    def test_grid_spec(self):
        assert repr(GridSpec(3, 2, 4, 24)) == "GridSpec(m_max=3, p_max=2, k_max=4, n_max=24)"

    def test_omega_query(self):
        assert repr(OmegaQuery((1, F(1, 2)), 2, 3)) == (
            "OmegaQuery(lambdas=(Fraction(1, 1), Fraction(1, 2)), "
            "mu=Fraction(2, 1), k=3)"
        )

    def test_audit_report(self):
        assert repr(AuditReport("Gould", "m<=1", 3, [])) == (
            "AuditReport(identity='Gould', grid='m<=1', checked=3, failures=[])"
        )

    def test_power_series(self):
        assert repr(PowerSeries((1, F(1, 2)))) == "PowerSeries(coeffs=(1, Fraction(1, 2)))"


class TestReadOnly:
    @pytest.mark.parametrize("record", FROZEN)
    def test_fields_cannot_be_assigned(self, record):
        for name in _fields(record):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)


class TestValidation:
    @pytest.mark.parametrize("m, p", [(0, 1), (1, 0), (-2, -3)])
    def test_separation_params(self, m, p):
        with pytest.raises(ValueError, match=rf"^need m, p >= 1, got m={m}, p={p}$"):
            SeparationParams(m, p)

    def test_count_query_checks_k_before_n(self):
        params = SeparationParams(1, 1)
        with pytest.raises(ValueError, match=r"^need k >= 0, got k=-1$"):
            CountQuery(Topology.LINE, -1, -1, params)
        with pytest.raises(ValueError, match=r"^need n >= 0, got n=-2$"):
            CountQuery(Topology.CIRCLE, -2, 0, params)

    def test_omega_query_checks_after_coercing(self):
        with pytest.raises(ValueError, match=r"^need at least one lambda$"):
            OmegaQuery((), 1, -1)
        with pytest.raises(ValueError, match=r"^k must be >= 0$"):
            OmegaQuery((1,), 1, -1)
        with pytest.raises(ValueError, match=r"^Invalid literal for Fraction: 'x'$"):
            OmegaQuery((), "x", -1)

    def test_power_series_needs_a_coefficient(self):
        with pytest.raises(
            ValueError, match=r"^a PowerSeries needs at least the constant coefficient$"
        ):
            PowerSeries(())


def _fields(record) -> tuple[str, ...]:
    return {
        SeparationParams: ("m", "p"),
        CountQuery: ("topology", "n", "k", "params"),
        GridSpec: ("m_max", "p_max", "k_max", "n_max"),
        OmegaQuery: ("lambdas", "mu", "k"),
        PowerSeries: ("coeffs",),
    }[type(record)]
