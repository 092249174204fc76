"""Type-number rules, Euler characteristics, the identity, series windows."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charlab.errors import TableRuleViolation
from charlab.index import IndexRecord, OrbitIndexData
from charlab.resonance import (RULES, OrbitContribution,
                               chi_partial_averages, critical_type_numbers,
                               euler_characteristics, identity_check,
                               morse_series, series_ladder,
                               validate_type_vector)

from conftest import TURNS


def fake_index_data(orbit_id, n, indices, nullities, mean_index, K):
    recs = [IndexRecord(orbit_id, m + 1, i, nu)
            for m, (i, nu) in enumerate(zip(indices, nullities))]
    return OrbitIndexData(orbit_id=orbit_id, dim_n=n, records=recs,
                          mean_index=float(mean_index),
                          mean_index_fraction=None, mean_index_bar=0.0,
                          slope_estimate=float(mean_index), K_of_y=K,
                          iteration=None)     # records only


class TestRules:
    def test_both_ends_set_rejected(self):
        # nu = 2 with slots 0 and 1 both set violates the bottom rule
        with pytest.raises(TableRuleViolation) as e:
            validate_type_vector([1, 1, 0], nullity=2, dim_n=2)
        assert e.value.rule == "bottom-exclusive"

    def test_top_exclusive(self):
        with pytest.raises(TableRuleViolation) as e:
            validate_type_vector([0, 2, 1], nullity=3, dim_n=2)
        assert e.value.rule == "top-exclusive"

    def test_support(self):
        with pytest.raises(TableRuleViolation) as e:
            validate_type_vector([0, 0, 1], nullity=2, dim_n=2)
        assert e.value.rule == "support"

    def test_end_values_binary(self):
        with pytest.raises(TableRuleViolation) as e:
            validate_type_vector([2, 0, 0], nullity=3, dim_n=2)
        assert e.value.rule == "end-values-binary"

    def test_interior_excludes_ends_needs_nullity_5(self):
        # nu = 5 (n = 3): interior slots may exceed 1; ends must then vanish
        with pytest.raises(TableRuleViolation) as e:
            validate_type_vector([1, 0, 2, 0, 0], nullity=5, dim_n=3)
        assert e.value.rule == "bottom-exclusive"
        ok = validate_type_vector([0, 0, 2, 0, 0], nullity=5, dim_n=3)
        assert ok == [0, 0, 2, 0, 0]

    def test_single_slot_low_nullity(self):
        with pytest.raises(TableRuleViolation) as e:
            validate_type_vector([0, 1, 1, 0, 0], nullity=3, dim_n=3)
        assert e.value.rule == "top-exclusive"

    def test_negative_rejected(self):
        with pytest.raises(TableRuleViolation) as e:
            validate_type_vector([-1, 0, 0], nullity=2, dim_n=2)
        assert e.value.rule == "nonnegative-integer"

    def test_randomized_invalid_tables_cite_rules(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            width = 2 * n - 1
            nu = int(rng.integers(1, min(2 * n - 1, width) + 1))
            kind = rng.choice(["negative", "support", "binary"])
            vec = [0] * width
            if kind == "negative":
                vec[int(rng.integers(0, width))] = -1
                expect = {"nonnegative-integer"}
            elif kind == "support" and nu < width:
                vec[int(rng.integers(nu, width))] = 1
                expect = {"support"}
            else:
                vec[0] = 2
                expect = {"end-values-binary"}
            with pytest.raises(TableRuleViolation) as e:
                validate_type_vector(vec, nullity=nu, dim_n=n)
            assert e.value.rule in expect

    def test_periodicity_checked_on_user_entries(self):
        data = fake_index_data("z", 2, [0, 2, 4, 6], [3, 1, 3, 1], 2.0, K=2)
        with pytest.raises(TableRuleViolation) as e:
            critical_type_numbers(data, {1: [0, 1, 0], 3: [1, 0, 0]})
        assert e.value.rule == "periodicity"


def broken_rules(k, nu):
    """Whether the vector ``k`` at nullity ``nu`` breaks each rule, every
    rule stated on its own: slots 0 .. nu-1 carry the vector, 0 and nu-1
    are its ends, the slots between them its interior.  The last two
    entries are conditions the rules imply without a rule of their own."""
    nonzero = {slot for slot, v in enumerate(k) if v != 0}
    ends = {0, nu - 1}
    return {
        "nonnegative-integer": min(k) < 0,
        "support": max(nonzero, default=0) > nu - 1,
        "end-values-binary": any(k[end] > 1 for end in ends),
        "bottom-exclusive": k[0] == 1 and bool(nonzero - {0}),
        "top-exclusive": nu > 1 and k[nu - 1] == 1 and bool(nonzero - {nu - 1}),
        "periodicity": False,   # a rule across iterates, not of one vector
        "interior-excludes-ends": (bool(nonzero - ends)
                                   and bool(nonzero & ends)),
        "single-slot-low-nullity": nu <= 3 and len(nonzero) > 1,
    }


IMPLIED = ("interior-excludes-ends", "single-slot-low-nullity")


@st.composite
def type_vectors(draw):
    # entries in [-1, 3], mostly 0 and 1 and mostly 0 above slot nu-1, so
    # that the draws reach past the first rules
    n = draw(st.integers(1, 3))
    nu = draw(st.integers(1, 2 * n - 1))
    entry = st.just(0) | st.integers(0, 1) | st.integers(-1, 3)
    k = draw(st.lists(entry, min_size=nu, max_size=nu))
    rest = 2 * n - 1 - nu
    return k + draw(st.lists(st.just(0) | entry, min_size=rest,
                             max_size=rest)), nu, n


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(drawn=type_vectors())
def test_a_type_vector_fails_the_first_rule_it_breaks(drawn):
    # validate_type_vector returns a vector that breaks no rule and names
    # the first rule, in RULES order, of one that breaks some
    k, nu, n = drawn
    broken = broken_rules(k, nu)
    assert sorted(broken) == sorted(RULES + IMPLIED)
    first = next((rule for rule in RULES if broken[rule]), None)
    # a vector that breaks an implied condition breaks a rule of one vector
    if any(broken[c] for c in IMPLIED):
        assert first not in (None, "periodicity")
    if first is None:
        assert validate_type_vector(k, nullity=nu, dim_n=n) == k
    else:
        with pytest.raises(TableRuleViolation) as e:
            validate_type_vector(k, nullity=nu, dim_n=n)
        assert e.value.rule == first


class TestAutoFill:
    def test_even_parity_orbit(self):
        # all iterate indices even: slot 0 set for every m, chi_hat = +1
        data = fake_index_data("a", 1, [0, 2], [1, 1], 2.0, K=2)
        table = critical_type_numbers(data, None)
        chis, chi_hat = euler_characteristics(table, data)
        assert chis == [1, 1]
        assert chi_hat == Fraction(1)

    def test_odd_start_even_jump(self):
        # i(y) odd, jumps even: chi = -1 each, chi_hat = -1
        data = fake_index_data("b", 2, [3, 5], [1, 1], 2.0, K=2)
        table = critical_type_numbers(data, None)
        chis, chi_hat = euler_characteristics(table, data)
        assert chis == [-1, -1]
        assert chi_hat == Fraction(-1)

    def test_odd_jump_gives_half(self):
        # i(y^2) - i(y) odd: second iterate contributes nothing
        data = fake_index_data("c", 2, [3, 4], [1, 1], 1.0, K=2)
        table = critical_type_numbers(data, None)
        chis, chi_hat = euler_characteristics(table, data)
        assert chis == [-1, 0]
        assert chi_hat == Fraction(-1, 2)

    def test_degenerate_without_user_entry_marks_incomplete(self):
        data = fake_index_data("d", 2, [0, 2], [1, 3], 2.0, K=2)
        table = critical_type_numbers(data, None)
        assert not table.complete
        assert table.degenerate_ms == [2]

    def test_degenerate_with_valid_entry(self):
        data = fake_index_data("e", 2, [0, 2], [1, 3], 2.0, K=2)
        table = critical_type_numbers(data, {2: [0, 1, 0]})
        assert table.complete
        chis, chi_hat = euler_characteristics(table, data)
        assert chis == [1, -1]
        assert chi_hat == Fraction(0)

    def test_zero_table_zero_contribution(self):
        data = fake_index_data("f", 2, [0, 2], [1, 3], 2.0, K=2)
        table = critical_type_numbers(data, None)  # excluded, zero-filled
        chis, chi_hat = euler_characteristics(table, data)
        assert chis[1] == 0 and chi_hat == Fraction(1, 2)


class TestIdentity:
    def test_exact_single_orbit(self):
        c = OrbitContribution("y1", Fraction(2), 0.0, Fraction(1), [1, 1], 2)
        rep = identity_check([c])
        assert rep.S_plus == Fraction(1, 2)
        assert rep.S_plus_exact and rep.S_plus_residual == 0.0
        assert rep.S_zero == 0 and rep.S_zero_exact
        assert not rep.conditional

    def test_zero_mean_orbit_reported_separately(self):
        c1 = OrbitContribution("y1", Fraction(2), 0.0, Fraction(1), [1, 1], 2)
        c0 = OrbitContribution("y0", Fraction(0), 0.0, Fraction(1), [1, 1], 2)
        rep = identity_check([c1, c0])
        assert rep.zero_mean_orbits == ["y0"]
        assert rep.S_plus == Fraction(1, 2)

    def test_excluded_orbit_makes_conditional(self):
        c1 = OrbitContribution("y1", Fraction(2), 0.0, Fraction(1), [1, 1], 2)
        cx = OrbitContribution("y2", 3.7, 0.1, Fraction(0), [0, 0], 2,
                               excluded=True, reason="missing data")
        rep = identity_check([c1, cx])
        assert rep.conditional and rep.excluded_orbits == ["y2"]

    def test_float_path_with_bars(self):
        c1 = OrbitContribution("y1", 2.0 + np.sqrt(2), 0.01, Fraction(1), [1, 1], 2)
        c2 = OrbitContribution("y2", 2.0 + 2 * np.sqrt(2), 0.01, Fraction(1), [1, 1], 2)
        rep = identity_check([c1, c2])
        assert not rep.S_plus_exact
        assert rep.S_plus_residual <= 1e-12
        assert rep.S_plus_bar > 0

    def test_negative_mean_contributes_to_other_sum(self):
        c1 = OrbitContribution("y1", Fraction(2), 0.0, Fraction(1), [1, 1], 2)
        cn = OrbitContribution("yn", Fraction(-4), 0.0, Fraction(1), [1, 1], 2)
        rep = identity_check([c1, cn])
        assert rep.S_zero == Fraction(-1, 4)


class TestSeries:
    def circle_pair(self):
        ms = np.arange(1, 260)
        data = fake_index_data("y1", 1, list(2 * ms - 2), [1] * len(ms), 2.0, K=2)
        table = critical_type_numbers(data, None)
        return data, table

    def test_circle_window_counts(self):
        data, table = self.circle_pair()
        N = 60
        ms = morse_series([data], [table], N=N)
        # every even level in [2C, 2N] is hit exactly once
        assert all(ms.w.get(h, 0) == 1 for h in range(2 * ms.C, 2 * N + 1, 2))
        assert ms.eval_plus == N - ms.C + 1
        assert ms.eval_minus == 0
        assert ms.count_bound_ok
        assert ms.C1 <= 4 * 1 / (2 * 2.0) + 2

    def test_negative_window_bookkeeping(self):
        # two mirrored orbits with negative mean index whose contributions
        # cancel: coefficients land in the negative window and the
        # alternating evaluation stays O(1), not O(N)
        ms = np.arange(1, 320)
        d1 = fake_index_data("n1", 1, list(-2 * ms), [1] * len(ms), -2.0, K=2)
        d2 = fake_index_data("n2", 1, list(-2 * ms + 1), [1] * len(ms), -2.0, K=2)
        t1 = critical_type_numbers(d1, None)
        t2 = critical_type_numbers(d2, None)
        _, ch1 = euler_characteristics(t1, d1)
        _, ch2 = euler_characteristics(t2, d2)
        assert ch1 == Fraction(1) and ch2 == Fraction(-1)
        rep = identity_check([
            OrbitContribution("n1", Fraction(-2), 0.0, ch1, [], 2),
            OrbitContribution("n2", Fraction(-2), 0.0, ch2, [], 2)])
        assert rep.S_zero == Fraction(0)
        N = 80
        series = morse_series([d1, d2], [t1, t2], N=N)
        assert series.eval_plus == 0
        assert all(h <= -2 * series.C for h in series.w)
        assert abs(series.eval_minus) <= 2
        assert series.count_bound_ok

    def test_ladder_converges_to_half(self):
        data, table = self.circle_pair()
        rungs, C2, stable = series_ladder([data], [table],
                                          N_list=(25, 50, 100), s_plus=0.5)
        ratios = [r["ratio_plus"] for r in rungs]
        assert stable
        assert abs(ratios[-1] - 0.5) <= C2 / (2 * 100) + 1e-12
        assert all(r["ratio_minus"] == 0.0 for r in rungs)


def test_residual_not_worse_under_refinement():
    # halving the integrator tolerance must not increase the identity residual
    from charlab.flow import integrate_linearized
    from charlab.geometry import make_ellipsoid
    from charlab.index import IndexComputer, compute_orbit_index_data
    from charlab.orbits import ellipsoid_catalog

    surface = make_ellipsoid([1.0, 2.0**0.25])
    residuals = []
    for tol in (1e-10, 5e-11):
        contribs = []
        orbits = ellipsoid_catalog(surface)
        paths = integrate_linearized(
            surface, {o.orbit_id: (o.trajectory.x0, o.prime_period)
                      for o in orbits}, 1.5, tol=tol)
        for orb in orbits:
            d = compute_orbit_index_data(orb.orbit_id,
                                         IndexComputer(paths[orb.orbit_id]),
                                         m_max=8, **TURNS)
            table = critical_type_numbers(d, None)
            chis, chi_hat = euler_characteristics(table, d)
            contribs.append(OrbitContribution(
                orb.orbit_id, d.mean_index_exact, d.mean_index_bar,
                chi_hat, chis, d.K_of_y))
        residuals.append(identity_check(contribs).S_plus_residual)
    assert residuals[1] <= residuals[0] + 1e-12


def test_partial_averages_hit_closed_form_at_multiples():
    ms = np.arange(1, 41)
    data = fake_index_data("y1", 1, list(2 * ms - 2), [1] * len(ms), 2.0, K=2)
    table = critical_type_numbers(data, None)
    _, chi_hat = euler_characteristics(table, data)
    avgs = chi_partial_averages(table, data, 40)
    for mult in range(1, 21):
        assert avgs[2 * mult - 1] == chi_hat
