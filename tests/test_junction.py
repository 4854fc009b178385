"""Junction correctors: flux budgets, special fields, transmission jumps."""

import dataclasses
import math

import numpy as np
import pytest

from delta_oracle import delta_reference
from load_oracle import load_reference
from thinjunction import (
    Expansion,
    build_inner_rhs,
    check_solvability,
    compute_delta,
    compute_dstar,
    load_spec,
    solve_decaying,
    solve_limit,
    solve_special,
)
from thinjunction import junction as jn
from thinjunction.junction import InnerData, OutletGrowth, assemble_load
from thinjunction.poly import Poly3
from thinjunction.corrector import DiskPoly


def order_one_data(spec):
    gf = solve_limit(spec)
    taylor = [{0: gf[i].germ().coef} for i in range(3)]
    germs = [{}, {}, {}]
    return build_inner_rhs(spec, 1, taylor, germs), taylor, germs


def fpart_data(spec):
    """Order-2 data with an interior part: the order-0 germs only."""
    gf = solve_limit(spec)
    taylor = [{0: gf[i].germ().coef, 1: np.zeros(4)}
              for i in range(3)]
    return build_inner_rhs(spec, 2, taylor, [{}, {}, {}])


def wall_data(spec):
    """A constant wall trace on outlet 0 balanced by linear growth."""
    c = 0.05
    kappa = 3.0 * c / spec.h0(0)
    wall = Poly3.from_terms([((0, 0, 0), c)])
    growth = (OutletGrowth(0, [0.0, kappa]),
              OutletGrowth(1, [0.0, 0.0]),
              OutletGrowth(2, [0.0, 0.0]))
    return InnerData(k=2, growth=growth, walls=(wall, None, None))


class TestFluxBudget:
    def test_dstar_order_zero_vanishes(self, flat_spec):
        assert compute_dstar(flat_spec, 0) == 0.0

    def test_dstar_order_one_flat_source(self, flat_spec):
        # per outlet ell * (disk area), minus the box volume of the bulge
        want = 3.0 * 0.3 * math.pi * 0.0625 - 0.6 ** 3
        assert compute_dstar(flat_spec, 1) == pytest.approx(want,
                                                            abs=1e-14)

    def test_bulge_width_follows_a_replaced_ell(self, flat_spec):
        # a spec copied with another ell budgets its own bulge, as the
        # same spec loaded from its document does
        spec = dataclasses.replace(flat_spec, ell=0.28)
        loaded = load_spec(spec.to_json())
        want = 3.0 * 0.28 * math.pi * 0.0625 - 0.56 ** 3
        gf = solve_limit(flat_spec)
        taylor = [{0: gf[i].germ().coef, 1: np.zeros(4)}
                  for i in range(3)]
        data = build_inner_rhs(flat_spec, 2, taylor, [{}, {}, {}])
        for s in (spec, loaded):
            assert compute_dstar(s, 1) == pytest.approx(want, abs=1e-14)
        assert check_solvability(spec, data) == check_solvability(loaded,
                                                                  data)

    def test_dstar_negative_order_rejected(self, flat_spec):
        with pytest.raises(ValueError):
            compute_dstar(flat_spec, -1)

    def test_solvability_defect_machine_zero(self, exp_fx, exp_rich):
        for exp in (exp_fx, exp_rich):
            for k, defect in exp.solvability.items():
                assert abs(defect) < 1e-12, (exp.spec.f, k)

    def test_kirchhoff_perturbation_shifts_defect(self, flat_spec):
        data, taylor, germs = order_one_data(flat_spec)
        base = check_solvability(flat_spec, data)
        assert abs(base) < 1e-12

        bumped = [dict(t) for t in taylor]
        coef = np.array(bumped[1][0], dtype=float)
        coef[1] += 0.1
        bumped[1][0] = coef
        data2 = build_inner_rhs(flat_spec, 1, bumped, germs)
        shift = check_solvability(flat_spec, data2) - base
        want = 0.1 * math.pi * flat_spec.h0(1) ** 2
        assert abs(shift) == pytest.approx(want, rel=1e-9)


class TestOutletGrowth:
    def test_value_and_slope(self):
        disk = DiskPoly.from_poly2(np.array([[0.0, 0.0], [0.5, 0.0]]))
        g = OutletGrowth(0, [1.0, 2.0, 0.5], disks=(None, disk, None))
        ax, ta, tb = 2.0, 0.3, -0.1
        value, slope, ga, gb = g.evaluate(ax, ta, tb)
        want = 1.0 + (2.0 + 0.5 * ta) * ax + 0.5 * ax ** 2
        assert value == pytest.approx(want, rel=1e-14)
        want_slope = (2.0 + 0.5 * ta) + 1.0 * ax
        assert slope == pytest.approx(want_slope, rel=1e-14)
        assert ga == pytest.approx(0.5 * ax, rel=1e-14)
        assert gb == pytest.approx(0.0, abs=1e-15)

    def test_cross_integrals(self):
        disk = DiskPoly.from_poly2(np.array([[0.0], [0.0], [1.0]]))
        g = OutletGrowth(1, [0.0, 3.0], disks=(None, disk))
        r = 0.4
        vals = g.cross_integrals(r)
        assert vals[0] == pytest.approx(0.0, abs=1e-15)
        want = 3.0 * math.pi * r ** 2 + math.pi * r ** 4 / 4.0
        assert vals[1] == pytest.approx(want, rel=1e-14)

    def test_disk_slot_count_enforced(self):
        with pytest.raises(ValueError, match="disk slot"):
            OutletGrowth(0, [0.0, 1.0], disks=(None,))


class TestSpecialFields:
    def test_far_slopes(self, specials_flat6, flat_spec):
        for edge, fld in zip((1, 2), specials_flat6):
            scale = 1.0 / (math.pi * flat_spec.h0(edge) ** 2)
            slopes = [fld.far_slope(i) for i in range(3)]
            assert slopes[0] == pytest.approx(-scale, rel=0.01)
            assert slopes[edge] == pytest.approx(scale, rel=0.01)
            other = 3 - edge
            assert abs(slopes[other]) < 0.01 * scale

    def test_flux_balance(self, specials_flat6, flat_spec):
        for fld in specials_flat6:
            total = sum(
                math.pi * flat_spec.h0(i) ** 2 * fld.far_slope(i)
                for i in range(3))
            assert abs(total) < 1e-6

    def test_normalised_at_first_outlet(self, specials_flat6):
        # the decaying part is shifted to level off at zero on outlet 0
        for fld in specials_flat6:
            assert abs(fld.with_growth(None).plateau(0)) < 1e-10

    def test_invalid_edge_rejected(self, junction_flat6):
        with pytest.raises(ValueError, match="outlet"):
            solve_special(junction_flat6, 0)


class TestTransmission:
    def test_jumps_match_plateau_readout(self, exp_fx, junction_flat6,
                                         specials_flat6):
        data = exp_fx.inner[1]
        nhat = solve_decaying(junction_flat6, data)
        assert np.array_equal(nhat.load, assemble_load(junction_flat6, data))
        jumps = compute_delta(nhat.load, specials_flat6)
        plateaus = [nhat.plateau(i) for i in range(3)]
        for s_idx, edge in enumerate((1, 2)):
            direct = plateaus[edge] - plateaus[0]
            assert jumps[s_idx] == pytest.approx(direct, rel=1e-2)

    def test_jumps_match_quadrature_pairing(self, flat_spec, exp_fx, exp_rich,
                                            junction_flat6, specials_flat6):
        with_fpart = fpart_data(flat_spec)
        flat = (junction_flat6, specials_flat6)
        rich = (exp_rich.junction, exp_rich.specials)
        cases = [(flat, exp_fx.inner[1]), (flat, with_fpart),
                 (rich, exp_rich.inner[1]), (rich, exp_rich.inner[2])]
        for (junction, specials), data in cases:
            got = compute_delta(assemble_load(junction, data), specials)
            want = delta_reference(junction, data, specials)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_decaying_field_levels_off(self, exp_fx, junction_flat6):
        nhat = solve_decaying(junction_flat6, exp_fx.inner[1])
        growth_scale = max(
            float(np.max(np.abs(g.coeffs))) for g in exp_fx.inner[1].growth)
        for i in range(3):
            assert abs(nhat.far_slope(i)) < 5e-3 * max(growth_scale, 1.0)

    def test_wall_term_sign_consistent(self, flat_spec, junction_flat6,
                                       specials_flat6):
        # kappa * pi h^2 equals the weighted wall integral, which makes
        # the data solvable and pins the sign of the surface pairing
        data = wall_data(flat_spec)
        assert abs(check_solvability(flat_spec, data)) < 1e-12

        # the polygonal lateral surface carries an O(1/segments^2)
        # perimeter defect, so compatibility holds only to that level
        b = assemble_load(junction_flat6, data)
        assert abs(b.sum()) < 1e-3 * np.abs(b).sum()

        nhat = solve_decaying(junction_flat6, data)
        jumps = compute_delta(b, specials_flat6)
        plateaus = [nhat.plateau(i) for i in range(3)]
        for s_idx, edge in enumerate((1, 2)):
            direct = plateaus[edge] - plateaus[0]
            assert jumps[s_idx] == pytest.approx(direct, rel=5e-2)
        # both jumps pull the same way and are genuinely nonzero
        assert jumps[0] == pytest.approx(jumps[1], rel=1e-6)
        assert abs(jumps[0]) > 1e-4


class TestLoadAssembly:
    def test_load_matches_the_full_mesh_oracle(
            self, flat_spec, exp_fx, exp_rich, junction_flat6,
            specials_flat6):
        # the band tets carry every nonzero of the source, and a tet
        # left out only drops an exact 0.0 from its nodes' sums; the
        # former einsum contractions agree to rounding
        cases = [(junction_flat6, exp_fx.inner[1]),
                 (junction_flat6, fpart_data(flat_spec)),
                 (exp_rich.junction, exp_rich.inner[1]),
                 (exp_rich.junction, exp_rich.inner[2]),
                 (junction_flat6, wall_data(flat_spec))]
        cases += [(junction_flat6, InnerData(k=0, growth=s.growth))
                  for s in specials_flat6]
        for junction, data in cases:
            got = assemble_load(junction, data)
            assert np.array_equal(got, load_reference(junction, data))
            former = load_reference(junction, data, kernel="einsum")
            scale = np.max(np.abs(former))
            assert scale > 0.0
            assert np.max(np.abs(got - former)) <= 1e-14 * scale

    def test_special_load_reads_the_band_only(self, exp_rich, monkeypatch):
        junction = exp_rich.junction
        special = exp_rich.specials[0]
        evaluated = []

        def counting(junction, data, pts):
            evaluated.append(len(pts))
            return source_values(junction, data, pts)

        source_values = jn._source_values
        monkeypatch.setattr(jn, "_source_values", counting)
        b = assemble_load(junction, InnerData(k=0, growth=special.growth))
        assert np.array_equal(b, special.load)
        assert 0 < sum(evaluated) < 0.3 * 14 * junction.mesh.num_tets


class TestInnerRhs:
    def test_orders_start_at_one(self, flat_spec):
        with pytest.raises(ValueError, match="start"):
            build_inner_rhs(flat_spec, 0, [{}, {}, {}], [{}, {}, {}])

    def test_flat_source_first_order_growth(self, flat_spec):
        data, _, _ = order_one_data(flat_spec)
        assert data.k == 1
        assert data.fpart is None
        gf = solve_limit(flat_spec)
        for i in range(3):
            slope = gf[i].germ().coef[1]
            assert data.growth[i].coeffs[1] == pytest.approx(slope,
                                                             rel=1e-12)
            assert data.growth[i].coeffs[0] == 0.0

    def test_second_order_structure(self, rich_spec, exp_rich):
        data = exp_rich.inner[2]
        assert data.k == 2
        # the rich source has no constant term, so no interior part
        assert data.fpart is None
        assert data.walls[1] is not None  # the loaded edge
        assert data.walls[0] is None and data.walls[2] is None
        got = data.walls[1](0.0, 0.2, -0.1)
        want = rich_spec.phi[1].poly(0.0, 0.2, -0.1)
        assert got == pytest.approx(want, abs=1e-14)

    def test_constant_source_balances_at_order_two(self, flat_spec):
        # the interior part (1 - sum of cutoffs) f enters the exact
        # flux budget and the assembled load alike
        spec = dataclasses.replace(flat_spec, order=2)
        exp = Expansion(spec, junction_R=spec.ell + 4.0,
                        junction_refine=0.7)
        assert exp.inner[2].fpart is not None
        assert abs(exp.solvability[2]) < 1e-12
        load = exp.nfields[2].load
        # 2.9e-4 of the load's l1 norm here; 0.24 without the cutoffs
        assert abs(load.sum()) < 1e-3 * np.abs(load).sum()

    def test_constant_source_enters_interior_part(self, flat_spec):
        gf = solve_limit(flat_spec)
        taylor = [{0: gf[i].germ().coef, 1: np.zeros(4)}
                  for i in range(3)]
        data = build_inner_rhs(flat_spec, 2, taylor, [{}, {}, {}])
        assert data.fpart is not None
        assert data.fpart(0.3, -0.1, 0.2) == pytest.approx(1.0, abs=1e-14)
        for i in range(3):
            # quadratic growth from the curvature of the limit profile
            want = gf[i].germ().coef[2]
            assert data.growth[i].coeffs[2] == pytest.approx(want,
                                                             rel=1e-12)
