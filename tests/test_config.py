"""Problem data: radius profiles, sources, lateral loads, validation."""

import ast
import importlib
import json
import pathlib
import re

import numpy as np
import pytest

import thinjunction
from thinjunction import (
    LateralLoad,
    RadiusProfile,
    SourceField,
    load_spec,
    spec_digest,
)
from thinjunction.config import TRANSVERSE_AXES, eta
from thinjunction.poly import Poly3

from conftest import make_spec


def test_eta_sums_to_slope_factor():
    # The even-order coefficients are the series of sqrt(1 + t^2).
    t = 0.3
    total = sum(eta(k, t) for k in range(10))
    assert total == pytest.approx(np.sqrt(1.0 + t * t), abs=1e-6)
    assert eta(0, 0.7) == pytest.approx(1.0)
    assert eta(3, 0.7) == 0.0
    assert eta(2, t) == pytest.approx(0.5 * t * t)
    with pytest.raises(ValueError):
        eta(-1, 0.1)


class TestRadiusProfile:
    def test_constant(self):
        h = RadiusProfile.constant(0.25)
        x = np.linspace(0, 1, 11)
        assert np.allclose(h(x), 0.25)
        assert np.allclose(h.deriv(x), 0.0)
        assert h.is_constant()
        assert h.value0 == h.value1 == 0.25
        assert h.plateau0 == 1.0

    def test_smooth_bump_shape(self):
        h = RadiusProfile.smooth_bump(0.25, 0.45)
        assert h(np.array([0.0]))[0] == pytest.approx(0.25)
        assert h(np.array([1.0]))[0] == pytest.approx(0.45)
        assert h(np.array([0.2]))[0] == pytest.approx(0.25)
        assert h(np.array([0.8]))[0] == pytest.approx(0.45)
        assert not h.is_constant()
        assert h.plateau0 == pytest.approx(0.35)

    def test_smooth_bump_is_c2(self):
        h = RadiusProfile.smooth_bump(0.25, 0.45)
        x = np.linspace(0.01, 0.99, 491)
        # Keep FD stencils away from the joins, where only C^2 holds.
        x = x[(np.abs(x - 0.35) > 3e-4) & (np.abs(x - 0.65) > 3e-4)]
        d = 1e-5
        fd1 = (h(x + d) - h(x - d)) / (2 * d)
        assert np.max(np.abs(h.deriv(x) - fd1)) < 1e-6
        d = 1e-4
        fd2 = (h(x + d) - 2 * h(x) + h(x - d)) / d ** 2
        assert np.max(np.abs(h.deriv2(x) - fd2)) < 1e-3
        # And the profile itself is continuous with matching slopes there.
        for bp in (0.35, 0.65):
            left, right = bp - 1e-12, bp + 1e-12
            assert h(np.array([left]))[0] == pytest.approx(
                h(np.array([right]))[0], abs=1e-10)
            assert h.deriv(np.array([left]))[0] == pytest.approx(
                h.deriv(np.array([right]))[0], abs=1e-9)

    @pytest.mark.parametrize("h", [
        RadiusProfile.constant(0.25),
        RadiusProfile.smooth_bump(0.25, 0.45),
        RadiusProfile.smooth_bump(0.3, 0.2, a=0.1, b=0.8),
    ], ids=["constant", "bump", "wide-bump"])
    def test_horner_pass_equals_each_pieces_polynomial_bitwise(self, h):
        """Values, slopes and curvatures of the stacked Horner pass
        against numpy's ``Polynomial`` of each point's piece, at the
        breakpoints, the ends, between them and just outside."""
        bp = h.breakpoints
        rng = np.random.default_rng(37)
        x = np.concatenate([bp, np.nextafter(bp, -1.0), np.nextafter(bp, 2.0),
                            rng.uniform(0.0, 1.0, 200), [-0.01, 1.01]])
        piece = np.clip(np.searchsorted(bp, x, side="right") - 1, 0,
                        len(h.pieces) - 1)
        for got, d in ((h(x), 0), (h.deriv(x), 1), (h.deriv2(x), 2)):
            want = np.array([h.pieces[j].deriv(d)(v) if d else
                             h.pieces[j](v) for j, v in zip(piece, x)])
            assert np.array_equal(got, want), d
        assert np.ndim(h(0.5)) == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="discontinuous"):
            RadiusProfile([0.0, 0.5, 1.0], [[0.2], [0.3]])
        with pytest.raises(ValueError, match="slope"):
            RadiusProfile([0.0, 0.5, 1.0], [[0.2], [0.1, 0.2]])
        with pytest.raises(ValueError, match="breakpoints"):
            RadiusProfile([0.1, 1.0], [[0.2]])
        with pytest.raises(ValueError, match="positive"):
            RadiusProfile([0.0, 1.0], [[-0.2]])
        with pytest.raises(ValueError, match="constant near"):
            RadiusProfile([0.0, 1.0], [[0.2, 0.1]])


class TestSourceField:
    def test_transverse_slices_reconstruct_f(self, rng):
        f = SourceField(Poly3.from_terms(
            [((1, 0, 0), 1.0), ((0, 2, 0), 0.5), ((1, 1, 1), -0.3)]))
        eps = 0.17
        for edge in range(3):
            a, b = TRANSVERSE_AXES[edge]
            x = rng.uniform(0, 1, 9)
            ta, tb = rng.uniform(-1, 1, (2, 9))
            pt = np.zeros((9, 3))
            pt[:, edge] = x
            pt[:, a] = eps * ta
            pt[:, b] = eps * tb
            direct = f(pt[:, 0], pt[:, 1], pt[:, 2])
            series = sum(
                eps ** k * f.transverse_taylor(edge, k)(x, ta, tb)
                for k in range(f.total_degree + 1))
            assert np.allclose(series, direct, atol=1e-14)

    def test_axis_profile(self):
        f = SourceField(Poly3.from_terms([((1, 0, 0), 1.0), ((0, 2, 0), 0.5)]))
        x = np.linspace(0, 1, 5)
        assert np.allclose(f.axis_profile(0)(x), x)
        assert np.allclose(f.axis_profile(1)(x), 0.5 * x ** 2)
        assert np.allclose(f.axis_profile(2)(x), 0.0)

    def test_disk_integral_of_slice(self):
        f = SourceField(Poly3.from_terms([((1, 0, 0), 1.0), ((0, 2, 0), 0.5)]))
        x, h = 0.7, 0.3
        got = f.transverse_taylor_disk_integral(0, 2, x, h)
        # slice is 0.5 ta^2; its disk integral is 0.5 * (pi/4) h^4.
        assert got == pytest.approx(0.5 * np.pi / 4 * h ** 4, rel=1e-12)
        got0 = f.transverse_taylor_disk_integral(0, 0, x, h)
        assert got0 == pytest.approx(x * np.pi * h ** 2, rel=1e-12)


class TestLateralLoad:
    def test_circle_modes_match_fft(self):
        phi = LateralLoad(Poly3.from_terms(
            [((0, 0, 0), 0.05), ((1, 1, 0), 2.0), ((0, 2, 1), -1.0)]))
        x, h = 0.6, 0.35
        n = 64
        t = np.arange(n) * 2 * np.pi / n
        vals = phi(np.full(n, x), h * np.cos(t), h * np.sin(t))
        a, b = phi.circle_modes(x, h, phi.max_harmonic)
        recon = np.full(n, a[0])
        for m in range(1, len(a)):
            recon += a[m] * np.cos(m * t) + b[m] * np.sin(m * t)
        assert np.allclose(recon, vals, atol=1e-13)

    def test_circle_integral(self):
        phi = LateralLoad(Poly3.from_terms([((1, 2, 0), 3.0)]))
        x, h = 0.4, 0.3
        t = np.linspace(0, 2 * np.pi, 40001)
        vals = phi(np.full_like(t, x), h * np.cos(t), h * np.sin(t))
        want = np.trapezoid(vals, t) * h
        assert phi.circle_integral(x, h) == pytest.approx(want, rel=1e-9)

    def test_zero_and_deriv(self):
        assert LateralLoad.zero().is_zero()
        phi = LateralLoad(Poly3.from_terms([((2, 1, 0), 1.0)]))
        assert not phi.is_zero()
        d = phi.x_deriv()
        assert d(0.5, 0.3, 0.1) == pytest.approx(2 * 0.5 * 0.3)
        assert phi.max_harmonic == 1


class TestProblemSpec:
    def test_parameter_validation(self):
        import dataclasses

        f = SourceField.constant(1.0)
        good = make_spec(f)
        with pytest.raises(ValueError, match="ell"):
            dataclasses.replace(good, ell=0.4)
        with pytest.raises(ValueError, match="alpha"):
            make_spec(f, alpha=0.5)
        with pytest.raises(ValueError, match="epsilon"):
            make_spec(f, epsilon=1.5)

    def test_attachability_guard(self):
        f = SourceField.constant(1.0)
        wide = (RadiusProfile.constant(0.35),) * 3
        spec = make_spec(f, h=wide)  # constructible: only meshes need h0 < ell
        with pytest.raises(ValueError, match="fit in the bulge"):
            spec.check_attachable()
        make_spec(f).check_attachable()

    def test_json_roundtrip(self, rich_spec, tmp_path):
        doc = rich_spec.to_json()
        assert doc["schema"] == 1
        text = json.dumps(doc)
        again = load_spec(text)
        assert spec_digest(again) == spec_digest(rich_spec)
        p = tmp_path / "problem.json"
        p.write_text(text)
        from_file = load_spec(str(p))
        assert spec_digest(from_file) == spec_digest(rich_spec)

    def test_missing_file_is_named(self, tmp_path):
        """A path that names no readable file, and is no JSON text
        either, raises ``ValueError`` naming the path, not the decoder's
        error about its first character."""
        missing = str(tmp_path / "no" / "such" / "spec.json")
        with pytest.raises(ValueError, match=re.escape(repr(missing))):
            load_spec(missing)

    def test_schema_guard(self):
        with pytest.raises(ValueError, match="schema"):
            load_spec({"schema": 2})

    def test_bulge_shape_is_the_box(self, flat_spec):
        doc = flat_spec.to_json()
        assert doc["aneurysm"] == {"type": "box"}
        doc["aneurysm"] = {"type": "sphere"}
        with pytest.raises(ValueError, match="box"):
            load_spec(doc)

    def test_fractional_order_is_rejected(self, flat_spec):
        doc = dict(flat_spec.to_json(), order=2.5)
        with pytest.raises(ValueError, match="order must be an integer"):
            load_spec(doc)

    def test_boolean_order_is_rejected(self, flat_spec):
        doc = dict(flat_spec.to_json(), order=True)
        with pytest.raises(ValueError, match="order must be an integer"):
            load_spec(doc)

    @pytest.mark.parametrize("key", ["alpha", "epsilon", "ell", "delta_cut"])
    def test_number_given_as_a_string_is_rejected(self, flat_spec, key):
        doc = flat_spec.to_json()
        doc[key] = str(doc[key])
        with pytest.raises(ValueError, match=f"{key} must be a number"):
            load_spec(doc)

    def test_number_given_as_a_boolean_is_rejected(self, flat_spec):
        doc = dict(flat_spec.to_json(), delta_cut=True)
        with pytest.raises(ValueError, match="delta_cut must be a number"):
            load_spec(doc)

    @pytest.mark.parametrize("path, value", [
        ("h[0]", True), ("h[0]", "0.25"), ("f.terms[0].coef", "2.0"),
        ("f.terms[0].coef", True), ("f.terms[0].powers", [1.5, 0, 0]),
        ("phi[0]", False)])
    def test_nested_value_of_the_wrong_type_is_named(self, fx_spec, path,
                                                     value):
        doc = fx_spec.to_json()
        key, rest = path.split("[", 1)
        if key == "f.terms":
            doc["f"]["terms"][0][rest.split(".")[1]] = value
        else:
            doc[key][0] = value
        with pytest.raises(ValueError, match=re.escape(path)):
            load_spec(doc)

    def test_radius_breakpoint_given_as_a_string_is_rejected(self,
                                                              rich_spec):
        doc = rich_spec.to_json()
        i = next(i for i, h in enumerate(doc["h"]) if isinstance(h, dict))
        doc["h"][i]["breakpoints"][1] = str(doc["h"][i]["breakpoints"][1])
        with pytest.raises(ValueError,
                           match=re.escape(f"h[{i}].breakpoints[1]")):
            load_spec(doc)

    def test_unknown_key_is_rejected(self, flat_spec):
        doc = dict(flat_spec.to_json(), epsilom=0.1)
        with pytest.raises(ValueError, match="epsilom"):
            load_spec(doc)

    @pytest.mark.parametrize("key", ["epsilon", "ell", "alpha", "h", "f",
                                     "phi", "f.terms"])
    def test_missing_key_is_named(self, flat_spec, key):
        doc = flat_spec.to_json()
        if key == "f.terms":
            doc["f"] = {k: v for k, v in doc["f"].items() if k != "terms"}
        else:
            del doc[key]
        with pytest.raises(ValueError,
                           match=re.escape(f"missing problem keys: ['{key}']")):
            load_spec(doc)

    def test_integer_order_loads(self, flat_spec):
        spec = load_spec(dict(flat_spec.to_json(), order=3))
        assert spec.order == 3 and isinstance(spec.order, int)

    def test_order_four_on_a_varying_radius_is_rejected(self):
        # the field_queries spec: edge 1 has a bumped radius, on which the
        # order-4 disk data miss their flux balance (a build error after
        # seconds of work), so the spec is refused when it is loaded
        plan = pathlib.Path(__file__).resolve().parents[1] / "bench" / \
            "plans" / "field_queries.json"
        doc = json.loads(plan.read_text(encoding="utf-8"))["spec"]
        assert load_spec(dict(doc, order=3)).order == 3
        with pytest.raises(ValueError, match=r"order 4 .*edges \[1\]"):
            load_spec(dict(doc, order=4))
        spec = load_spec(dict(doc, order=4, h=[0.25, 0.25, 0.25]))
        assert spec.order == 4 and all(h.is_constant() for h in spec.h)

    def test_digest_tracks_content(self, flat_spec, fx_spec):
        assert spec_digest(flat_spec) != spec_digest(fx_spec)
        assert spec_digest(flat_spec) == spec_digest(flat_spec)


def test_transverse_axes_complete():
    for edge, (a, b) in TRANSVERSE_AXES.items():
        assert sorted((edge, a, b)) == [0, 1, 2]


def _settings_table():
    """(module, name, value) per row of the README's settings table."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "## Numerical settings", 1)[1].split("\n## ", 1)[0]
    return [(m, n, ast.literal_eval(v)) for m, n, v in re.findall(
        r"^\| `(\w+)\.(\w+)` \| `([^`]+)` \|", section, re.M)]


def test_readme_lists_every_numerical_setting():
    rows = _settings_table()
    for module, name, value in rows:
        got = getattr(importlib.import_module(f"thinjunction.{module}"),
                      name)
        assert got == value and type(got) is type(value), (module, name)
    # every public module constant set to a number has a row
    listed = {(m, n) for m, n, _ in rows}
    src = pathlib.Path(thinjunction.__file__).parent
    for path in src.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Constant)
                    and type(node.value.value) in (int, float)):
                name = node.targets[0].id
                if name.isupper() and not name.startswith("_"):
                    assert (path.stem, name) in listed, (path.stem, name)
