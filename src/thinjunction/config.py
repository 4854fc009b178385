"""Problem data for the thin three-branch junction domain.

The domain consists of three thin cylinders of slowly varying radius
``eps*h_i(x_i)`` along the positive coordinate half-axes, joined near the
origin through a small bulge (box of half-width ``eps*ell``).  All problem
data live here: radius profiles, the polynomial volume source ``f``, the
polynomial lateral Neumann loads ``phi_i``, the bulge half-width ``ell``
and the cutoff bands that glue the expansion regions.

Transverse-variable convention used throughout the package: for edge ``i``
the two cross-section coordinates are the remaining physical axes in
ascending order, i.e. edge 1 -> (x2, x3), edge 2 -> (x1, x3),
edge 3 -> (x1, x2).
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .cutoffs import SmoothStep
from .poly import (
    Poly3,
    circle_monomial_integral,
    disk_monomial_integral,
    trig_power_modes,
)

# 0-based transverse axes per 0-based edge index
TRANSVERSE_AXES = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def eta(k, hprime):
    """Coefficient of the lateral-load term of order k in the slope expansion.

    Vanishes for odd k; for even k = 2s it equals
    (-1)^s (2s)! |h'|^{2s} / ((1-2s) (s!)^2 4^s).  k = 0 gives 1.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    hprime = np.asarray(hprime, dtype=float)
    if k % 2 == 1:
        return np.zeros_like(hprime)
    s = k // 2
    c = (-1.0) ** s * math.factorial(2 * s) / (
        (1 - 2 * s) * math.factorial(s) ** 2 * 4.0 ** s
    )
    return c * np.abs(hprime) ** k


def horner(c, x):
    """The power series with coefficient rows ``c`` (constant first, each
    row per point) at x by Horner's scheme.  It runs the operations of
    numpy's ``polyval`` (a zero-padded power adds exact zeros), so at a
    finite x every value is bitwise the ``Polynomial`` value."""
    out = c[-1]
    for row in c[-2::-1]:
        out = row + out * x
    return out


class RadiusProfile:
    """Piecewise-polynomial radius h(x) on [0, 1], C^1, constant near the ends."""

    def __init__(self, breakpoints, pieces):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        self.pieces = [Polynomial(np.atleast_1d(np.asarray(p, dtype=float)))
                       for p in pieces]
        # the power coefficients of h, h' and h'' per piece, zero-padded
        # to one width, one row per power: (width, pieces) each
        self._coef = []
        for polys in (self.pieces, [p.deriv() for p in self.pieces],
                      [p.deriv(2) for p in self.pieces]):
            c = np.zeros((max(p.coef.size for p in polys), len(polys)))
            for j, p in enumerate(polys):
                c[: p.coef.size, j] = p.coef
            self._coef.append(c)
        self._validate()

    @classmethod
    def constant(cls, h0):
        return cls([0.0, 1.0], [[float(h0)]])

    @classmethod
    def smooth_bump(cls, h0, h1, a=0.35, b=0.65):
        """Profile equal to h0 on [0,a], h1 on [b,1], C^2 quintic blend between."""
        t = Polynomial([-a / (b - a), 1.0 / (b - a)])
        s = Polynomial([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])
        from .poly import compose_poly1

        blend = Polynomial([h0]) + (h1 - h0) * compose_poly1(s, t)
        return cls([0.0, a, b, 1.0], [[h0], blend.coef, [h1]])

    def _validate(self):
        bp = self.breakpoints
        if bp[0] != 0.0 or bp[-1] != 1.0 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must increase from 0 to 1")
        if len(self.pieces) != len(bp) - 1:
            raise ValueError("need one piece per interval")
        for j in range(len(self.pieces) - 1):
            x = bp[j + 1]
            if abs(self.pieces[j](x) - self.pieces[j + 1](x)) > 1e-10:
                raise ValueError(f"profile discontinuous at x={x}")
            if abs(self.pieces[j].deriv()(x) - self.pieces[j + 1].deriv()(x)) > 1e-10:
                raise ValueError(f"profile slope jumps at x={x}")
        for p, side in ((self.pieces[0], "start"), (self.pieces[-1], "end")):
            if p.degree() > 0 and np.any(np.abs(p.coef[1:]) > 1e-14):
                raise ValueError(f"profile must be constant near the {side}")
        xs = np.linspace(0.0, 1.0, 257)
        if np.min(self(xs)) <= 0.0:
            raise ValueError("radius must stay positive")

    def power_coeffs(self, width=None):
        """The power coefficients of h, one row per power and one column
        per piece, zero-padded to ``width`` rows."""
        c = self._coef[0]
        width = c.shape[0] if width is None else width
        return np.pad(c, ((0, width - c.shape[0]), (0, 0)))

    def _horner(self, coef, x):
        """The pieces with power coefficients ``coef`` at x, each point
        by its own piece, the end pieces extended outwards."""
        x = np.asarray(x, dtype=float)
        return horner(
            coef[:, np.searchsorted(self.breakpoints[1:-1], x, side="right")],
            x)

    def __call__(self, x):
        return self._horner(self._coef[0], x)

    def deriv(self, x):
        return self._horner(self._coef[1], x)

    def deriv2(self, x):
        return self._horner(self._coef[2], x)

    @property
    def value0(self):
        return float(self.pieces[0].coef[0])

    @property
    def value1(self):
        return float(self.pieces[-1](1.0))

    @property
    def plateau0(self):
        """End of the constant stretch at x = 0."""
        return float(self.breakpoints[1]) if len(self.pieces) > 1 else 1.0

    def is_constant(self):
        return len(self.pieces) == 1

    def to_json(self):
        if self.is_constant():
            return self.value0
        return {"breakpoints": self.breakpoints.tolist(),
                "pieces": [p.coef.tolist() for p in self.pieces]}


class SourceField:
    """Polynomial volume source f(x1, x2, x3)."""

    def __init__(self, poly: Poly3):
        self.poly = poly

    @classmethod
    def from_terms(cls, terms):
        return cls(Poly3.from_terms(terms))

    @classmethod
    def constant(cls, value):
        return cls(Poly3.constant(value))

    def __call__(self, x1, x2, x3):
        return self.poly(x1, x2, x3)

    def axis_profile(self, edge):
        """f restricted to the edge axis, as a 1-D polynomial of x_i."""
        a, b = TRANSVERSE_AXES[edge]
        cube = np.moveaxis(self.poly.coef, (edge, a, b), (0, 1, 2))
        return Polynomial(cube[:, 0, 0].copy())

    def transverse_taylor(self, edge, k):
        """Taylor slice of transverse degree k about the edge axis.

        Returns a Poly3 in (x_i, ta, tb) whose value at (x, xi_a, xi_b) is
        the degree-k transverse Taylor coefficient field f_k.
        """
        a, b = TRANSVERSE_AXES[edge]
        cube = np.moveaxis(self.poly.coef, (edge, a, b), (0, 1, 2))
        out = np.zeros_like(cube)
        ni, na, nb = cube.shape
        for pa in range(na):
            for pb in range(nb):
                if pa + pb == k:
                    out[:, pa, pb] = cube[:, pa, pb]
        return Poly3(out)

    def transverse_taylor_disk_integral(self, edge, k, x, h):
        """int of the degree-k transverse slice over the disk of radius h(x)."""
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        sl = self.transverse_taylor(edge, k)
        out = np.zeros(np.broadcast(x, h).shape)
        for (pi, pa, pb), c in sl.terms():
            out += c * x ** pi * disk_monomial_integral(pa, pb, 1.0) * h ** (pa + pb + 2)
        return out

    @property
    def total_degree(self):
        return self.poly.total_degree

    def to_json(self):
        return {"terms": [{"powers": [int(p) for p in pw], "coef": float(c)}
                          for pw, c in self.poly.terms()]}


class LateralLoad:
    """Polynomial lateral Neumann load phi_i(x_i, xi_a, xi_b) for one edge.

    The transverse arguments are the scaled cross-section coordinates; the
    load is only ever evaluated on circles |xi| = h_i(x_i).
    """

    def __init__(self, poly: Poly3):
        self.poly = poly

    @classmethod
    def zero(cls):
        return cls(Poly3.zero())

    @classmethod
    def from_terms(cls, terms):
        return cls(Poly3.from_terms(terms))

    def __call__(self, x, ta, tb):
        return self.poly(x, ta, tb)

    def is_zero(self):
        return not self.poly.terms()

    def x_deriv(self, q=1):
        return LateralLoad(self.poly.deriv(0, q))

    def circle_integral(self, x, h):
        """oint phi(x, .) dl over the circle of radius h (vectorized in x)."""
        x = np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        out = np.zeros(np.broadcast(x, h).shape)
        for (pi, pa, pb), c in self.poly.terms():
            out += c * x ** pi * circle_monomial_integral(pa, pb, 1.0) * h ** (pa + pb + 1)
        return out

    def circle_modes(self, x, h, nmax):
        """Harmonic expansion of theta -> phi(x, h cos, h sin).

        Returns (a, b): a[0] + sum a[n] cos(n theta) + b[n] sin(n theta),
        arrays of shape (nmax+1,).  Scalar x only.
        """
        a = np.zeros(nmax + 1)
        b = np.zeros(nmax + 1)
        for (pi, pa, pb), c in self.poly.terms():
            ca, cb = trig_power_modes(pa, pb)
            w = c * float(x) ** pi * float(h) ** (pa + pb)
            n = min(nmax, pa + pb)
            a[: n + 1] += w * ca[: n + 1]
            b[: n + 1] += w * cb[: n + 1]
        return a, b

    @property
    def max_harmonic(self):
        return max((pa + pb for (_, pa, pb), _ in self.poly.terms()), default=0)

    def to_json(self):
        if self.is_zero():
            return None
        return {"terms": [{"powers": [int(p) for p in pw], "coef": float(c)}
                          for pw, c in self.poly.terms()]}


@dataclass
class ProblemSpec:
    """Complete problem description (geometry + data + expansion controls)."""

    epsilon: float
    ell: float
    alpha: float
    delta_cut: float
    order: int
    h: tuple
    f: SourceField
    phi: tuple

    def __post_init__(self):
        if not 0.0 < self.ell < 1.0 / 3.0:
            raise ValueError("ell must lie in (0, 1/3)")
        if not 2.0 / 3.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (2/3, 1)")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.delta_cut < 0.5:
            raise ValueError("delta_cut must lie in (0, 1/2)")
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if len(self.h) != 3 or len(self.phi) != 3:
            raise ValueError("need three radius profiles and three lateral loads")
        # the order-4 disk data miss their flux balance on a varying radius
        varying = [i for i, h in enumerate(self.h) if not h.is_constant()]
        if self.order >= 4 and varying:
            raise ValueError(f"order {self.order} needs constant radii; the "
                             f"radius of edges {varying} varies")

    def check_attachable(self):
        """Geometric fit of the tubes on the bulge faces (needed for meshes)."""
        for prof in self.h:
            if prof.value0 >= self.ell:
                raise ValueError("attachment disks must fit in the bulge face: "
                                 "h_i(0) < ell")

    def h0(self, edge):
        return self.h[edge].value0

    def junction_band(self):
        """Cutoff of the junction layer along each outlet, in the fast
        variable: from ell + 1 to ell + 2."""
        return SmoothStep(self.ell + 1.0, self.ell + 2.0)

    def far_field_start(self):
        """Start of the far field along each outlet, in the fast
        variable: ell + 2.5, past the junction band.  The junction mesh
        keeps its fine stations up to this plane, and far-field slopes
        of junction fields are fitted from it on."""
        return self.ell + 2.5

    def matching_band(self):
        """Cutoff of the matching zone in the stretched variable
        x / epsilon^alpha: from 2 ell to 3 ell."""
        return SmoothStep(2.0 * self.ell, 3.0 * self.ell)

    def matching_planes(self):
        """The matching band's ends in x at this slenderness.  The thin
        mesh has a station on each, and tube estimates are observed past
        the second (``ReferenceSolution.observation_interval``)."""
        band, scale = self.matching_band(), self.epsilon ** self.alpha
        return band.lo * scale, band.hi * scale

    def end_band(self):
        """Cutoff of the end layers in x: from 1 - 2 delta to 1 - delta."""
        return SmoothStep(1.0 - 2.0 * self.delta_cut, 1.0 - self.delta_cut)

    def to_json(self):
        return {
            "schema": 1,
            "epsilon": self.epsilon,
            "ell": self.ell,
            "alpha": self.alpha,
            "delta_cut": self.delta_cut,
            "order": self.order,
            "h": [p.to_json() for p in self.h],
            "f": self.f.to_json(),
            "phi": [p.to_json() for p in self.phi],
            "aneurysm": {"type": "box"},  # the one shape; keeps digests
        }


def _radius_from_json(key, entry):
    if not isinstance(entry, dict):
        return RadiusProfile.constant(_number(key, entry))
    return RadiusProfile(
        _numbers(f"{key}.breakpoints", entry["breakpoints"]),
        [_numbers(f"{key}.pieces[{j}]", piece)
         for j, piece in enumerate(entry["pieces"])])


def _terms_from_json(key, terms):
    """(powers, coef) of each polynomial term, its values checked."""
    out = []
    for j, t in enumerate(terms):
        pw = t["powers"]
        if not (isinstance(pw, list) and len(pw) == 3 and all(
                isinstance(p, numbers.Integral) and not isinstance(p, bool)
                and p >= 0 for p in pw)):
            raise ValueError(f"{key}[{j}].powers must be three nonnegative "
                             f"integers, not {pw!r}")
        out.append((pw, _number(f"{key}[{j}].coef", t["coef"])))
    return out


def _load_from_json(key, entry):
    if entry is None or (is_number(entry) and entry == 0):
        return LateralLoad.zero()
    if not isinstance(entry, dict):
        raise ValueError(f"{key} must be null or a polynomial, not {entry!r}")
    return LateralLoad.from_terms(_terms_from_json(f"{key}.terms",
                                                   entry["terms"]))


def is_number(value):
    """A real number that is not a boolean."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number(key, value):
    if not is_number(value):
        raise ValueError(f"{key} must be a number, not {value!r}")
    return float(value)


def _numbers(key, values):
    if not isinstance(values, list):
        raise ValueError(f"{key} must be a list of numbers, not {values!r}")
    return [_number(f"{key}[{j}]", v) for j, v in enumerate(values)]


# the keys of a problem document, as ``ProblemSpec.to_json`` writes them
_SPEC_KEYS = {"schema", "epsilon", "ell", "alpha", "delta_cut", "order", "h",
              "f", "phi", "aneurysm"}
_REQUIRED_KEYS = ("epsilon", "ell", "alpha", "h", "f", "phi")


def read_document(source, error=ValueError):
    """The JSON object of a file path (``str`` or path-like), of JSON
    text, or a dict as it is.  A source that is neither a readable file
    nor JSON text, or whose document is no object, raises ``error``
    naming it."""
    if isinstance(source, dict):
        return source
    try:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.loads(fh.read())
    except (OSError, TypeError) as exc:
        try:
            doc = json.loads(source)
        except (ValueError, TypeError):
            raise error(f"{source!r} is neither a readable file ({exc}) "
                        f"nor JSON text") from None
    if not isinstance(doc, dict):
        raise error(f"{source!r} holds no JSON object")
    return doc


def load_spec(source):
    """Build a ProblemSpec from a JSON file path, JSON text, or a dict
    (``read_document``).

    Unknown or missing keys, numbers given as strings or booleans (also
    inside ``h``, ``f`` and ``phi``), term powers that are not three
    nonnegative integers and a non-integer order raise ``ValueError``
    naming the key, as ``h[0]`` or ``f.terms[0].coef``.  A source that
    is neither a readable file nor JSON text raises ``ValueError``
    naming it.
    """
    doc = read_document(source)
    if doc.get("schema") != 1:
        raise ValueError("unsupported problem-file schema")
    unknown = sorted(set(doc) - _SPEC_KEYS)
    if unknown:
        raise ValueError(f"unknown problem keys: {unknown}")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if "f" in doc and "terms" not in doc["f"]:
        missing.append("f.terms")
    if missing:
        raise ValueError(f"missing problem keys: {missing}")
    order = doc.get("order", 2)
    if not isinstance(order, numbers.Integral) or isinstance(order, bool):
        raise ValueError(f"order must be an integer, not {order!r}")
    f = SourceField.from_terms(_terms_from_json("f.terms", doc["f"]["terms"]))
    aneurysm = doc.get("aneurysm", {"type": "box"})
    if aneurysm.get("type", "box") != "box":
        raise ValueError("only the box bulge shape is supported")
    return ProblemSpec(
        epsilon=_number("epsilon", doc["epsilon"]),
        ell=_number("ell", doc["ell"]),
        alpha=_number("alpha", doc["alpha"]),
        delta_cut=_number("delta_cut", doc.get("delta_cut", 0.1)),
        order=int(order),
        h=tuple(_radius_from_json(f"h[{i}]", e)
                for i, e in enumerate(doc["h"])),
        f=f,
        phi=tuple(_load_from_json(f"phi[{i}]", e)
                  for i, e in enumerate(doc["phi"])),
    )
