"""Seeded fixtures, the three workloads, independent references and the
correctness gate.

Every input comes from ``--seed``: base points inside each chart, the ladder
radius rho0, the optimizer's reference radius, the Bartnik radius and the
coefficients of the user-defined metrics.  A workload draws a pool of
fixtures per metric kind and cycles through it, so the first pass over the
pool is the same set of ops in every run of a seed; accuracy figures and
per-layer counts come from that pass and repeat exactly.

References are independent of the package: closed-form curvature for the
analytic kinds, and for the conformal kind ``tests/oracles.py``:
``ConformalScalarOracle`` (closed conformally flat formulas for Sc and its
Laplacian, sympy derivatives) and ``SymbolicMetricOracle`` (sympy
derivatives, loop-assembled Ricci tensor) for |S|^2.
"""

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ops import relerr

ROOT = Path(__file__).resolve().parent.parent

KINDS = ("euclidean", "round_sphere", "hyperbolic", "schwarzschild", "conformal")
# the pooled kind whose curvature comes from finite differences
FINITE_DIFFERENCE_KIND = "conformal"

# A completed op whose numbers miss the reference by more than these shares
# of the reference scale counts as failed.  They sit well above what the
# program produces today (for example the 8% Schwarzschild c5 error of the
# grid floor), so they flag wrong physics, not known accuracy limits.
GROSS_PACKET = 1e-3
GROSS_FIT = 0.5
GROSS_AREA = 1e-6
# relative errors below this count as exact when converted to digits
DIGITS_FLOOR = 1e-16

_CONFORMAL_MONOMIALS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))


@dataclass(frozen=True)
class Workload:
    commands: tuple
    pool_per_kind: int


WORKLOADS = {
    # one geodesic fan read by a few surfaces: the fan build dominates
    "ladder": Workload(("expansion", "el-residual"), 3),
    # one fan read by about fifty surfaces and as many area solves: surface
    # geometry and fan interpolation dominate
    "optimize": Workload(("optimize",), 2),
    # curvature packets and config/report handling only, no fan or surface;
    # ten fixtures per kind keep the finite-difference accuracy figure steady
    "packets": Workload(("curvature", "bartnik"), 10),
}

LADDER_GRID = {"n_theta": 48, "n_phi": 96}
OPTIMIZE_GRID = {"n_theta": 32, "n_phi": 64}
OPTIMIZE_SETTINGS = {"max_degree": 4, "max_iters": 1}


@dataclass
class Reference:
    """Curvature at the base point from an independent source."""

    scalar: float
    traceless_norm_sq: float
    scalar_laplacian: float

    @property
    def kappa(self):
        """Curvature scale (units 1/length^2) that floors relative errors."""
        return max(abs(self.scalar), math.sqrt(self.traceless_norm_sq))

    @property
    def c3(self):
        return self.scalar / 12.0

    @property
    def c5(self):
        return (
            self.scalar_laplacian / 120.0
            + self.traceless_norm_sq / 90.0
            - self.scalar**2 / 144.0
        )


@dataclass
class Fixture:
    index: int
    kind: str
    metric: dict
    point: list
    params: dict = field(default_factory=dict)

    def config(self, workload):
        cfg = {"metric": self.metric, "point": self.point}
        if workload == "ladder":
            cfg["grid"] = dict(LADDER_GRID)
            cfg["ladder"] = {"rho0": self.params["rho0"], "n": 6}
        elif workload == "optimize":
            cfg["grid"] = dict(OPTIMIZE_GRID)
            cfg["optimizer"] = {
                **OPTIMIZE_SETTINGS, "reference_rho": self.params["reference_rho"],
            }
        elif workload == "packets":
            cfg["bartnik"] = {"rho": self.params["bartnik_rho"], "validity_radius": 1.0}
        return cfg


def _direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _in_ball(rng, radius):
    return _direction(rng) * radius * rng.uniform() ** (1.0 / 3.0)


def _conformal_terms(rng):
    picks = rng.choice(len(_CONFORMAL_MONOMIALS), size=3, replace=False)
    coefs = rng.uniform(0.05, 0.15, size=3) * rng.choice((-1.0, 1.0), size=3)
    return [[float(c), list(_CONFORMAL_MONOMIALS[i])] for c, i in zip(coefs, picks)]


def _fixture(index, kind, rng):
    if kind == "euclidean":
        metric, point = {"kind": "euclidean"}, rng.uniform(-1.0, 1.0, 3)
    elif kind == "round_sphere":
        metric, point = {"kind": "round_sphere", "radius": 1.0}, _in_ball(rng, 0.5)
    elif kind == "hyperbolic":
        metric, point = {"kind": "hyperbolic", "radius": 1.0}, _in_ball(rng, 0.2)
    elif kind == "schwarzschild":
        # spherical symmetry: the direction is free, the areal radius sets the physics
        metric = {"kind": "schwarzschild", "mass": 1.0}
        point = _direction(rng) * rng.uniform(3.95, 4.05)
    elif kind == "conformal":
        metric = {"kind": "conformal", "phi_poly": _conformal_terms(rng)}
        point = _in_ball(rng, 0.3)
    elif kind == "polynomial_perturbation":
        terms = [
            [0, 0, float(rng.uniform(0.05, 0.1)), [2, 0, 0]],
            [0, 1, float(rng.uniform(-0.05, 0.05)), [0, 0, 2]],
            [1, 2, float(rng.uniform(-0.05, 0.05)), [1, 0, 0]],
        ]
        metric, point = {"kind": kind, "terms": terms}, _in_ball(rng, 0.3)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    params = {
        "rho0": float(rng.uniform(0.198, 0.202)),
        "reference_rho": float(rng.uniform(0.0495, 0.0505)),
        "bartnik_rho": float(rng.uniform(0.05, 0.15)),
    }
    return Fixture(index, kind, metric, [float(v) for v in point], params)


def fixture_pool(workload, seed):
    """The seeded fixture pool of a workload, kinds interleaved."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    count = WORKLOADS[workload].pool_per_kind
    pool = []
    for _ in range(count):
        for kind in KINDS:
            pool.append(_fixture(len(pool), kind, rng))
    return pool


def probe_fixture(seed):
    """A ``polynomial_perturbation`` fixture for the known-defect probe."""
    rng = np.random.default_rng([seed, len(WORKLOADS)])
    return _fixture(-1, "polynomial_perturbation", rng)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def _oracles():
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles

    return oracles


def reference(fixture):
    """Independent curvature reference at the fixture's base point."""
    kind, spec = fixture.kind, fixture.metric
    if kind == "euclidean":
        return Reference(0.0, 0.0, 0.0)
    if kind in ("round_sphere", "hyperbolic"):
        sign = 1.0 if kind == "round_sphere" else -1.0
        return Reference(sign * 6.0 / spec["radius"] ** 2, 0.0, 0.0)
    if kind == "schwarzschild":
        # vacuum slice: Sc = 0 and Ric = (m / r^3) diag(-2, 1, 1) in an
        # orthonormal frame, so |S|^2 = 6 m^2 / r^6
        r = float(np.linalg.norm(fixture.point))
        return Reference(0.0, 6.0 * spec["mass"] ** 2 / r**6, 0.0)
    if kind != "conformal":
        raise ValueError(f"no reference for kind {kind!r}")
    terms = [(c, tuple(e)) for c, e in spec["phi_poly"]]

    def phi(x, y, z):
        return sum(c * x**a * y**b * z**d for c, (a, b, d) in terms)

    point = np.asarray(fixture.point, dtype=float)
    # Sc and its Laplacian from the closed conformally flat formulas, exact
    # to rounding; Ricci from the symbolic tensor assembly
    exact = _oracles().ConformalScalarOracle(phi)
    tensors = _oracles().conformal_symbolic(phi)
    g = tensors._data(point)[0]
    g_inv = np.linalg.inv(g)
    scalar = exact.scalar(point)
    traceless = tensors.ricci(point) - scalar / 3.0 * g
    s2 = float(np.einsum("ac,bd,ab,cd->", g_inv, g_inv, traceless, traceless))
    return Reference(scalar, s2, exact.scalar_laplacian(point))


# ---------------------------------------------------------------------------
# the correctness gate and accuracy figures
# ---------------------------------------------------------------------------

def _packet_errors(packet, ref):
    k = ref.kappa
    return {
        "scalar": relerr(packet["scalar"], ref.scalar, k),
        "traceless_norm_sq": relerr(packet["traceless_norm_sq"], ref.traceless_norm_sq, k * k),
        "scalar_laplacian": relerr(packet["scalar_laplacian"], ref.scalar_laplacian, k * k),
    }


def assess(result, fixture, ref):
    """Compare one completed op with the references.

    Returns ``(figures, violations)``: the op's accuracy figures by name and
    a list of gross violations (empty when the report is acceptable).
    """
    report, cmd = result.report, result.command
    k = ref.kappa
    figures, bad = {}, []
    if report.get("command") != cmd:
        bad.append(f"report is for {report.get('command')!r}")
    if report.get("config", {}).get("point") != fixture.point:
        bad.append("report does not echo the base point")

    def gate(name, value, limit):
        figures[name] = value
        if not value <= limit:
            bad.append(f"{name} = {value:.3g} exceeds {limit:g}")

    if cmd == "curvature":
        for name, err in _packet_errors(report["packet"], ref).items():
            gate(f"packet.{name}", err, GROSS_PACKET)
    elif cmd == "bartnik":
        bound, rho = report["bound"], report["bound"]["rho"]
        gate("bartnik.cubic", relerr(bound["cubic_term"], ref.c3 * rho**3, k / 12 * rho**3),
             GROSS_PACKET)
        gate("bartnik.quintic",
             relerr(bound["quintic_term"], ref.c5 * rho**5, k * k / 144 * rho**5),
             GROSS_PACKET)
    elif cmd == "expansion":
        pred, fit = report["predicted"], report["fit"]
        gate("predicted.c3", relerr(pred["c3"], ref.c3, k / 12), GROSS_PACKET)
        gate("predicted.c5", relerr(pred["c5"], ref.c5, k * k / 144), GROSS_PACKET)
        if k > 0.0:
            gate("fit.c3", relerr(fit["c3"], ref.c3, k / 12), GROSS_FIT)
            gate("fit.c5", relerr(fit["c5"], ref.c5, k * k / 144), GROSS_FIT)
        else:  # flat: both coefficients are pure grid floor
            figures["fit.c3_flat"], figures["fit.c5_flat"] = fit["c3"], fit["c5"]
        figures["fit.cond"] = fit["condition_number"]
    elif cmd == "el-residual":
        res = report["residual"]
        gate("el.lambda", relerr(res["lambda"], 2.0 * ref.scalar / 3.0, 2.0 * k / 3.0),
             GROSS_PACKET)
        gate("el.sup_relative", res["sup_norm_relative"], 1.0)
        if fixture.kind == "euclidean":
            figures["floor_w"] = abs(report["surface"]["willmore"] - 16.0 * math.pi)
    elif cmd == "optimize":
        res, ref_mass = report["result"], report["reference_mass"]
        rho = fixture.params["reference_rho"]
        # the mass the expansion predicts sets the scale: for Schwarzschild
        # c3 = 0 and the whole mass is the c5 term
        scale = max(abs(ref.c3) * rho**3, abs(ref.c5) * rho**5)
        gate("area_drift", abs(res["area"] - res["target_area"]) / res["target_area"],
             GROSS_AREA)
        if scale > 0.0:  # flat space: the reference mass is pure grid floor
            expected = ref.c3 * rho**3 + ref.c5 * rho**5
            gate("reference_mass", relerr(ref_mass, expected, scale), GROSS_FIT)
            # after a fixed iteration budget this measures convergence, so
            # it is reported but not gated
            figures["mass_gap"] = (res["m_H_star"] - ref_mass) / max(abs(ref_mass), scale)
        # L2 norm of the residual over its leading scale 2/rho^3 times sqrt(area)
        figures["el_norm"] = (
            res["el_residual_norm"] * res["rho_star"] ** 3 / (2.0 * math.sqrt(res["area"]))
        )
    return figures, bad


def _max(values):
    values = list(values)
    return max(values) if values else 0.0


def by_kind(entries):
    """Per kind, each figure's value of largest magnitude (sign kept)."""
    out = {}
    for kind, figures in entries:
        row = out.setdefault(kind, {})
        for name, value in figures.items():
            if abs(value) >= abs(row.get(name, 0.0)):
                row[name] = value
    return out


def _digits(err):
    return -math.log10(max(err, DIGITS_FLOOR))


def accuracy(workload, entries):
    """Headline digits and per-layer accuracy figures of a first pass.

    ``entries`` holds one ``(kind, figures)`` pair per op.  The headline is
    the number of digits to which the worst reference-checked quantity
    agrees with its reference: over the c3 and c5 fits for ``ladder``, over
    the closed-form reference mass and the area constraint for
    ``optimize``.  For ``packets`` it is the mean, over ops on the
    finite-difference kind, of each op's worst packet or Bartnik digits: the
    closed-form kinds are exact to rounding, and the worst of a few
    finite-difference points swings by a digit from seed to seed.
    Per-layer figures a workload does not produce read 0.
    """
    figures = [f for _, f in entries]

    def pick(name):
        return [f[name] for f in figures if name in f]

    packet = pick("packet.scalar") + pick("packet.traceless_norm_sq") + pick(
        "packet.scalar_laplacian"
    )
    c3, c5 = pick("fit.c3"), pick("fit.c5")
    gaps = pick("mass_gap")
    per_layer = {
        "manifold.packet_err": _max(packet),
        "expansion.c3_relerr": _max(c3),
        "expansion.c5_relerr": _max(c5),
        "expansion.fit_cond": _max(pick("fit.cond")),
        "surface.floor_w": _max(pick("floor_w")),
        "harmonics.el_relerr": _max(pick("el.sup_relative")),
        "optimizer.mass_gap": min(gaps) if gaps else 0.0,
        "optimizer.area_drift": _max(pick("area_drift")),
        "optimizer.el_norm": _max(pick("el_norm")),
    }
    if workload == "ladder":
        digits = _digits(_max(c3 + c5))
    elif workload == "optimize":
        digits = _digits(_max(pick("reference_mass") + pick("area_drift")))
    else:
        checked = ("packet.scalar", "packet.traceless_norm_sq", "packet.scalar_laplacian",
                   "bartnik.cubic", "bartnik.quintic")
        per_op = [_digits(max(f[k] for k in checked if k in f))
                  for kind, f in entries if kind == FINITE_DIFFERENCE_KIND]
        digits = sum(per_op) / len(per_op) if per_op else 0.0
    return digits, per_layer
