"""Workload ``grid``: static Bogomolny and 4d-lift residuals on Cartesian grids.

``reduction3d`` and dyon sampling do nearly all the work here.  Grids of
17^3, 25^3 and 33^3 nodes put the working set from about 1 MB to tens of
MB, against a 4 MiB L2.  Each field op samples the closed-form dyon
(``sample_pair``), then evaluates ``bogomolny_residual`` and ``lift_to_4d``
under one of three metrics:

* ``euclid``: the identity metric and the sampled fields themselves;
* ``const``: constant ``h = A^T A`` with the fields pulled back along
  ``x -> A x``;
* ``pernode``: ``h = Dphi^T Dphi`` per node for a smooth map ``phi`` near
  the identity, with fields ``psi o phi`` and ``phi^* V``.

Pulling back along an orientation-preserving map keeps an exact solution,
so every residual is a pure discretisation error and must stay below a
second-order bound ``C h^2``.  ``electrodynamics_dyon`` with
``h_theta_fiber_check`` runs on Euclidean grids only.
"""

import numpy as np

import calib
from harness import Op
from pointwise import close, period, ref_taming
from sympforge import dyons, reduction3d

SPACING = 0.01
# (nodes per axis, 2n, metric kind) for the field ops of one round.  The
# five 17^3 per-node ops form one homogeneous block that holds both the
# median op and the tail op (the 16th of 26, or 29th of 39, in two or three
# rounds); the other ops are at least 1.3x faster or slower than it.
FIELD_OPS = ((17, 2, "euclid"), (17, 4, "const")) + ((17, 4, "pernode"),) * 5 + \
    ((25, 2, "const"), (25, 2, "pernode"), (33, 2, "pernode"))
EDYN_SIZES = (17, 25, 33)
# second-order bound on every residual: C_RES * h^2 * max|J v| / r_min^4
C_RES = 40.0
TRACE_ROUNDS = 2
EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS3[_i, _j, _k], EPS3[_i, _k, _j] = 1.0, -1.0


def axes_points(nodes, origin):
    ax = [origin[k] + SPACING * np.arange(nodes) for k in range(3)]
    return np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1)


def dyon_fields(Y, J, v, vp):
    """Closed-form psi = J v / 2r + v' and V = -(v/2) (solid-angle form) at Y."""
    r = np.linalg.norm(Y, axis=-1)
    psi = (J @ v) / (2.0 * r[..., None]) + vp
    sigma = np.einsum("abc,...c->...ab", EPS3, Y / r[..., None] ** 3)
    return psi, np.einsum("j,...ab->...jab", -0.5 * v, sigma)


def warp(rng, X, kind):
    """Map phi and its Jacobian Dphi[..., c, a] = d phi^c / d x^a."""
    if kind == "euclid":
        return X, None
    if kind == "const":
        while True:
            A = np.eye(3) + 0.25 * rng.standard_normal((3, 3))
            if np.linalg.det(A) > 0.3 and np.linalg.cond(A) < 4:
                return X @ A.T, np.broadcast_to(A, X.shape[:-1] + (3, 3))
    eps = 0.05
    k = rng.uniform(2.0, 6.0, 3)
    ph = rng.uniform(0.0, 2 * np.pi, 3)
    src = (1, 2, 0)          # phi^c depends on x^src[c]
    Y = X.copy()
    D = np.zeros(X.shape[:-1] + (3, 3))
    for c in range(3):
        s = k[c] * X[..., src[c]] + ph[c]
        Y[..., c] += eps * np.sin(s)
        D[..., c, c] = 1.0
        D[..., c, src[c]] += eps * k[c] * np.cos(s)
    return Y, D


def field_op(rng, nodes, two_n, kind):
    n = two_n // 2
    J = ref_taming(*period(rng, n))
    v = rng.integers(-2, 3, size=two_n).astype(float)
    if not v.any():
        v[-1] = 1.0
    vp = rng.standard_normal(two_n)
    origin = tuple(rng.uniform(1.2, 1.6, 3))
    X = axes_points(nodes, origin)
    psi_e, V_e = dyon_fields(X, J, v, vp)
    Y, D = warp(rng, X, kind)
    if D is None:
        metric, psi, V = np.eye(3), None, None
    else:
        metric = np.einsum("...ca,...cb->...ab", D, D)
        if kind == "const":
            metric = np.array(metric[0, 0, 0])
        psi, Vy = dyon_fields(Y, J, v, vp)
        V = np.einsum("...ca,...jcd,...db->...jab", D, Vy, D)
    r_min = float(np.min(np.linalg.norm(Y, axis=-1)))
    bound = C_RES * SPACING ** 2 * float(np.max(np.abs(J @ v))) / r_min ** 4
    info = {"nodes": nodes ** 3, "kind": kind}

    def run():
        sol = dyons.dyon_construct(J, v, vp)
        flat = reduction3d.Grid3((nodes,) * 3, (SPACING,) * 3, origin)
        pair = sol.sample_pair(flat)
        if psi is None:
            grid, fields = flat, pair
        else:
            grid = reduction3d.Grid3((nodes,) * 3, (SPACING,) * 3, origin, metric)
            fields = reduction3d.BogomolnyPair(psi, V)
        bog = reduction3d.bogomolny_residual(grid, J, fields)
        lift = reduction3d.lift_to_4d(fields, grid, J)
        return pair, bog, lift

    def check(res):
        pair, bog, lift = res
        info["residuals"] = (bog["eq_residual"], bog["closure_residual"], lift["residual"])
        return (close(pair.psi, psi_e, 1e-12) and close(pair.V, V_e, 1e-12)
                and all(0.0 <= x < bound for x in info["residuals"]))
    return Op(f"field_{kind}", run, check, info=info)


def edyn_op(rng, nodes):
    # h_theta_fiber_check uses a fixed absolute tolerance of 1e-5, so the
    # charges and coupling stay in the range where the field scale suits it
    theta = float(rng.uniform(-np.pi, np.pi))
    gsq = float(rng.uniform(4.0, 16.0))
    qe, qm = (int(x) for x in rng.integers(-1, 2, 2))
    if qe == qm == 0:
        qm = 1
    origin = tuple(rng.uniform(1.8, 2.2, 3))
    X = axes_points(nodes, origin)
    J = np.array([[gsq * theta / (8 * np.pi ** 2), gsq / (4 * np.pi)],
                  [-4 * np.pi / gsq - gsq * theta ** 2 / (16 * np.pi ** 3),
                   -gsq * theta / (8 * np.pi ** 2)]])
    v = np.array([float(qe), float(qm)])
    r = np.linalg.norm(X, axis=-1)
    phi_ref = -(J @ v)[0] / (2.0 * r)
    bound = C_RES * SPACING ** 2 * float(np.max(np.abs(J @ v)) + 1.0) / float(r.min()) ** 4
    info = {"nodes": nodes ** 3, "kind": "edyn"}

    def run():
        grid = reduction3d.Grid3((nodes,) * 3, (SPACING,) * 3, origin)
        out = dyons.electrodynamics_dyon(theta, gsq, qe, qm, grid=grid)
        fiber = dyons.h_theta_fiber_check(out["grid"], out["E_vec"], out["B_vec"],
                                          out["Phi"], out["Upsilon"], theta, gsq)
        return out, fiber

    def check(res):
        out, (ok, _) = res
        return (ok is True and close(out["Phi"], phi_ref, 1e-12)
                and all(0.0 <= x < bound for x in out["maxwell"].values()))
    return Op("edyn", run, check, info=info)


# reference kernel (see calib.py): the checks' own closed-form dyon fields
# on a fixed 21^3 grid, the same in every run whatever the seed
_CAL_X = axes_points(21, (1.5, 1.5, 1.5))
_CAL_J = ref_taming(np.array([[0.3]]), np.array([[1.2]]))


@calib.kernel(2.4e-3)
def kernel():
    dyon_fields(_CAL_X, _CAL_J, np.array([1.0, -1.0]), np.zeros(2))


class Workload:
    name = "grid"
    trace_rounds = TRACE_ROUNDS
    kernel = staticmethod(kernel)

    def __init__(self, seed):
        self.seed = seed

    def round(self, k):
        rng = np.random.default_rng([self.seed, k])
        ops = [field_op(rng, *spec) for spec in FIELD_OPS]
        return ops + [edyn_op(rng, nodes) for nodes in EDYN_SIZES]

    def warmup(self):
        rng = np.random.default_rng([self.seed, 10 ** 9])
        return [field_op(rng, 5, 2, kind) for kind in ("euclid", "const", "pernode")] + \
            [edyn_op(rng, 5)]

    @staticmethod
    def counters(ops):
        return {"reduction3d.grid_nodes": sum(op.info["nodes"] for op in ops)}
