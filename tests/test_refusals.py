"""Refusals that no other test reaches: each call below is refused with its own message."""

import numpy as np
import pytest

from sympforge import dyons, forms4d, monodromy, reduction3d, serialize, siegel, taming
from sympforge import exactmat as xm
from sympforge import symplattice as sl

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
GRID = reduction3d.Grid3(shape=(3, 3, 3), spacing=(1.0, 1.0, 1.0))
ROT = siegel.SiegelElement.make([[1, 1], [0, 1]], (1,))


def dyon():
    return dyons.dyon_construct(taming.electrodynamics_taming(0.0, 1.0), [1.0, 0.0], [0.0, 0.0])


@pytest.mark.parametrize("call, message", [
    (lambda: forms4d.hodge_star(np.eye(2), np.zeros(2), 1), "metric must be 3x3 or 4x4"),
    (lambda: forms4d.hodge_star(np.eye(4), np.zeros(3), 1), r"form must be \(\*batch"),
    (lambda: forms4d.LorentzPoint(np.eye(3)), "metric must be 4x4"),
    (lambda: forms4d.LorentzPoint(ETA, orientation=0), "orientation must be"),
    (lambda: forms4d.as_two_form(np.zeros((2, 3, 3))), "two-form coefficients must be k x 4"),
    (lambda: forms4d.g_map(forms4d.LorentzPoint(ETA), (np.zeros((2, 2)), np.eye(2)),
                           np.zeros((1, 4, 4))), "period matrix rank 2 vs form rank 1"),
    (lambda: forms4d.check_polarized_selfdual(forms4d.LorentzPoint(ETA), (np.zeros((1, 1)),
                                              np.eye(1)), np.zeros((1, 4, 4))),
     "form rank must be twice the period-matrix rank"),
    (lambda: forms4d.duality_act(np.eye(4), np.zeros((2, 4, 4))), "gamma size does not match"),
    (lambda: reduction3d.Grid3(shape=(3, 3), spacing=(1.0, 1.0, 1.0)),
     "shape and spacing must have three entries"),
    (lambda: reduction3d.Grid3(shape=(3, 3, 3), spacing=(1.0, 1.0, 1.0), metric=np.eye(2)),
     "metric must be 3x3 or per-node"),
    (lambda: reduction3d.BogomolnyPair(np.zeros(2), np.zeros((2, 3, 2))),
     "V must have trailing 3x3 axes"),
    (lambda: serialize.float_array_from_json([1, 2], (3,)), r"expected an array of shape \(3,\)"),
    (lambda: serialize.two_form_from_json({"rank": 2, "coeffs": np.zeros((1, 4, 4)).tolist()}),
     "declared rank does not match coefficient count"),
    (lambda: serialize.grid_field_to_json(GRID, {"a": np.zeros(GRID.shape)}, binary=True),
     "binary payloads need a header path"),
    (lambda: serialize.grid_field_from_json({"shape": [3, 3, 3], "spacing": [1, 1, 1],
                                             "fields": {"a": {"file": 5, "shape": [3, 3, 3]}}}),
     "payload file name 5 must be a string"),
    (lambda: ROT @ siegel.SiegelElement.make([[1, 0], [0, 1]], (2,)),
     "elements live in groups of different type"),
    (lambda: siegel.AffElement.make([0], ROT), "translation length does not match rotation size"),
    (lambda: sl.validate_type([]), "type vector must be non-empty"),
    (lambda: sl.type_meet_join((1,), (1, 1)), "type vectors have different lengths"),
    (lambda: monodromy.Presentation.make(0, []), "need at least one generator"),
    (lambda: monodromy.verify_dirac_system([], [[1]]), "lattice basis must be square of even"),
    (lambda: dyon().psi(0.0), "radius must be positive"),
    (lambda: dyon().dpsi_dr(-1.0), "radius must be positive"),
    (lambda: dyon().sample_pair(reduction3d.Grid3(shape=(3, 3, 3), spacing=(1.0, 1.0, 1.0),
                                                  origin=(-1.0, -1.0, -1.0))),
     "grid touches the puncture"),
    (lambda: dyons.h_theta_fiber_check(GRID, *[np.zeros(GRID.shape + (3,))] * 2,
                                       *[np.zeros(GRID.shape)] * 2, 0.0, 0.0),
     "g\\^2 must be positive"),
    (lambda: taming.electrodynamics_period(0.0, 0.0), "coupling g\\^2 must be positive"),
    (lambda: xm.matmul([[1, 2]], [[1, 2]]), "matmul shape mismatch"),
    (lambda: xm.matvec([[1, 2]], [1]), "matvec shape mismatch"),
], ids=["hodge_star_metric", "star_form", "lorentz_metric", "lorentz_orientation",
        "two_form_shape", "g_map_rank", "selfdual_rank", "duality_size", "grid_entries",
        "grid_metric", "bogomolny_V", "array_shape", "two_form_rank", "binary_path",
        "payload_name", "siegel_matmul_types", "aff_length", "empty_type", "meet_join_lengths",
        "zero_generators", "odd_lattice_basis", "psi_radius", "dpsi_radius", "puncture",
        "fiber_coupling", "edyn_period_coupling", "matmul", "matvec"])
def test_refusal(call, message):
    with pytest.raises(ValueError, match=message):
        call()
