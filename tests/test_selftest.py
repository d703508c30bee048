import random

import numpy as np

from sympforge import cli, exactmat as xm, selftest, symplattice as sl
from oracles import random_member_by_elements
from strictjson import strict_loads

# every suite and result name the selftest report carries, in report order
NAMES = {
    "symplattice": ["normal_form_exact", "type_conjugation_invariant", "lattice_laws",
                    "roundtrip_identity"],
    "siegel_group": ["membership_closure", "aff_group_axioms"],
    "taming": ["theta_roundtrip", "forward_invariants", "conjugation_preserves_taming"],
    "forms4d": ["star_squares_to_minus_one", "polarized_star_involution",
                "twisted_selfdual_lemma", "duality_equivariance"],
    "reduction3d": ["decompose_reassemble", "astdec_factorization", "dyon_bogomolny",
                    "dyon_closure", "dyon_4d_lift"],
    "dyons": ["closed_form_equation", "flux_quantization", "electrodynamics_maxwell",
              "h_theta_fiber"],
    "monodromy": ["conjugation_invariance", "dirac_witness"],
}


def test_every_suite_passes_with_its_result_names():
    for seed in range(20):
        passed, report = selftest.run("all", seed)
        assert passed, (seed, report)
        assert {name: list(suite["results"]) for name, suite in report.items()} == NAMES
        assert list(report) == list(NAMES)
        assert all(ok is True for suite in report.values() for ok in suite["results"].values())


def test_one_false_case_fails_the_run(monkeypatch, capsys):
    # the same name from two cases is ANDed: True then False reads False
    cases = [(2, lambda rng: {"held": True, "broken": True}),
             (1, lambda rng: {"broken": False})]
    monkeypatch.setitem(selftest.SUITES, "taming", (np.random.default_rng, cases))
    code = cli.main(["selftest", "taming", "--seed", "3"])
    report = strict_loads(capsys.readouterr().out)
    assert code == 1
    assert report["status"] == "failed"
    assert report["suites"]["taming"]["results"] == {"held": True, "broken": False}


def test_generators_give_what_their_names_say():
    rng = random.Random(0)
    for n in (1, 2, 3):
        G = selftest.random_gram(rng, n)
        assert xm.mat_equal(xm.transpose(G), [[-x for x in row] for row in G])
        assert xm.det(G) != 0
        assert abs(xm.det(selftest.random_unimodular(rng, 2 * n, ops=8))) == 1
        t = selftest.random_chain(rng, n)
        assert sl.validate_type(t) == t


def test_member_sampler_draws_the_word_of_group_elements():
    """The integer sampler gives the element, and leaves the stream, as the word of checked
    generators and inverses multiplied by the group law."""
    for t in [(1,), (2,), (1, 2), (2, 4), (1, 2, 4), (3, 3), (1, 1, 1)]:
        for length in (0, 2, 3, 4, 6):
            for seed in range(200):
                rng, ref = random.Random(seed), random.Random(seed)
                assert selftest.random_member(t, rng, length) == random_member_by_elements(
                    t, ref, length), (t, length, seed)
                assert rng.random() == ref.random()
