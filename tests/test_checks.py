"""Each shared identity function passes its case, then fails it once a fault
is planted in what it compares."""

from fractions import Fraction

import numpy as np
import pytest

from netcov import checks, counting, covkernel, nets, scramble
from netcov.nets import PointSet, faure_net
from netcov.walsh import WalshPolynomial, root_of_unity

X = Fraction(1, 3)
BASE = faure_net(2, 2, 2, precision=4)


def _plant(module, name, fault):
    original = getattr(module, name)
    return lambda mp: mp.setattr(module, name, lambda *a, **k: fault(original(*a, **k)))


def _plant_plan(fault):
    original = WalshPolynomial.eval_digit_matrix
    return lambda mp: mp.setattr(WalshPolynomial, "eval_digit_matrix",
                                 lambda f, digits: fault(original, f, digits))


def _omega_shifted(evaluate, f, digits):
    return evaluate(f, digits) * root_of_unity(f.b, 1)


def _first_digit_only(evaluate, f, digits):
    first = np.zeros_like(digits)
    first[:, :, 0] = digits[:, :, 0]
    return evaluate(f, first)


def _scrambled():
    return scramble.owen_scramble(BASE, 1, precision=4)


def _one_pair_more(dominated):
    k = max(dominated)
    return {**dominated, k: dominated[k] + 1}


def _last_coordinate_ignored(mp):
    # a finest check that sees only the first s - 1 coordinates
    check = nets.finest_shapes_balanced
    mp.setattr(nets, "finest_shapes_balanced", lambda ps, total: check(PointSet(
        b=ps.b, m=ps.m, s=ps.s - 1, t=ps.t, digits=ps.digits[:, :-1]), total))


def _rows_swapped(ps):
    digits = ps.digits.copy()
    digits[[0, 1]] = digits[[1, 0]]
    return PointSet(b=ps.b, m=ps.m, s=ps.s, t=ps.t, digits=digits)


@pytest.mark.parametrize("plant,call", [
    pytest.param(_plant(counting, "N_closed_form", lambda v: v + 1),
                 lambda: checks.profile_matches_closed_forms(_scrambled()),
                 id="N_closed_form"),
    pytest.param(_plant(counting, "dominated_counts", _one_pair_more),
                 lambda: checks.profile_matches_closed_forms(_scrambled()),
                 id="dominated-count"),
    pytest.param(_last_coordinate_ignored, checks.check_profile_closed_forms,
                 id="finest-check-last-coordinate"),
    pytest.param(_plant(nets, "_prefix_cell_walk", _one_pair_more),
                 checks.check_profile_closed_forms, id="walk-off-by-one"),
    pytest.param(_plant(covkernel, "Psi", lambda v: -v),
                 lambda: checks.psi_hat_routes_agree(2, 2, 2, 5), id="Psi-routes"),
    pytest.param(_plant(covkernel, "Psi", lambda v: -v),
                 checks.check_psi_hat_flat_zone, id="Psi-flat-zone"),
    pytest.param(_plant(covkernel, "delta_s", lambda v: v + 1),
                 lambda: checks.witness_difference_holds(2, 2, 2, X), id="delta_s"),
    pytest.param(_plant(covkernel, "inc_beta_derivative_form", lambda v: v + 1),
                 lambda: checks.beta_forms_agree(2, 3, X), id="derivative-form"),
    pytest.param(_plant(covkernel, "recmain_eval", lambda v: v + 1),
                 lambda: checks.assembly_matches_witness(2, 2, 2, X), id="assembly"),
    pytest.param(_plant(covkernel, "recurrence_residual", lambda v: v + 1),
                 lambda: checks.recurrence_vanishes(2, 2, 2, X), id="residual"),
    pytest.param(_plant(scramble, "owen_scramble", _rows_swapped),
                 lambda: checks.gamma_preserved(BASE, _scrambled()), id="swapped-rows"),
    pytest.param(_plant_plan(_omega_shifted), checks.check_walsh_product_rule,
                 id="plan-omega-shift"),
    pytest.param(_plant_plan(_first_digit_only), checks.check_walsh_orthogonality,
                 id="plan-first-digit"),
])
def test_planted_faults_are_caught(monkeypatch, plant, call):
    call()
    plant(monkeypatch)
    with pytest.raises(checks.CheckFailure):
        call()


def test_verify_all_reports_a_crashing_check_and_runs_the_rest(monkeypatch):
    ran = []

    def crash():
        ran.append("crash")
        return 1 / 0

    def fine():
        ran.append("fine")
        return "ok"

    monkeypatch.setattr(checks, "CHECKS", [("crash", crash), ("fine", fine)])
    report = checks.verify_all()
    assert ran == ["crash", "fine"]
    assert report["passed"] is False
    crashed, passed = report["checks"]
    assert (crashed["name"], crashed["passed"]) == ("crash", False)
    assert crashed["detail"] == "ZeroDivisionError: division by zero"
    assert (passed["name"], passed["passed"], passed["detail"]) == ("fine", True, "ok")
