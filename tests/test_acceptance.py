"""Full verification battery, one test per criterion.

Each test prints the criterion's verdict line (visible with -s, and in the
failure report otherwise), so the suite output doubles as the pass/fail
summary.  Heavy ensembles are cached inside the verification module, so the
criteria sharing them (5/6 and 7/8) pay for the run once.
"""

import pytest

from gravlab import verification

pytestmark = pytest.mark.acceptance

WORKERS = 4


def _run(criterion):
    result = criterion(workers=WORKERS)
    print(result.line)
    for detail in result.details:
        print("   ", detail)
    assert result.passed, "\n".join((result.line, *result.details))


def test_criterion_01_static_energetics():
    _run(verification.criterion_01)


def test_criterion_02_quadratic_potential_accuracy():
    _run(verification.criterion_02)


def test_criterion_03_projected_field_covariance():
    _run(verification.criterion_03)


def test_criterion_04_free_soliton_stationarity():
    _run(verification.criterion_04)


def test_criterion_05_kinetic_heating_rate():
    _run(verification.criterion_05)


def test_criterion_06_momentum_diffusion_and_covariance():
    _run(verification.criterion_06)


def test_criterion_07_momentum_drift_cancellation():
    _run(verification.criterion_07)


def test_criterion_08_position_diffusion_linearity():
    _run(verification.criterion_08)


def test_criterion_09_soliton_widths_and_relaxation():
    _run(verification.criterion_09)


def test_criterion_10_solver_cross_check():
    _run(verification.criterion_10)


def test_criterion_11_coherence_decay_rates():
    _run(verification.criterion_11)


def test_criterion_12_collapse_statistics():
    _run(verification.criterion_12)


def test_criterion_13_mean_field_attraction():
    _run(verification.criterion_13)


def test_criterion_14_output_determinism():
    _run(verification.criterion_14)
