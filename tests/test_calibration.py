"""The sign-convention calibration must reproduce the shipped defaults."""

from speechpolarity import calibrate
from speechpolarity.hilbert_phase import VOTE_SIGN_FOR_POSITIVE
from speechpolarity.reskew import STATISTIC_SIGN_FOR_POSITIVE


def test_calibration_matches_shipped_defaults():
    result = calibrate()
    assert result.vote_sign_for_positive == VOTE_SIGN_FOR_POSITIVE
    assert result.reskew_sign_for_positive == STATISTIC_SIGN_FOR_POSITIVE


def test_calibration_is_unanimous():
    result = calibrate()
    assert result.vote_agreement == 1.0
    assert result.statistic_agreement == 1.0


def test_calibration_deterministic():
    assert calibrate() == calibrate()
