import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialsdr.basis import BasisSpec, build_f, polynomial_features
from spatialsdr.exceptions import ConstantResponseError, InputError, RankDeficientBasisError


class TestBuildPolynomial:
    def test_degree_one_centering(self):
        f = build_f(np.array([1.0, 2.0, 3.0]), BasisSpec("polynomial", 1))
        centered = np.array([-1.0, 0.0, 1.0])
        np.testing.assert_allclose(f[:, 0], centered / centered.std())

    def test_degree_two_centering(self):
        f = build_f(np.array([1.0, 2.0, 3.0, 4.0]), BasisSpec("polynomial", 2))
        centered = np.array([-6.5, -3.5, 1.5, 8.5])
        np.testing.assert_allclose(f[:, 1], centered / centered.std())

    def test_constant_response(self):
        with pytest.raises(ConstantResponseError):
            build_f(np.ones(5), BasisSpec("polynomial", 1))

    def test_rank_deficient(self):
        # y and y**2 centered are collinear for a two-valued response
        with pytest.raises(RankDeficientBasisError):
            build_f(np.array([1.0, 1.0, 2.0, 2.0]), BasisSpec("polynomial", 2))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_columns_centered(self, seed):
        y = np.random.default_rng(seed).standard_normal(20)
        f = build_f(y, BasisSpec("polynomial", 3))
        np.testing.assert_allclose(f.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(f.std(axis=0), 1.0, atol=1e-10)


@pytest.mark.parametrize("kind, degree", [("slice", 2), ("polynomial", 0)])
def test_spec_rejects_other_kinds_and_degrees(kind, degree):
    with pytest.raises(InputError):
        BasisSpec(kind, degree)


def test_polynomial_features_raw():
    np.testing.assert_allclose(
        polynomial_features(np.array([2.0, 3.0]), 3),
        [[2, 4, 8], [3, 9, 27]],
    )
