import numpy as np
import pytest

from thermal_casimir.quadrature import kronrod_rule, kronrod_sum

EDGES = (0.0, 0.25, 1.0, 3.0, 7.5)


def _monomial_errors(nodes, weights, a, b, degree):
    """Quadrature minus exact integral of ((x - m) / h)^degree over [a, b]."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    exact = 2.0 * half / (degree + 1) if degree % 2 == 0 else 0.0
    return ((nodes - mid) / half) ** degree @ weights - exact


class TestKronrodRule:
    @pytest.mark.parametrize("a, b", list(zip(EDGES, EDGES[1:])))
    def test_degrees_of_exactness_on_each_panel(self, a, b):
        nodes, kronrod, gauss = kronrod_rule((a, b))
        for degree in range(23):
            assert abs(_monomial_errors(nodes, kronrod, a, b, degree)) <= 1e-14 * (b - a)
        for degree in range(14):
            assert abs(_monomial_errors(nodes, gauss, a, b, degree)) <= 1e-14 * (b - a)
        # and no more: the pair is G7-K15, not a higher-order rule
        assert abs(_monomial_errors(nodes, kronrod, a, b, 24)) > 1e-10 * (b - a)
        assert abs(_monomial_errors(nodes, gauss, a, b, 14)) > 1e-5 * (b - a)

    def test_composite_rule_is_the_union_of_its_panels(self):
        nodes, kronrod, gauss = kronrod_rule(EDGES)
        assert nodes.size == kronrod.size == gauss.size == 15 * (len(EDGES) - 1)
        for index, panel in enumerate(zip(EDGES, EDGES[1:])):
            part = slice(15 * index, 15 * (index + 1))
            for whole, single in zip((nodes, kronrod, gauss), kronrod_rule(panel)):
                np.testing.assert_array_equal(whole[part], single)
        assert np.all(np.diff(nodes) > 0.0)

    def test_gauss_nodes_are_a_subset_of_the_kronrod_nodes(self):
        nodes, kronrod, gauss = kronrod_rule(EDGES)
        embedded = gauss != 0.0
        assert embedded.sum() == 7 * (len(EDGES) - 1)
        base_x, base_w = np.polynomial.legendre.leggauss(7)
        half = 0.5 * np.diff(EDGES)[:, None]
        mid = 0.5 * (np.array(EDGES[:-1]) + EDGES[1:])[:, None]
        gl_nodes, gl_weights = (mid + half * base_x).ravel(), (half * base_w).ravel()
        np.testing.assert_allclose(nodes[embedded], gl_nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(gauss[embedded], gl_weights, rtol=1e-14, atol=0.0)
        assert np.all(kronrod > 0.0)

    def test_arrays_are_read_only(self):
        for array in kronrod_rule(EDGES):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    @pytest.mark.parametrize("edges", [(1.0,), (0.0, 1.0, 1.0), (2.0, 1.0),
                                       (0.0, np.nan, 1.0), (0.0, 1.0, np.inf)])
    def test_edges_must_increase(self, edges):
        with pytest.raises(ValueError):
            kronrod_rule(edges)


class TestKronrodSum:
    def test_estimate_is_the_kronrod_gauss_gap_on_coarse_panels(self):
        nodes, kronrod, gauss = kronrod_rule((0.0, 40.0))
        values = np.exp(-nodes) * np.cos(3.0 * nodes)
        result, error = kronrod_sum(values, kronrod, gauss)
        assert error == abs(result - values @ gauss)
        # the estimate covers the actual error of the Kronrod sum
        assert abs(result - 0.1) <= error

    def test_rounding_floor_when_the_sums_agree(self):
        nodes, kronrod, gauss = kronrod_rule(np.linspace(0.0, 1.0, 9))
        values = np.stack((1.0 + nodes, -(1.0 + nodes)))
        result, error = kronrod_sum(values, kronrod, gauss)
        np.testing.assert_allclose(result, [1.5, -1.5], rtol=1e-15)
        # a polynomial of degree 1 is exact in both sums; the estimate stays at
        # 50 eps times the integral of |f|, never at zero
        np.testing.assert_allclose(error, 50.0 * np.finfo(float).eps * 1.5, rtol=1e-12)
