import numpy as np
import pytest

from thermal_casimir.quadrature import kronrod_rule, panel_rule

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
        gl_nodes, gl_weights = panel_rule(EDGES, 7)
        np.testing.assert_allclose(nodes[embedded], gl_nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(gauss[embedded], gl_weights, rtol=1e-14, atol=0.0)
        assert np.all(kronrod > 0.0)

    def test_arrays_are_read_only_and_cached(self):
        arrays = kronrod_rule(EDGES)
        assert kronrod_rule(list(EDGES)) is arrays
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    @pytest.mark.parametrize("edges", [(1.0,), (0.0, 1.0, 1.0), (2.0, 1.0)])
    def test_edges_must_increase(self, edges):
        with pytest.raises(ValueError):
            kronrod_rule(edges)
