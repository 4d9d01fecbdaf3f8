"""Tests for the lattice geometry primitives and the per-cell segment oracle."""

import math
import random

import pytest

from gridroute.geometry import euclid_distance

from oracles import segment_crosses_open_cell


def test_euclid_345():
    assert euclid_distance((0, 0), (3, 4)) == 5.0


def test_euclid_identity():
    assert euclid_distance((2, 7), (2, 7)) == 0.0


def test_euclid_long_diagonal():
    assert euclid_distance((0, 0), (9, 9)) == pytest.approx(math.sqrt(162))
    assert round(euclid_distance((0, 0), (9, 9)), 4) == 12.7279


def test_segment_crosses_open_cell_diagonal():
    assert segment_crosses_open_cell(((0, 0), (3, 3)), (1, 1))


def test_segment_crosses_open_cell_boundary_graze():
    assert not segment_crosses_open_cell(((0, 2), (3, 2)), (1, 1))


def test_segment_crosses_open_cell_corner_touch():
    assert not segment_crosses_open_cell(((0, 0), (2, 2)), (1, 0))


def test_segment_on_cell_boundary_never_crosses():
    # any segment running along lattice lines of the cell stays outside
    cell = (3, 4)
    for seg in (((3, 4), (4, 4)), ((3, 5), (4, 5)), ((3, 4), (3, 5)),
                ((4, 4), (4, 5)), ((3, 0), (3, 9)), ((0, 5), (9, 5))):
        assert not segment_crosses_open_cell(seg, cell)


def test_segment_crosses_open_cell_random_vs_fraction_clip():
    # independent re-derivation with exact fractions
    from fractions import Fraction
    rng = random.Random(7)

    def reference(seg, cell):
        (x1, y1), (x2, y2) = seg
        dx, dy = x2 - x1, y2 - y1
        if dx == 0 or dy == 0:
            return False
        col, row = cell
        lo, hi = Fraction(0), Fraction(1)
        for d, start, low in ((dx, x1, col), (dy, y1, row)):
            a = Fraction(low - start, d)
            b = Fraction(low + 1 - start, d)
            if a > b:
                a, b = b, a
            lo, hi = max(lo, a), min(hi, b)
        return lo < hi

    for _ in range(3000):
        seg = ((rng.randint(0, 8), rng.randint(0, 8)),
               (rng.randint(0, 8), rng.randint(0, 8)))
        if seg[0] == seg[1]:
            continue
        cell = (rng.randint(0, 7), rng.randint(0, 7))
        assert segment_crosses_open_cell(seg, cell) == reference(seg, cell)
