"""The two routes of a pass's integrand (``potentials._plan_integrand``).

A pass whose per-node bilinear form is small (``_TABLE_ROUTE_MAX``) takes
the table route: the side tables and the propagator's table are folded
into per-column tables once per pass, and per node batch only the
frequency weights and the propagator's coefficients move.  A larger pass
takes the product route, which forms the responses, blocks and half
products per node batch.  Here the two routes are checked against each
other on every plan constant, the route each kind of pair takes, the
quarter duality turn, which the table route keeps exact, and the naming
of non-finite values.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from chivdw import potentials
from chivdw.green import FreeSpaceProvider, Separation, from_blocks
from chivdw.molfiles import bundled_pair
from chivdw.potentials import ROW_NAMES, ComponentLabel, compute_curve, u_named
from chivdw.quad import NonFiniteIntegrandError
from chivdw.response import Molecule

DIRECTION = np.array([1.0, 2.0, 2.0]) / 3.0
XIS = np.geomspace(1e-3, 1e2, 20)
PROVIDERS = {"free": FreeSpaceProvider(),
             "medium": oracles.SyntheticMedium(),
             "reciprocal": oracles.SyntheticMedium(reciprocal=True)}


def _molecule(name, seed, count):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, 3))
    return Molecule.from_arrays(name, rng.uniform(0.5, 2.5, count),
                                rng.normal(size=(count, 3)),
                                rng.normal(size=(count, 3)), -0.03 * (m @ m.T))


# two transitions a side: TOTAL's form is 625 entries, the largest that
# takes the table route
PAIR = (_molecule("routes-a", 31, 2), _molecule("routes-b", 32, 2))


def _plan_cases():
    """(id, plan, duality) for the twelve components, at duality pi/5 too
    where it is defined, and the ten rows."""
    cases = []
    for label in ComponentLabel:
        for duality in (None, math.pi / 5):
            if duality is None or label not in (ComponentLabel.PC,
                                                ComponentLabel.DC):
                cases.append((f"{label.value}-{duality}",
                              potentials._LABEL_PLANS[label], duality))
    cases += [(f"row-{row}", potentials._ROW_PLANS[row], None)
              for row in ROW_NAMES]
    return cases


def _seps(count):
    return [Separation(R * DIRECTION, np.zeros(3))
            for R in np.geomspace(0.3, 10.0, count)]


def _routes(monkeypatch):
    """The names of the route functions each pass takes, in order."""
    taken = []
    for name in ("_table_columns", "_product_columns"):
        def spied(*args, _name=name, _f=getattr(potentials, name)):
            taken.append(_name)
            return _f(*args)
        monkeypatch.setattr(potentials, name, spied)
    return taken


@pytest.mark.parametrize("count", [1, 8])
@pytest.mark.parametrize("provider", list(PROVIDERS))
@pytest.mark.parametrize("name,plan,duality", _plan_cases(),
                         ids=[case[0] for case in _plan_cases()])
def test_table_route_matches_product_route(name, plan, duality, provider,
                                           count, monkeypatch):
    seps = _seps(count)
    columns = {}
    for route, limit in (("table", math.inf), ("product", 0)):
        monkeypatch.setattr(potentials, "_TABLE_ROUTE_MAX", limit)
        columns[route] = potentials._plan_integrand(
            *PAIR, seps, plan, PROVIDERS[provider], duality)(XIS)
    assert columns["table"].shape == (len(XIS), count)
    scale = np.abs(columns["product"]).max(axis=0)
    assert np.all(np.abs(columns["table"] - columns["product"])
                  <= 1e-13 * scale), name


@pytest.mark.parametrize("pair,label,route", [
    (bundled_pair(), "TOTAL", "_table_columns"),
    (PAIR, "TOTAL", "_table_columns"),
    (PAIR, "EC", "_table_columns"),
    ((_molecule("wide-a", 41, 16), _molecule("wide-b", 42, 16)), "TOTAL",
     "_product_columns"),
    ((_molecule("wide-a", 41, 16), _molecule("wide-b", 42, 16)), "EE",
     "_product_columns"),
], ids=["bundled-TOTAL", "T2-TOTAL", "T2-EC", "T16-TOTAL", "T16-EE"])
def test_route_of_a_pair(pair, label, route, monkeypatch):
    taken = _routes(monkeypatch)
    assert u_named(*pair, _seps(1)[0], label).converged
    assert taken == [route]


def test_block_only_propagator_takes_the_product_route(monkeypatch):
    # the K = 72 identity adapter: the blocks are the coefficients
    base = FreeSpaceProvider()

    class BlocksOnly:
        def bind(self, r_a, r_b):
            table, coefficients = base.bind(r_a, r_b)

            def blocks(xis):
                flat = coefficients(xis) @ table
                shape = flat.shape[:-1] + (2, 2, 3, 3)
                return (flat[..., :36].reshape(shape),
                        flat[..., 36:].reshape(shape))

            return from_blocks(blocks, len(r_a))

    sep = _seps(1)[0]
    taken = _routes(monkeypatch)
    adapted = u_named(*bundled_pair(), sep, "TOTAL", provider=BlocksOnly())
    assert taken == ["_product_columns"]
    plain = u_named(*bundled_pair(), sep, "TOTAL")
    assert adapted.converged
    assert adapted.value == pytest.approx(plain.value, rel=1e-13)


@pytest.mark.parametrize("R", [0.3, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0])
def test_quarter_turn_is_exact(R, monkeypatch):
    # the quarter turn maps the side tables onto each other exactly, and
    # the table route contracts equal values in the same order
    a, b = bundled_pair()
    sep = Separation(R * DIRECTION, np.zeros(3))
    taken = _routes(monkeypatch)
    for turned, plain in (("EE", "MM"), ("EC", "MC"), ("CE", "CM")):
        rotated = u_named(a, b, sep, turned, duality=math.pi / 2)
        assert rotated.value == u_named(a, b, sep, plain).value, turned
    assert set(taken) == {"_table_columns"}


class _ScaledAt:
    """Free space with the coefficients of separation ``p`` of every pass
    multiplied by ``factor``."""

    def __init__(self, p, factor):
        self._base, self._p, self._factor = FreeSpaceProvider(), p, factor

    def bind(self, r_a, r_b):
        table, coefficients = self._base.bind(r_a, r_b)

        def scaled(xis):
            coeffs = coefficients(xis).copy()
            with np.errstate(invalid="ignore"):
                coeffs[self._p] *= self._factor
            return coeffs

        return table, scaled


def test_an_infinite_coefficient_is_named_at_its_own_separation(
        monkeypatch):
    # the middle separation's coefficients hold infinities; the first
    # separation's columns are finite
    taken = _routes(monkeypatch)
    with pytest.raises(NonFiniteIntegrandError) as info:
        compute_curve(*bundled_pair(), (0.0, 0.0, 1.0), [2.0, 2.5, 3.0],
                      "TOTAL", provider=_ScaledAt(1, np.inf))
    assert str(info.value) == "the potential overflows float range at R = 2.5"
    assert taken == ["_table_columns"]


def test_a_nan_table_is_the_providers_fault():
    base = FreeSpaceProvider()

    class NaNTable:
        def bind(self, r_a, r_b):
            table, coefficients = base.bind(r_a, r_b)
            table = table.copy()
            table[:, 2, 0] = np.nan
            return table, coefficients

    with pytest.raises(NonFiniteIntegrandError) as info:
        u_named(*bundled_pair(), _seps(1)[0], "TOTAL", provider=NaNTable())
    assert str(info.value).startswith(
        "integrand returned a non-finite value at x=")
