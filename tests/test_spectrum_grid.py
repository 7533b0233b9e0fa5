"""The six pair chains decided on declared spectrum grids.

A pair chain's verdict depends only on the eigenvalues of X = A^-1/2 B A^-1/2
and its scalar parameters, so the pairs (I, diag(lam)) reach any spectrum
directly, where fuzzing reaches one only through random matrices and sits
near an equality point only by chance. Each chain's grid declares a log box
of spectral ends (m, M), its equality points, and its parameters over their
fuzz ranges. A row is a spectrum of eigenvalues spaced geometrically from m
to M and one parameter combination; its ends are any two points of the box
and of the points within 10^-j of each equality point, on either side.
Every row is decided through ``entropy.chain_stacks`` and must pass or be
not applicable: a grid kills a mutant that fails a sound chain somewhere on
it, but no grid can show a bound to be tight.
"""

import itertools
import math

import numpy as np
import pytest

from oel import chains, entropy

EIGENVALUES = 9  # per spectrum, both ends included
OFFSETS = [10.0**-j for j in (1, 2, 3, 6, 9, 12, 15)]  # of the rows around each equality point
THM_3_6_OVERFLOW = 5.26e-5  # below this m, thm-3.6's lower coefficient leaves float range


def _log_box(lo, hi, points):
    return np.geomspace(lo, hi, points).tolist()


def _param_rows(**ranges):
    """Every combination of the values of each parameter."""
    names = list(ranges)
    return [dict(zip(names, values)) for values in itertools.product(*ranges.values())]


_T_UNIT = np.geomspace(1e-3, 1.0, 4).tolist()  # zou's and thm-3.3's fuzz range (0, 1]
_S_T = np.geomspace(0.05, 3.0, 3).tolist()  # thm-3.5's fuzz range of s and t

# chain id: (the box's end points, the equality points, the parameter rows);
# a box stays below M / m = 1e12, where linalg.EIG_FLOOR refuses the pair
GRIDS = {
    "zou": (_log_box(1e-5, 1e5, 11), [1.0], _param_rows(t=_T_UNIT)),
    "thm-3.3": (_log_box(1e-5, 1e5, 11), [1.0], _param_rows(t=_T_UNIT)),
    "thm-3.5": (_log_box(1.0, 1e4, 9), [1.0], _param_rows(s=_S_T, t=_S_T)),
    "thm-3.6": (_log_box(1e-8, 1.0 / math.e, 9) + _log_box(1.0, math.e, 3), [1.0 / math.e, 1.0, math.e], [{}]),
    "thm-3.11": (_log_box(1.0, 1e3, 7), [1.0], _param_rows(t=[-1.0, -0.05, 0.05, 0.5, 1.0, 3.0])),
    "prop-3.10": (_log_box(1e-5, 1e5, 11), [1.0], _param_rows(p=[-2.0, -0.05, 0.05, 2.0])),
}


def _rows(chain_id):
    """(lam, params) of every row of the chain's grid."""
    box, equality, params = GRIDS[chain_id]
    points = sorted(set(box) | {x * (1.0 + sign * d) for x in equality for d in [0.0, *OFFSETS] for sign in (-1, 1)})
    ends = [(m, M) for m in points for M in points if m <= M]
    return [(np.geomspace(m, M, EIGENVALUES), p) for (m, M), p in itertools.product(ends, params)]


@pytest.mark.parametrize("chain_id", list(GRIDS))
def test_every_row_of_a_pair_chain_grid_passes_or_is_not_applicable(chain_id):
    assert set(GRIDS) == set(entropy.PAIR_CHAINS)
    rows = _rows(chain_id)
    columns = {"A": [np.eye(EIGENVALUES)] * len(rows), "B": [np.diag(lam) for lam, _ in rows]}
    columns.update({name: [p[name] for _, p in rows] for name in rows[0][1]})
    (outcomes,) = entropy.chain_stacks([(chain_id, columns)], chains.DEFAULT_TOL)
    status = [getattr(outcome, "status", type(outcome).__name__) for outcome in outcomes]
    bad = [(lam[[0, -1]].tolist(), p, s) for (lam, p), s in zip(rows, status) if s not in ("pass", "not-applicable")]
    assert not bad, f"{len(bad)} of {len(rows)} rows, first: {bad[:3]}"
    # each row is decided on its own spectrum (as factored, within rounding),
    # and more than a quarter of the rows pass
    m = [outcome.regime["m"] for outcome in outcomes]
    assert np.allclose(m, [lam[0] for lam, _ in rows], rtol=1e-12, atol=0.0)
    assert status.count("pass") > len(rows) // 4
    if chain_id == "thm-3.6":
        assert any(s == "pass" and lam[0] < THM_3_6_OVERFLOW for (lam, _), s in zip(rows, status))
