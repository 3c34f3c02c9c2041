"""The families suite evaluates each throat-loop node once, to the bit.

``_ThroatLoop`` keeps the nodes of the section loop across node counts:
node k of n nodes is node 2k of 2n bit for bit, so a level that reuses the
nodes of coarser levels must give exactly what :func:`lift_theta_along`
gives on the whole path, the lifted angle or the first error along it.  The
report bodies and periods below were recorded before the loop kept its
nodes (numpy 2.4 on x86-64); another platform's elementary functions may
differ from them in the last digit.
"""

import hashlib
import importlib
import math
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densitylab import cli, minimal_graphs as mg
from densitylab.errors import (DensityLabError, LiftAmbiguity, ParamViolation,
                               QuadratureFailure, Singularity)

# (mode, params, grid) of a families document -> sha256 of its report body:
# six pairs inside the strip, one per cell of a - c, a + c, then two where
# the lift fails (vanishing fields; points off the surface at 1e12), and
# two outside the strip
BODIES = [
    (("period", {"pairs": [[0.35, 0.95]]}, {}),
     "b48ff1419c0be9769dcb5a5ed58f8ca8e258ce3625958e755e945034940f836d"),
    (("winding", {"pairs": [[0.35, 0.95]]}, {}),
     "44551a34932bc0d5d9f28bd666e22e9c44c24ec1402d54378cb278f7d3b94c48"),
    (("period", {"pairs": [[0.9, 1.1]]}, {}),
     "897ec67a1d3d2605ae13c56dfbba315e4d0be479ea74313b9a1e24a84d57d2ab"),
    (("winding", {"pairs": [[0.9, 1.1]]}, {}),
     "2bf17cd26cba7e25d272442d3b1fc4cf8829885c4e7ea335b9d1d8510b18c50e"),
    (("period", {"pairs": [[1.4, 1.1]]}, {}),
     "144f46d69f0c35b9a3bd254f324e6af330919fa6dc6bc4aa64422d5cbed7a3fd"),
    (("winding", {"pairs": [[1.4, 1.1]]}, {}),
     "1a337a1d1eb2e063a9e45d9df65afab3e43f30effb1d1e7bed7e4ac26f64dcfc"),
    (("period", {"pairs": [[1.1, 0.4]]}, {}),
     "abe97fd22b9c0b1ac3e030dbe2ce27e179a6574c5145b2186982b0cf4d5e9c8e"),
    (("winding", {"pairs": [[1.1, 0.4]]}, {}),
     "dd6402b6163807c104d642a3c8d6ae6525e13f662302130553ac2300043336c9"),
    (("period", {"pairs": [[0.9, 1.7]]}, {}),
     "bbfca59f0621f678368dedbf2afb88531da91474565a4cd368940942b70acc7a"),
    (("winding", {"pairs": [[0.9, 1.7]]}, {}),
     "832ef848701a0cd57f6617605e11804b0e28ab3ec6685098b87c5ffc8cc55d2f"),
    (("period", {"pairs": [[1.3, 0.8]]}, {}),
     "67a2fef379c9629e7ed2c382b8891dcf0a089fd744d1ceede2f7feba25157d0f"),
    (("winding", {"pairs": [[1.3, 0.8]]}, {}),
     "fc60351fe4de54c91b102c5935d0195a77881988f5bf22c25be7cf97046d634f"),
    (("period", {"pairs": [[0.5, 0.5000001]]}, {}),
     "83a33b73041670fda170af8851f6b05f5db2ba884616cab291d5725e17070c1a"),
    (("winding", {"pairs": [[0.5, 0.5000001]]}, {}),
     "315271e19a300d3b03d32733fda208e2efeaa93cb34dd0de4b1abd18c832b325"),
    (("period", {"pairs": [[1000000000000.0, 1000000000000.0]]}, {}),
     "4a379460a9fd9ab0abb325be37f89c2fdddb143798044522456395245ef58c29"),
    (("winding", {"pairs": [[1000000000000.0, 1000000000000.0]]}, {}),
     "4117e053d315563090f45cc2c3f66a5fd854a8818692ca4018eb8863b042ce89"),
    (("period", {"pairs": [[0.3, 0.4]]}, {}),
     "4c701eb7ec0d8b55265c9df89d75356f82ab5ead7fb03b91c94a5ff5cf4e475a"),
    (("winding", {"pairs": [[0.3, 0.4]]}, {}),
     "35549133f20581724359c6b8a3fcd956a027bb50299d6d289f6ddea0d42f3215"),
    (("period", {"pairs": [[1.5, 0.2]]}, {}),
     "54d1fb470dd954d3b465d146332823ac957e03d4c6fe215db7382972c068f255"),
    (("winding", {"pairs": [[1.5, 0.2]]}, {}),
     "fa76fd230fa4f0a42ef928c96765329a4dc500832470808a0c2c3d08d85126e5"),
    (("verify", {"a": 0.35, "c": 0.95}, {}),
     "3342540ff82fb2617390f280b65973fd98d2652ac413f0807f1a43462c63cf98"),
    (("verify", {"a": 0.9, "c": 1.1}, {}),
     "c2856dd0982cb7fdfba19b34588dd696b18845ed3e5de0cc13d34a7cbc51c18c"),
    (("verify", {"a": 1.4, "c": 1.1}, {}),
     "974010ef7ba1c9672ee431ddd10c25344abf4b9b4524689c3c0ae92b82a45caf"),
    (("verify", {"a": 1.1, "c": 0.4}, {}),
     "da5f9ff74a8081c87d163a0dd7bc83c03e67e30856645177eecfcd38af6737fd"),
    (("verify", {"a": 0.9, "c": 1.7}, {}),
     "27ca94376b4678dec2489f10120faf1a35a183d1a6344e01ec67da8ce6f33d2d"),
    (("verify", {"a": 1.3, "c": 0.8}, {}),
     "7f27ead506d9a4cec7f4f6454486a5224b592eb74482db97b466c369efea5852"),
    (("verify", {}, {"x_min": 0.1, "nx": 7, "ny": 9}),
     "bf5e6a4d480077892013f6c761907b14fa5553f1f2d6924a48bc1293dfc86407"),
]

# (a, c) -> period_sigma at the default, samples=1024, seed_sign=-1 and
# samples=3 calls, as float.hex
PERIODS = {
    (1.0, 1.0): ('0x1.8b2f0c17f309cp+3', '0x1.8b2f0c17f309cp+3', '-0x1.8b2f0c17f309bp+3', '0x1.8b2f0c17f309dp+3'),
    (0.8, 0.5): ('0x1.d65d17349df93p+3', '0x1.d65d17349df96p+3', '-0x1.d65d17349df94p+3', '0x1.d65d17349df93p+3'),
    (0.35, 0.95): ('0x1.96812449511d3p+3', '0x1.96812449511d5p+3', '-0x1.96812449511d2p+3', '0x1.964b6a18b2eb9p+3'),
    (1.3, 0.8): ('0x1.9976e2df79b8bp+3', '0x1.9976e2df79b8bp+3', '-0x1.9976e2df79b89p+3', '0x1.9976e2df79b8bp+3'),
}


@pytest.mark.parametrize("doc,digest", BODIES)
def test_report_bodies_match_the_recorded_digests(doc, digest):
    mode, params, grid = doc
    sc = cli.Scenario.from_config({"suite": "families", "mode": mode,
                                   "params": params, "grid": grid})
    body = cli.report_body(cli.run(sc))
    assert hashlib.sha256(body.encode()).hexdigest() == digest


@pytest.mark.parametrize("pair", list(PERIODS))
def test_period_sigma_matches_the_recorded_values(pair):
    a, c = pair
    got = (mg.period_sigma(a, c), mg.period_sigma(a, c, samples=1024),
           mg.period_sigma(a, c, seed_sign=-1), mg.period_sigma(a, c, samples=3))
    assert tuple(v.hex() for v in got) == PERIODS[pair]


def _count_passes(monkeypatch):
    """Wrap _doubled_angle; the returned list holds the node count of each
    call, one numpy pass over the nodes."""
    passes = []
    inner = mg._doubled_angle

    def counted(a, c, pts):
        passes.append(np.broadcast(pts.x, pts.y, pts.z).size)
        return inner(a, c, pts)

    monkeypatch.setattr(mg, "_doubled_angle", counted)
    return passes


def test_a_period_document_evaluates_each_node_once(monkeypatch):
    # the three periods converge at 128, 2048 and 128 nodes at (1, 1): the
    # finest level, 2048, comes first as one pass of 2049 nodes, and the
    # coarser levels are strides through it
    passes = _count_passes(monkeypatch)
    for pair in ([1.0, 1.0], [0.8, 0.5], [0.35, 0.95]):
        sc = cli.Scenario.from_config({"suite": "families", "mode": "period",
                                       "params": {"pairs": [pair]}})
        assert cli.run(sc)["overall"] == "pass"
        assert passes == [2049]
        passes.clear()
    # the default compares T_64 with T_128: one pass of 129 nodes
    mg.period_sigma(1.0, 1.0)
    assert passes == [129]


# ----------------------------------------------------------------------
# finest level first against the coarse-first order
# ----------------------------------------------------------------------

# the three periods a families period document asks of a pair's loop
REQUESTS = ((1, 64), (1, 1024), (-1, 64))


def _coarse_first_period(loop, seed_sign, tol, samples):
    """_ThroatLoop.period as it ran with the levels evaluated coarsest
    first: level n when the rule reaches it, lifted anew on every call."""
    offset = 0.0 if seed_sign == 1 else math.pi
    n, prev = samples, None
    while n <= mg.MAX_PERIOD_NODES:
        level = loop.level(n)
        try:
            lifted2 = level.lifted2()
        except LiftAmbiguity:
            n, prev = 2 * n, None
            continue
        theta = 0.5 * lifted2 + offset
        residue = 2.0 * (theta[-1] - theta[0])
        if abs(residue) > 1e-9:
            raise LiftAmbiguity(
                f"angle lift failed to close around the section loop "
                f"(winding residue {residue:.3g})")
        total = float(np.sum(np.sin(theta[:n]) / level.den[:n]))
        value = 2.0 * math.sqrt(2.0) * 2.0 * math.pi * total / n
        if prev is not None and abs(value - prev) < tol:
            return value
        n, prev = 2 * n, value
    raise QuadratureFailure(
        f"throat period not within {tol:g} at {mg.MAX_PERIOD_NODES} nodes")


def _periods_or_error(periods):
    """The periods periods() returns, or the class and message of the
    first error it raises."""
    try:
        return periods()
    except DensityLabError as exc:
        return type(exc), str(exc)


def _workload_pairs(monkeypatch, seed):
    """The pairs of the benchmark's families_sweep period documents."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    return [tuple(doc["params"]["pairs"][0])
            for doc in workloads.generate("families_sweep", seed)
            if doc["mode"] == "period"]


def _edge_pairs(count, seed=33):
    """Pairs within 1e-8 to 1e-1 of a + c = 1, a - c = 1 and c - a = 1, on
    either side, in turn."""
    rng = random.Random(seed)
    pairs = []
    for i in range(count):
        e = 10 ** rng.uniform(-8, -1) * rng.choice([-1, 1])
        t = rng.uniform(0.05, 1.9) / 2.0
        pairs.append([(t, 1.0 - t + e), (1.0 + t + e, t), (t, 1.0 + t + e)][i % 3])
    return pairs


def test_periods_match_the_coarse_first_order(monkeypatch):
    pairs = (_workload_pairs(monkeypatch, 2718) + _workload_pairs(monkeypatch, 31)
             + _edge_pairs(60))
    tol = mg.TOL_QUAD
    seen = set()
    for a, c in pairs:
        got = _periods_or_error(lambda: mg._ThroatLoop(a, c).periods(tol, *REQUESTS))

        def coarse_first():
            loop = mg._ThroatLoop(a, c)
            return [_coarse_first_period(loop, sign, tol, n) for sign, n in REQUESTS]
        want = _periods_or_error(coarse_first)
        assert got == want, (a, c)
        seen.add(got[0] if isinstance(got, tuple) else float)
    # the pairs reach the periods and each way a period can fail here
    assert seen == {float, ParamViolation, Singularity, QuadratureFailure}


def test_period_sigma_checks_its_arguments_before_the_pair():
    with pytest.raises(ParamViolation, match=r"^seed_sign must be \+1 or -1$"):
        mg.period_sigma(1.5, 0.2, seed_sign=0)
    with pytest.raises(ParamViolation, match=r"^samples must be positive, got 0$"):
        mg.period_sigma(1.5, 0.2, samples=0)
    # levels are indexed by the node count
    with pytest.raises(ParamViolation, match=r"^samples must be an integer, got 64\.0$"):
        mg.period_sigma(1.0, 1.0, samples=64.0)


# ----------------------------------------------------------------------
# nested levels against the whole path
# ----------------------------------------------------------------------

class _Faulty(mg._ThroatLoop):
    """A throat loop with faults at chosen chart values: the point moved
    off the surface ("off"), or the fields A and B set to 0 ("vanish")."""

    def __init__(self, a, c, faults):
        super().__init__(a, c)
        self.off = [rho for rho, kind in faults if kind == "off"]
        vanish = np.array([rho for rho, kind in faults if kind == "vanish"])
        self.vanish_y = super().chart(vanish)[0].y

    def chart(self, rho):
        pts, cos_rho = super().chart(rho)
        z = np.where(np.isin(rho, self.off), pts.z + 1.0, pts.z)
        return mg.SurfacePoint(pts.x, pts.y, z), cos_rho

    def fields(self, inner):
        """_abeq_fields with A = B = 0 at the "vanish" points."""

        def patched(a, c, q, x, y, ch, co):
            A, B, E, Q = inner(a, c, q, x, y, ch, co)
            hit = np.isin(y, self.vanish_y)
            return np.where(hit, 0.0, A), np.where(hit, 0.0, B), E, Q
        return patched


def _outcome(call):
    """The bytes of the array call() returns, or the class and message of
    the error it raises."""
    try:
        return call().tobytes()
    except DensityLabError as exc:
        return type(exc), str(exc)


def _levels_match_the_whole_path(loop, a, c, counts):
    """Lift each level of loop in turn, nested, and as the whole path with
    lift_theta_along; both give the same outcome.  Returns the last one."""
    with mock.patch.object(mg, "_abeq_fields", loop.fields(mg._abeq_fields)):
        for n in counts:
            path = loop.chart(mg._loop_rho(np.arange(n + 1), n))[0]
            want = _outcome(lambda: mg.lift_theta_along(path, a, c).theta)
            assert _outcome(lambda: 0.5 * loop.level(n).lifted2()) == want
    return want


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([(1.0, 1.0), (0.8, 0.5), (0.35, 0.95)]),
       st.sampled_from([1, 3, 5]), st.lists(st.integers(0, 6), min_size=1, max_size=5),
       st.lists(st.tuples(st.integers(0, 320), st.sampled_from(["off", "vanish"])),
                max_size=3))
def test_nested_levels_lift_as_the_whole_path(pair, base, exps, faults):
    # levels base * 2^e, e <= 6, in any order; each fault sits at a node of
    # the finest of them, so it belongs to every level that holds that node
    a, c = pair
    finest = 64 * base
    loop = _Faulty(a, c, [(mg._loop_rho(k % (finest + 1), finest), kind)
                          for k, kind in faults])
    _levels_match_the_whole_path(loop, a, c, [base * 2 ** e for e in exps])


@pytest.mark.parametrize("kind", ["off", "vanish"])
@pytest.mark.parametrize("later", [False, True])
def test_an_odd_node_fails_as_on_the_whole_path(kind, later):
    # node 5 of 16 fails, and, if later, also node 12 of 16 (node 6 of 8):
    # level 8 meets node 6 first, level 16 meets node 5 first
    faults = [(mg._loop_rho(5, 16), kind)]
    if later:
        faults.append((mg._loop_rho(12, 16), kind))
    _, message = _levels_match_the_whole_path(_Faulty(1.0, 1.0, faults), 1.0, 1.0,
                                              (8, 16))
    assert message.startswith("SurfacePoint(x=0.0, y=" if kind == "off"
                              else "A^2 + B^2 vanished")


def test_level_weights_are_those_of_the_whole_path():
    a, c = 0.8, 0.5
    loop = mg._ThroatLoop(a, c, 0.3)
    for n in (16, 64, 8, 128):
        rho = mg._loop_rho(np.arange(n + 1), n)
        ap = a * math.cosh(0.3)
        want = np.sqrt(c + 1.0 - ap + (ap + c - 1.0) * np.cos(rho) ** 2)
        assert loop.level(n).den.tobytes() == want.tobytes()
