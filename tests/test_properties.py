"""Property tests: the feasibility boundary at p_max, key-order-free config
hashing, and the trace CSV round trip."""
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdakit.diagnostics import TraceRecord
from gdakit.harness.config import config_hash
from gdakit.harness.io import read_trace_csv, write_trace_csv
from gdakit.problems import ProblemConstants
from gdakit.schedules import p_max, step_constraints

_constants = st.builds(
    lambda mu, ratio: ProblemConstants(l1=mu * ratio, mu=mu, sigma=0.0),
    st.floats(1e-3, 1e3),
    st.floats(1.0, 1e3),
)


@settings(max_examples=300, deadline=None)
@given(c=_constants, u=st.floats(0.0, 1.0, exclude_max=True))
@example(c=ProblemConstants(l1=2.276181507071582, mu=0.3530585630408593, sigma=0.0), u=0.5)
def test_feasible_exactly_when_p_at_most_p_max(c, u):
    pm = p_max(c)
    sc = step_constraints(c, pm)
    assert sc.feasible
    assert sc.check(sc.alpha_max, sc.eta_hi) == []
    assert not step_constraints(c, math.nextafter(pm, 1.0)).feasible
    # any p in (0, 1): one below p_max and one above
    for p in (u * pm, pm + u * (1.0 - pm)):
        if 0.0 < p < 1.0:
            assert step_constraints(c, p).feasible == (p <= pm)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=10,
)


def _reorder(obj):
    """The same JSON value with every object's keys in reverse order."""
    if isinstance(obj, dict):
        return {k: _reorder(obj[k]) for k in reversed(list(obj))}
    if isinstance(obj, list):
        return [_reorder(v) for v in obj]
    return obj


@settings(max_examples=100, deadline=None)
@given(cfg=st.dictionaries(st.text(max_size=8), _json, max_size=6))
def test_config_hash_ignores_key_order(cfg):
    assert config_hash(_reorder(cfg)) == config_hash(cfg)


_float = st.floats(allow_nan=False)
_opt = st.none() | _float
_record = st.builds(
    TraceRecord,
    k=st.integers(0, 10**9),
    branch=st.sampled_from(["x", "y", "both"]),
    alpha=_float,
    eta=_float,
    p=_float,
    grad_x_norm=_opt,
    grad_y_norm=_opt,
    h=_opt,
    v=_opt,
    dist=_opt,
    loss=_opt,
)


@settings(max_examples=100, deadline=None)
@given(records=st.lists(_record, max_size=8), chash=st.none() | st.text("0123456789abcdef", min_size=64, max_size=64))
def test_trace_csv_round_trips(records, chash):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(path, records, config_hash=chash)
        assert read_trace_csv(path) == (records, chash)
