"""Property tests: the feasibility boundary at p_max, key-order-free config
hashing, and the trace CSV round trip and bytes."""
import csv
import io
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdakit.diagnostics import TRACE_FIELDS, TraceColumns
from gdakit.harness.config import config_hash
from gdakit.harness.io import TRACE_COLUMNS, read_trace_csv, write_trace_csv
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


def _row(step, metric):
    """A trace row in TRACE_FIELDS order: k, branch, the three plan values
    drawn from step and the six metrics from metric."""
    return st.tuples(
        st.integers(0, 10**9),
        st.sampled_from(["x", "y", "both"]),
        *[step] * 3,
        *[metric] * (len(TRACE_FIELDS) - 5),
    )


def _columns(rows) -> TraceColumns:
    return TraceColumns([[row[j] for row in rows] for j in range(len(TRACE_FIELDS))])


_float = st.floats(allow_nan=False)
_record = _row(_float, st.none() | _float)

_chash = st.none() | st.text("0123456789abcdef", min_size=64, max_size=64)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(_record, max_size=8), chash=_chash)
def test_trace_csv_round_trips(rows, chash):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(path, _columns(rows), config_hash=chash)
        assert read_trace_csv(path) == (_columns(rows), chash)


def _csv_writer_bytes(rows, chash) -> bytes:
    """The trace file as csv.writer writes it, from rows of k, branch and
    each float field made a float (None stays None)."""
    buf = io.StringIO(newline="")
    if chash is not None:
        buf.write(f"# config_hash={chash}\n")
    wr = csv.writer(buf)
    wr.writerow(TRACE_COLUMNS)
    for k, branch, *floats in rows:
        wr.writerow([k, branch, *(v if v is None else float(v) for v in floats)])
    return buf.getvalue().encode()


_edge = st.sampled_from(
    [None, math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.2e-308, 1e16, 1e-5, 0.1]
)
_any = _edge | st.floats()
_step = _edge | st.integers(-3, 3) | st.floats()
_wild = _row(_step, _any)


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(_wild, max_size=6), chash=_chash)
@example(rows=[], chash=None)
@example(
    rows=[
        (0, "both", 1, -0.0, None, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e-5),
        (7, "x", 0.1, 2, 0.0, None, None, -0.0, None, -2.2e-308, None),
    ],
    chash="0" * 64,
)
def test_trace_csv_bytes_are_csv_writers(rows, chash):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(path, _columns(rows), config_hash=chash)
        assert path.read_bytes() == _csv_writer_bytes(rows, chash)
