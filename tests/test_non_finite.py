"""One non-finite rule for every in-process entry point.

NaN and ±inf have no length-weighted mean under the merge operator, so
every reduction path refuses them with the ValueError of
:func:`repro.core.kernels.require_finite`, naming the stream position of
the first bad tuple.  Without the rule, the input below came back as a
3-segment answer to a size-2 query (python greedy), as ``inf`` / ``nan``
summaries (numpy greedy, both DPs, the batch GMS helpers), or as an
unrelated merge error (numpy session fed one tuple at a time).
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro import Interval, compress
from repro.api import Compressor, ExecutionPolicy
from repro.core import AggregateSegment, gms_reduce_to_error, gms_reduce_to_size

MESSAGE = "segment 2 has a non-finite aggregate value"


def stream(bad: float = math.inf) -> list[AggregateSegment]:
    return [
        AggregateSegment((), (value,), Interval(position, position))
        for position, value in enumerate([1.0, 2.0, bad, 4.0, 5.0])
    ]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "options",
    [
        {"method": "greedy", "backend": "python"},
        {"method": "greedy", "backend": "numpy"},
        {"method": "dp", "backend": "python"},
        {"method": "dp", "backend": "numpy"},
        {"workers": 1},
    ],
    ids=["greedy-python", "greedy-numpy", "dp-python", "dp-numpy", "workers1"],
)
def test_compress_rejects_non_finite_values(options, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(ValueError, match=MESSAGE):
            compress(stream(bad), size=2, **options)


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("mode", ["chunk", "single"])
def test_compressor_push_rejects_non_finite_values(backend, mode):
    session = Compressor(size=2, policy=ExecutionPolicy(backend=backend))
    with pytest.raises(ValueError, match=MESSAGE):
        if mode == "chunk":
            session.push(stream())
        else:
            for segment in stream():
                session.push(segment)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize(
    "reduce",
    [
        lambda segments, backend: gms_reduce_to_size(
            segments, 2, backend=backend
        ),
        lambda segments, backend: gms_reduce_to_error(
            segments, 0.5, backend=backend
        ),
    ],
    ids=["gms-size", "gms-error"],
)
def test_batch_gms_helpers_reject_non_finite_values(reduce, backend, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=MESSAGE):
            reduce(stream(bad), backend)
