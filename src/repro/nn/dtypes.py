"""Compute-dtype resolution for the NN stack.

float64 is the default and the *bitwise-deterministic reference*: every
determinism pin in the test suite, the serving online/offline parity
guarantee, and the resilience resume contracts are stated against it.
float32 is the opt-in raw-speed path (roughly 2x memory bandwidth and
SIMD width on the matmul hot loops) and is only tolerance-comparable to
the reference — never pin float32 results bitwise.

Because float32 weakens the determinism story, the static analyzer's
nondeterminism rule forbids hard-coded ``float32`` dtypes anywhere in
result-affecting code (``core``, ``nn``, ``embeddings``) *except* this
module: the only supported ways to get a float32 model are the explicit
``Sequential(dtype="float32")`` / ``PipelineConfig.nn_dtype`` knobs or
the ``REPRO_NN_DTYPE`` environment variable, all of which funnel
through :func:`resolve_dtype` below.
"""

from __future__ import annotations

import os
from typing import Optional, Union

import numpy as np

#: Environment variable selecting the compute dtype when the model does
#: not pass one explicitly ("float32" or "float64").
DTYPE_ENV = "REPRO_NN_DTYPE"

#: The bitwise-deterministic reference dtype.
DEFAULT_DTYPE = np.dtype("float64")

#: The opt-in raw-speed dtype.  Layers compare against this constant
#: (never a literal) when they pick a single-precision kernel variant.
FAST_DTYPE = np.dtype("float32")

#: The dtypes the compute path accepts.  float32 is opt-in only.
ALLOWED_DTYPES = (np.dtype("float32"), np.dtype("float64"))


def resolve_dtype(dtype: Optional[Union[str, np.dtype, type]] = None) -> np.dtype:
    """Resolve the compute dtype: explicit argument > ``REPRO_NN_DTYPE`` > float64.

    Only float32 and float64 are accepted; anything else raises
    ``ValueError`` so a typo cannot silently train in an unsupported
    precision.
    """
    if dtype is None:
        raw = os.environ.get(DTYPE_ENV, "").strip()
        if not raw:
            return DEFAULT_DTYPE
        dtype = raw
    try:
        resolved = np.dtype(dtype)
    except TypeError as exc:
        raise ValueError(f"unrecognised nn dtype: {dtype!r}") from exc
    if resolved not in ALLOWED_DTYPES:
        allowed = ", ".join(d.name for d in ALLOWED_DTYPES)
        raise ValueError(
            f"nn dtype must be one of ({allowed}), got {resolved.name!r}"
        )
    return resolved

